"""Command-line interface: compute measures from CSV inputs, run the
verification suites, emit versioned JSON reports.

Reports are byte-identical for identical (inputs, flags, seed): keys are
sorted, floats use repr, and no timestamps are recorded.  Exit codes:
0 success, 2 validation error, 3 verification-suite failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .alpha import (
    arimoto_mi,
    min_expected_alpha_loss,
    pointwise_alpha_leakage,
    renyi_divergence,
    renyi_entropy,
    sibson_mi,
)
from .capacity import (
    SimplexOptimizerConfig,
    alpha_beta_leakage,
    bayes_capacity,
    ldp_leakage,
    max_case_capacity_bound,
    maximal_alpha_leakage,
    multiplicative_f_capacity,
    renyi_ldp,
)
from .core import Channel, Prior, push
from .errors import QifError
from .fmeans import FMeanSpec, f_alpha, identity_fmean, h_alpha_beta
from .gains import FiniteMatrixGain, IdentityGain, SimplexGain
from .verify import (
    alpha_family,
    classical_family,
    run_axiom_suite,
    verify_dual_formulas,
    verify_maximal_equals_capacity,
)
from .vulnerability import (
    ADDITIVE,
    MULTIPLICATIVE,
    LeakageReport,
    argmax_action,
    gen_posterior_vulnerability_avg,
    gen_posterior_vulnerability_max,
    gen_prior_vulnerability,
    leakage,
)

TOOL = f"qifkit {__version__}"

LOG_VALUED = {
    "leakage-mult",
    "renyi-entropy",
    "renyi-divergence",
    "arimoto-mi",
    "sibson-mi",
    "pointwise-alpha",
    "alpha-beta",
    "bayes-capacity",
    "ldp",
    "renyi-ldp",
    "max-alpha-capacity",
    "mult-f-capacity",
}


class CliError(Exception):
    pass


def _read_csv_matrix(path: str) -> np.ndarray:
    try:
        with open(path, newline="") as handle:
            rows = [row for row in csv.reader(handle) if any(c.strip() for c in row)]
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    if not rows:
        raise CliError(f"{path} is empty")

    def parse(row):
        try:
            return [float(c) for c in row if c.strip()]
        except ValueError:
            return None

    parsed = [parse(r) for r in rows]
    if parsed[0] is None:  # header row
        parsed = parsed[1:]
    if not parsed or any(p is None for p in parsed):
        raise CliError(f"{path} contains non-numeric data rows")
    widths = {len(p) for p in parsed}
    if len(widths) != 1:
        raise CliError(f"{path} has ragged rows")
    return np.array(parsed, dtype=float)


def _read_prior(path: str) -> Prior:
    mat = _read_csv_matrix(path)
    if mat.shape[0] == 1:
        vec = mat[0]
    elif mat.shape[1] == 1:
        vec = mat[:, 0]
    else:
        raise CliError(f"{path}: a prior must be a single CSV row")
    return Prior(vec)


def _read_channel(path: str) -> Channel:
    return Channel(_read_csv_matrix(path))


def _parse_gain(spec: str, n_secrets: int):
    if spec == "identity":
        return IdentityGain()
    if spec == "simplex":
        return SimplexGain()
    matrix = _read_csv_matrix(spec)
    if matrix.shape[1] != n_secrets:
        raise CliError(
            f"gain matrix has {matrix.shape[1]} columns, expected {n_secrets}"
        )
    return FiniteMatrixGain(matrix)


def _parse_number(text: str) -> float:
    if text in ("inf", "infinity", "Inf"):
        return math.inf
    try:
        return float(text)
    except ValueError as exc:
        raise CliError(f"bad numeric value {text!r}") from exc


def _parse_fmean(spec: str) -> FMeanSpec:
    if spec == "identity":
        return identity_fmean()
    kind, _, arg = spec.partition(":")
    if kind == "alpha" and arg:
        return f_alpha(_parse_number(arg))
    if kind == "ab" and arg:
        parts = arg.split(",")
        if len(parts) != 2:
            raise CliError("ab f-mean needs two orders: ab:A,B")
        return h_alpha_beta(_parse_number(parts[0]), _parse_number(parts[1]))
    if kind == "power" and arg:
        p = _parse_number(arg)
        if p == 1.0:
            return identity_fmean()
        # power exponents map onto the order-alpha family: e = (a-1)/a
        if p >= 1.0 or p == 0.0:
            raise CliError("power exponent must be nonzero and < 1 (or use identity)")
        return f_alpha(1.0 / (1.0 - p))
    raise CliError(f"unknown f-mean spec {spec!r} (identity | alpha:A | ab:A,B | power:P)")


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        digest.update(handle.read())
    return "sha256:" + digest.hexdigest()


def _seed_from(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("QIFKIT_SEED")
    return int(env) if env else 0


def _optimizer_config(args) -> SimplexOptimizerConfig:
    return SimplexOptimizerConfig(
        restarts=args.restarts,
        grid_resolution=args.grid_resolution,
        seed=_seed_from(args),
    )


def _render_value(value: float):
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return value


def _emit(report: dict, out: str | None) -> None:
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if out:
        with open(out, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _provenance(args, files: dict) -> dict:
    return {
        "inputs": {name: _sha256(path) for name, path in files.items() if path},
        "seed": _seed_from(args),
        "tool": TOOL,
    }


def _compute(args) -> int:
    measure = args.measure
    files = {}
    params: dict = {}
    diagnostics: dict = {}
    reason = None

    prior = channel = None
    if args.prior:
        prior = _read_prior(args.prior)
        files["prior"] = args.prior
    if args.channel:
        channel = _read_channel(args.channel)
        files["channel"] = args.channel

    def need(**kw):
        for name, value in kw.items():
            if value is None:
                raise CliError(f"{measure} requires --{name.replace('_', '-')}")

    alpha = _parse_number(args.alpha) if args.alpha is not None else None
    beta = _parse_number(args.beta) if args.beta is not None else None
    fmean = _parse_fmean(args.f) if args.f else None
    hmean = _parse_fmean(args.hmean) if args.hmean else None
    if alpha is not None:
        params["alpha"] = _render_value(alpha)
    if beta is not None:
        params["beta"] = _render_value(beta)
    if args.f:
        params["f"] = args.f
    if args.hmean:
        params["h"] = args.hmean
    if args.gain:
        params["gain"] = args.gain

    if measure in ("prior-v", "post-avg", "post-max", "leakage-mult", "leakage-add"):
        need(prior=prior, gain=args.gain)
        if measure != "prior-v":
            need(channel=channel)
        gain = _parse_gain(args.gain, prior.dim)
        if args.gain not in ("identity", "simplex"):
            files["gain"] = args.gain
        f = fmean or identity_fmean()
        h = hmean or f
        if measure == "prior-v":
            value = gen_prior_vulnerability(prior, gain, f)
            if f.is_affine:
                _, witness = argmax_action(prior, gain)
                diagnostics["argmax_witness"] = (
                    witness.tolist() if isinstance(witness, np.ndarray) else witness
                )
        else:
            hyper = push(prior, channel)
            v_prior = gen_prior_vulnerability(prior, gain, f)
            v_avg = gen_posterior_vulnerability_avg(hyper, gain, f, h)
            v_max = gen_posterior_vulnerability_max(hyper, gain, f)
            diagnostics["prior_vulnerability"] = v_prior
            diagnostics["posterior_avg"] = v_avg
            diagnostics["posterior_max"] = v_max
            if measure == "post-avg":
                value = v_avg
            elif measure == "post-max":
                value = v_max
            else:
                kind = MULTIPLICATIVE if measure == "leakage-mult" else ADDITIVE
                value = leakage(v_prior, v_avg, kind)
                if math.isinf(value):
                    reason = "zero_prior_vulnerability"
    elif measure == "renyi-entropy":
        need(prior=prior, alpha=alpha)
        value = renyi_entropy(prior, alpha)
    elif measure == "renyi-divergence":
        need(prior=prior, reference=args.reference, alpha=alpha)
        reference = _read_prior(args.reference)
        files["reference"] = args.reference
        value = renyi_divergence(prior, reference, alpha)
        if math.isinf(value):
            reason = "support_violation"
    elif measure == "arimoto-mi":
        need(prior=prior, channel=channel, alpha=alpha)
        value = arimoto_mi(push(prior, channel), alpha)
    elif measure == "sibson-mi":
        need(prior=prior, channel=channel, alpha=alpha)
        value = sibson_mi(prior, channel, alpha)
    elif measure == "alpha-loss-min":
        need(prior=prior, alpha=alpha)
        value, minimizer = min_expected_alpha_loss(prior, alpha)
        diagnostics["minimizer"] = minimizer.probs.tolist()
    elif measure == "pointwise-alpha":
        need(prior=prior, posterior=args.posterior, alpha=alpha)
        posterior = _read_prior(args.posterior)
        files["posterior"] = args.posterior
        value = pointwise_alpha_leakage(prior, posterior, alpha)
        if math.isinf(value):
            reason = "support_violation"
    elif measure == "alpha-beta":
        need(prior=prior, channel=channel, alpha=alpha, beta=beta)
        value = alpha_beta_leakage(prior, channel, alpha, beta)
    elif measure == "bayes-capacity":
        need(channel=channel)
        value = bayes_capacity(channel)
    elif measure == "ldp":
        need(channel=channel)
        value = ldp_leakage(channel)
        if math.isinf(value):
            reason = "zero_channel_entry"
    elif measure == "renyi-ldp":
        need(channel=channel, alpha=alpha)
        value = renyi_ldp(channel, alpha)
        if math.isinf(value):
            reason = "zero_channel_entry"
    elif measure == "max-alpha-capacity":
        need(channel=channel, alpha=alpha)
        value, witness, diag = maximal_alpha_leakage(channel, alpha, _optimizer_config(args))
        diagnostics.update(diag)
        diagnostics["witness_prior"] = witness.probs.tolist()
        diagnostics["bound_kind"] = "certified_lower_bound"
    elif measure == "mult-f-capacity":
        need(channel=channel, f=fmean)
        if args.max_case:
            value = max_case_capacity_bound(channel, fmean)
            diagnostics["bound_kind"] = "upper_bound"
        else:
            value = multiplicative_f_capacity(channel, fmean)
    else:
        raise CliError(f"unknown measure {measure!r}")

    unit = "nats"
    if args.bits:
        if measure not in LOG_VALUED:
            raise CliError(f"--bits applies only to log-valued measures, not {measure}")
        if math.isfinite(value):
            value = value / math.log(2.0)
        unit = "bits"
    if not math.isfinite(value) and reason is None:
        reason = "non_finite_result"

    result = LeakageReport(
        measure_name=measure,
        value=value,
        params=params,
        diagnostics=diagnostics,
        log_base="natural" if unit == "nats" else "bits",
        reason=reason,
    )
    report = {
        "schema": 1,
        "measure": result.measure_name,
        "value": _render_value(result.value),
        "unit": unit,
        "reason": result.reason,
        "params": result.params,
        "diagnostics": result.diagnostics,
        "provenance": _provenance(args, files),
    }
    _emit(report, args.out)
    return 0


def _result_dict(result) -> dict:
    return {
        "theorem_id": result.theorem_id,
        "instances_checked": result.instances_checked,
        "max_violation": result.max_violation,
        "tolerance": result.tolerance,
        "passed": result.passed,
    }


def _verify(args) -> int:
    seed = _seed_from(args)
    results = []
    files: dict = {}
    if args.suite == "axioms":
        families = [classical_family()] + [alpha_family(a) for a in (0.5, 2.0, math.inf)]
        for family in families:
            results.extend(run_axiom_suite(family, args.instances, seed))
    elif args.suite == "dual":
        results.extend(verify_dual_formulas(args.instances, seed))
    elif args.suite == "equivalence":
        if not args.channel:
            raise CliError("verify equivalence requires --channel")
        channel = _read_channel(args.channel)
        files["channel"] = args.channel
        cfg = _optimizer_config(args)
        sizes = (channel.n_inputs, args.u_max)
        results.append(
            verify_maximal_equals_capacity(
                channel, IdentityGain(), identity_fmean(), identity_fmean(), sizes, cfg
            )
        )
        results.append(
            verify_maximal_equals_capacity(
                channel, SimplexGain(), f_alpha(2.0), f_alpha(2.0), sizes, cfg
            )
        )
    else:
        raise CliError(f"unknown verify suite {args.suite!r}")

    all_passed = all(r.passed for r in results)
    report = {
        "schema": 1,
        "command": f"verify-{args.suite}",
        "results": [_result_dict(r) for r in results],
        "all_passed": all_passed,
        "params": {"instances": getattr(args, "instances", None)},
        "provenance": _provenance(args, files),
    }
    _emit(report, args.out)
    return 0 if all_passed else 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qifkit",
        description="Quantitative information flow measures over finite channels",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    comp = sub.add_parser("compute", help="compute a single measure")
    comp.add_argument(
        "measure",
        choices=sorted(
            [
                "prior-v", "post-avg", "post-max", "leakage-mult", "leakage-add",
                "renyi-entropy", "renyi-divergence", "arimoto-mi", "sibson-mi",
                "alpha-loss-min", "pointwise-alpha", "alpha-beta",
                "bayes-capacity", "ldp", "renyi-ldp", "max-alpha-capacity",
                "mult-f-capacity",
            ]
        ),
    )
    comp.add_argument("--channel", help="channel CSV (rows = inputs)")
    comp.add_argument("--prior", help="prior CSV (single row)")
    comp.add_argument("--reference", help="reference distribution CSV (divergence)")
    comp.add_argument("--posterior", help="posterior distribution CSV (pointwise)")
    comp.add_argument("--gain", help="gain: CSV file, 'identity' or 'simplex'")
    comp.add_argument("--alpha", help="order alpha (number or 'inf')")
    comp.add_argument("--beta", help="order beta (number or 'inf')")
    comp.add_argument("--f", help="f-mean: identity | alpha:A | power:P")
    comp.add_argument("--hmean", help="posterior mean h (defaults to f)")
    comp.add_argument("--max-case", action="store_true", help="max-case capacity bound")
    comp.add_argument("--bits", action="store_true", help="report in bits")
    comp.set_defaults(func=_compute)

    ver = sub.add_parser("verify", help="run a verification suite")
    ver.add_argument("suite", choices=["axioms", "dual", "equivalence"])
    ver.add_argument("--instances", type=int, default=1000)
    ver.add_argument("--channel", help="channel CSV for equivalence")
    ver.add_argument("--u-max", type=int, default=4)
    ver.set_defaults(func=_verify)

    for p in (comp, ver):
        p.add_argument("--seed", type=int, default=None, help="defaults to $QIFKIT_SEED")
        p.add_argument("--restarts", type=int, default=12)
        p.add_argument("--grid-resolution", type=int, default=60)
        p.add_argument("--out", help="write the JSON report here instead of stdout")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CliError, QifError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
