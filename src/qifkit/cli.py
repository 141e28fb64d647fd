"""Command-line interface: compute measures from CSV inputs, run the
verification suites, emit versioned JSON reports.

Reports are byte-identical for identical (inputs, flags, seed): keys are
sorted, floats use repr, non-finite floats are the strings "inf", "-inf"
and "nan", and no timestamps are recorded.  Exit codes: 0 success, 2
validation error, 3 verification-suite failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import math
import os
import sys
from types import SimpleNamespace
from typing import Callable, NamedTuple

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
from .fmeans import FMeanSpec, f_alpha, h_alpha_beta, identity_fmean

TOOL = f"qifkit {__version__}"
_FMEAN_FORMS = "identity | alpha:A | ab:A,B | power:P"


class CliError(Exception):
    pass


def _read_csv_matrix(path: str) -> np.ndarray:
    try:
        with open(path, newline="") as handle:
            rows = [row for row in csv.reader(handle) if any(c.strip() for c in row)]
    except (OSError, UnicodeDecodeError) as exc:
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
    from .gains import FiniteMatrixGain, IdentityGain, SimplexGain

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
        if not p < 1.0 or p == 0.0:  # NaN fails p < 1 too
            raise CliError("power exponent must be nonzero and < 1 (or use identity)")
        return f_alpha(1.0 / (1.0 - p))
    raise CliError(f"unknown f-mean spec {spec!r} ({_FMEAN_FORMS})")


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        digest.update(handle.read())
    return "sha256:" + digest.hexdigest()


def _seed_from(args) -> int:
    raw = args.seed if args.seed is not None else os.environ.get("QIFKIT_SEED") or "0"
    try:
        seed = int(raw)
    except ValueError:
        seed = -1
    if seed < 0:
        raise CliError(f"--seed/$QIFKIT_SEED must be a non-negative integer, got {raw!r}")
    return seed


def _optimizer_config(args) -> SimplexOptimizerConfig:
    return SimplexOptimizerConfig(
        restarts=args.restarts,
        grid_resolution=args.grid_resolution,
        seed=_seed_from(args),
    )


def _render(obj):
    """``obj`` with every non-finite float, at any depth, as a string."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return "nan" if math.isnan(obj) else ("inf" if obj > 0 else "-inf")
    if isinstance(obj, dict):
        return {key: _render(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_render(value) for value in obj]
    return obj


def _emit(report: dict, out: str | None) -> None:
    text = json.dumps(_render(report), sort_keys=True, indent=2, allow_nan=False) + "\n"
    if not out:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w") as handle:
            handle.write(text)
    except OSError as exc:
        raise CliError(f"cannot write {out}: {exc}") from exc


def _provenance(args, files: dict) -> dict:
    return {
        "inputs": {name: _sha256(path) for name, path in files.items() if path},
        "seed": _seed_from(args),
        "tool": TOOL,
    }


# ---------------------------------------------------------------- compute
#
# A measure function takes ``x``: one attribute per input name, parsed, plus
# ``h``, ``measure``, ``args`` and a ``diagnostics`` dict it may fill.  It
# returns the value, in nats when the measure is log-valued.


def _vulnerability(x) -> float:
    from .vulnerability import (ADDITIVE, MULTIPLICATIVE, argmax_action, leakage,
                                gen_posterior_vulnerability_avg, gen_posterior_vulnerability_max,
                                gen_prior_vulnerability)

    f = x.f or identity_fmean()
    if x.measure == "prior-v":
        value = gen_prior_vulnerability(x.prior, x.gain, f)
        if f.is_affine:
            _, witness = argmax_action(x.prior, x.gain)
            x.diagnostics["argmax_witness"] = (
                witness.tolist() if isinstance(witness, np.ndarray) else witness
            )
        return value
    hyper = push(x.prior, x.channel)
    v_prior = gen_prior_vulnerability(x.prior, x.gain, f)
    v_avg = gen_posterior_vulnerability_avg(hyper, x.gain, f, x.h or f)
    v_max = gen_posterior_vulnerability_max(hyper, x.gain, f)
    x.diagnostics.update(prior_vulnerability=v_prior, posterior_avg=v_avg, posterior_max=v_max)
    if x.measure == "post-avg":
        return v_avg
    if x.measure == "post-max":
        return v_max
    return leakage(v_prior, v_avg, MULTIPLICATIVE if x.measure == "leakage-mult" else ADDITIVE)


def _alpha_loss_min(x) -> float:
    value, minimizer = min_expected_alpha_loss(x.prior, x.alpha)
    x.diagnostics["minimizer"] = minimizer.probs.tolist()
    return value


def _max_alpha_capacity(x) -> float:
    value, witness, diag = maximal_alpha_leakage(x.channel, x.alpha, _optimizer_config(x.args))
    x.diagnostics.update(diag)
    x.diagnostics["witness_prior"] = witness.probs.tolist()
    x.diagnostics["bound_kind"] = "certified_lower_bound"
    return value


def _mult_f_capacity(x) -> float:
    if not x.args.max_case:
        return multiplicative_f_capacity(x.channel, x.f)
    x.diagnostics["bound_kind"] = "upper_bound"
    return max_case_capacity_bound(x.channel, x.f)


class _Measure(NamedTuple):
    inputs: tuple  # required, each the name of its --flag, checked in this order
    compute: Callable
    log_valued: bool
    inf_reason: str | None = None
    params: tuple = ()  # the options that set its value, which its report records


_POSTERIOR = ("prior", "gain", "channel")
_MEASURES = {
    "prior-v": _Measure(("prior", "gain"), _vulnerability, False),
    "post-avg": _Measure(_POSTERIOR, _vulnerability, False),
    "post-max": _Measure(_POSTERIOR, _vulnerability, False),
    "leakage-mult": _Measure(_POSTERIOR, _vulnerability, True, "zero_prior_vulnerability"),
    "leakage-add": _Measure(_POSTERIOR, _vulnerability, False, "zero_prior_vulnerability"),
    "renyi-entropy": _Measure(
        ("prior", "alpha"), lambda x: renyi_entropy(x.prior, x.alpha), True
    ),
    "renyi-divergence": _Measure(
        ("prior", "reference", "alpha"),
        lambda x: renyi_divergence(x.prior, x.reference, x.alpha),
        True,
        "support_violation",
    ),
    "arimoto-mi": _Measure(
        ("prior", "channel", "alpha"),
        lambda x: arimoto_mi(push(x.prior, x.channel), x.alpha),
        True,
    ),
    "sibson-mi": _Measure(
        ("prior", "channel", "alpha"), lambda x: sibson_mi(x.prior, x.channel, x.alpha), True
    ),
    "alpha-loss-min": _Measure(("prior", "alpha"), _alpha_loss_min, False),
    "pointwise-alpha": _Measure(
        ("prior", "posterior", "alpha"),
        lambda x: pointwise_alpha_leakage(x.prior, x.posterior, x.alpha),
        True,
        "support_violation",
    ),
    "alpha-beta": _Measure(
        ("prior", "channel", "alpha", "beta"),
        lambda x: alpha_beta_leakage(x.prior, x.channel, x.alpha, x.beta),
        True,
    ),
    "bayes-capacity": _Measure(("channel",), lambda x: bayes_capacity(x.channel), True),
    "ldp": _Measure(("channel",), lambda x: ldp_leakage(x.channel), True, "zero_channel_entry"),
    "renyi-ldp": _Measure(
        ("channel", "alpha"), lambda x: renyi_ldp(x.channel, x.alpha), True, "zero_channel_entry"
    ),
    "max-alpha-capacity": _Measure(
        ("channel", "alpha"), _max_alpha_capacity, True, params=("grid_resolution", "restarts")
    ),
    "mult-f-capacity": _Measure(("channel", "f"), _mult_f_capacity, True),
}


def _compute(args) -> int:
    entry = _MEASURES[args.measure]
    files = {"prior": args.prior, "channel": args.channel}
    x = SimpleNamespace(
        measure=args.measure,
        args=args,
        diagnostics={},
        prior=_read_prior(args.prior) if args.prior else None,
        channel=_read_channel(args.channel) if args.channel else None,
        reference=args.reference,
        posterior=args.posterior,
        gain=args.gain,
        alpha=_parse_number(args.alpha) if args.alpha is not None else None,
        beta=_parse_number(args.beta) if args.beta is not None else None,
        f=_parse_fmean(args.f) if args.f else None,
        h=_parse_fmean(args.hmean) if args.hmean else None,
    )
    params = {"alpha": x.alpha, "beta": x.beta, "f": args.f, "h": args.hmean, "gain": args.gain}
    params = {name: value for name, value in params.items() if value not in (None, "")}
    params.update((name, getattr(args, name)) for name in entry.params)

    for name in entry.inputs:
        if getattr(x, name) is None:
            raise CliError(f"{args.measure} requires --{name}")
    for name in ("reference", "posterior"):
        if name in entry.inputs:
            setattr(x, name, _read_prior(getattr(args, name)))
            files[name] = getattr(args, name)
    if "gain" in entry.inputs:
        x.gain = _parse_gain(args.gain, x.prior.dim)
        if args.gain not in ("identity", "simplex"):
            files["gain"] = args.gain

    value = entry.compute(x)
    unit = "nats"
    if args.bits:
        if not entry.log_valued:
            raise CliError(f"--bits applies only to log-valued measures, not {args.measure}")
        value = value / math.log(2.0)
        unit = "bits"
    reason = None
    if math.isinf(value) and entry.inf_reason:
        reason = entry.inf_reason
    elif not math.isfinite(value):
        reason = "non_finite_result"

    report = {
        "schema": 1,
        "measure": args.measure,
        "value": value,
        "unit": unit,
        "reason": reason,
        "params": params,
        "diagnostics": x.diagnostics,
        "provenance": _provenance(args, files),
    }
    _emit(report, args.out)
    return 0


# ---------------------------------------------------------------- verify


def _axioms(args, files: dict) -> list:
    from .verify import alpha_family, classical_family, run_axiom_suite

    families = [classical_family()] + [alpha_family(a) for a in (0.5, 2.0, math.inf)]
    seed = _seed_from(args)
    return [r for family in families for r in run_axiom_suite(family, args.instances, seed)]


def _dual(args, files: dict) -> list:
    from .verify import verify_dual_formulas

    return verify_dual_formulas(args.instances, _seed_from(args))


def _equivalence(args, files: dict) -> list:
    from .gains import IdentityGain, SimplexGain
    from .verify import verify_maximal_equals_capacity

    if not args.channel:
        raise CliError("verify equivalence requires --channel")
    channel = _read_channel(args.channel)
    files["channel"] = args.channel
    cfg = _optimizer_config(args)
    sizes = (channel.n_inputs, args.u_max)
    return [
        verify_maximal_equals_capacity(channel, gain, f, f, sizes, cfg)
        for gain, f in ((IdentityGain(), identity_fmean()), (SimplexGain(), f_alpha(2.0)))
    ]


# each suite with the options that set its results, which its report records
_SUITES = {
    "axioms": (_axioms, ("instances",)),
    "dual": (_dual, ("instances",)),
    "equivalence": (_equivalence, ("grid_resolution", "restarts", "u_max")),
}


def _verify(args) -> int:
    files: dict = {}
    run, params = _SUITES[args.suite]
    results = run(args, files)
    all_passed = all(r.passed for r in results)
    report = {
        "schema": 1,
        "command": f"verify-{args.suite}",
        "results": [dataclasses.asdict(r) for r in results],
        "all_passed": all_passed,
        "params": {name: getattr(args, name) for name in params},
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
    comp.add_argument("measure", choices=sorted(_MEASURES))
    comp.add_argument("--channel", help="channel CSV (rows = inputs)")
    comp.add_argument("--prior", help="prior CSV (single row)")
    comp.add_argument("--reference", help="reference distribution CSV (divergence)")
    comp.add_argument("--posterior", help="posterior distribution CSV (pointwise)")
    comp.add_argument("--gain", help="gain: CSV file, 'identity' or 'simplex'")
    comp.add_argument("--alpha", help="order alpha (number or 'inf')")
    comp.add_argument("--beta", help="order beta (number or 'inf')")
    comp.add_argument("--f", help=f"f-mean: {_FMEAN_FORMS}")
    comp.add_argument("--hmean", help=f"posterior mean h, defaults to f: {_FMEAN_FORMS}")
    comp.add_argument("--max-case", action="store_true", help="max-case capacity bound")
    comp.add_argument("--bits", action="store_true", help="report in bits")
    comp.set_defaults(func=_compute)

    ver = sub.add_parser("verify", help="run a verification suite")
    ver.add_argument("suite", choices=sorted(_SUITES))
    ver.add_argument("--instances", type=int, default=1000,
                     help="random instances per check; equivalence ignores it")
    ver.add_argument("--channel", help="channel CSV for equivalence")
    ver.add_argument("--u-max", type=int, default=4, help="largest |U| for equivalence, 2..4")
    ver.set_defaults(func=_verify)

    for p in (comp, ver):
        p.add_argument("--seed", type=int, default=None, help="defaults to $QIFKIT_SEED")
        p.add_argument("--restarts", type=int, default=SimplexOptimizerConfig.restarts,
                       help="restarts of a capacity search")
        p.add_argument("--grid-resolution", type=int, default=SimplexOptimizerConfig.grid_resolution,
                       help="prior-grid steps per unit")
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
