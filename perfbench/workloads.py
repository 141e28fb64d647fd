"""Seeded inputs, the fixed op list of one round, and the output checks of
each workload.

``make_inputs`` runs in the set-up child process; ``build_round`` runs in the
measuring process and returns ops that call qifkit through module
attributes, so that the tracer's wrappers are used when installed.  Checks
compare against ``reference`` and run only after the timed phase.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import reference

INF = math.inf
HERE = Path(__file__).resolve().parent
ALPHAS = (0.5, 1.0, 2.0, INF)
MEASURE_SIZES = (4, 16, 64, 256)
GRID_CHANNELS = 4  # seeded 3x3 channels per alpha
ASCENT_CHANNELS = {6: 2, 16: 1}  # seeded channels per alpha in {0.5, 2}, by size
EQUIV_CHANNELS = 4  # seeded channels per size in {2, 3}
AXIOM_CALLS_PER_FAMILY = 12
AXIOM_INSTANCES = 5
CONTROL_CALLS = 2
CONTROL_INSTANCES = 50
DUAL_INSTANCES = 20
DUAL_SEED = 0
CLI_SIZE = 4
CLI_INPUT_SETS = 5
CLI_AXIOM_INSTANCES = 5
CLI_LAUNCH = "import sys; from qifkit.cli import main; sys.exit(main())"


@dataclass
class Op:
    """One timed call.  ``check`` returns an error message or None;
    ``gap`` (capacity searches only) returns the dual-bound gap in nats;
    ``child`` marks a call that waits on a child process."""

    label: str
    call: Callable[[], object]
    check: Callable[[object], str | None]
    units: int = 1
    gap: Callable[[object], float] | None = None
    child: bool = False


def _close(value: float, expected: float, rel: float) -> bool:
    return math.isfinite(value) and abs(value - expected) <= rel * max(1.0, abs(expected))


def _channel(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.dirichlet(np.ones(n), size=n)


def _write_csv(path: Path, rows: np.ndarray) -> None:
    lines = [",".join(repr(float(v)) for v in row) for row in np.atleast_2d(rows)]
    path.write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------- set-up


def make_inputs(workload: str, seed: int, out: Path) -> None:
    """Generate the seeded inputs of one workload, validate them with the
    qifkit constructors and write them under ``out``."""
    from qifkit import Channel, Prior

    rng = np.random.default_rng(seed)
    arrays: dict[str, np.ndarray] = {}
    if workload == "capacity":
        arrays["grid"] = np.stack([_channel(rng, 3) for _ in range(GRID_CHANNELS * len(ALPHAS))])
        for n, count in ASCENT_CHANNELS.items():
            arrays[f"ascent{n}"] = np.stack([_channel(rng, n) for _ in range(2 * count)])
        for n in (2, 3):
            arrays[f"equiv{n}"] = np.stack([_channel(rng, n) for _ in range(EQUIV_CHANNELS)])
    elif workload == "verify":
        seeds = rng.integers(0, 2**31 - 1, size=4 * AXIOM_CALLS_PER_FAMILY + CONTROL_CALLS)
        arrays["seeds"] = seeds
    elif workload == "measures":
        for n in MEASURE_SIZES:
            arrays[f"prior{n}"] = rng.dirichlet(np.ones(n))
            arrays[f"reference{n}"] = rng.dirichlet(np.ones(n))
            arrays[f"channel{n}"] = _channel(rng, n)
    elif workload == "cli":
        arrays["channel"] = np.stack([_channel(rng, CLI_SIZE) for _ in range(CLI_INPUT_SETS)])
        arrays["prior"] = rng.dirichlet(np.ones(CLI_SIZE), size=CLI_INPUT_SETS)
        arrays["axiom_seed"] = rng.integers(0, 2**31 - 1, size=CLI_INPUT_SETS)
        for k in range(CLI_INPUT_SETS):
            _write_csv(out / f"channel{k}.csv", arrays["channel"][k])
            _write_csv(out / f"prior{k}.csv", arrays["prior"][k])
    else:
        raise ValueError(f"unknown workload {workload!r}")
    for key, value in arrays.items():
        if key.startswith(("prior", "reference")):
            for row in np.atleast_2d(value):
                Prior(row)
        elif value.ndim >= 2:
            for matrix in value.reshape(-1, *value.shape[-2:]):
                Channel(matrix)
    np.savez(out / "inputs.npz", **arrays)


def load_inputs(out: Path) -> dict:
    with np.load(out / "inputs.npz") as data:
        return {key: data[key] for key in data.files}


# ---------------------------------------------------------------- capacity


def _capacity_ops(inputs: dict, spec: dict) -> list[Op]:
    import qifkit
    from qifkit import capacity, verify

    cfg_fields = dict(spec["optimizer_config"])
    cfg_fields["vertex_epsilon_sequence"] = tuple(cfg_fields["vertex_epsilon_sequence"])
    cfg = qifkit.SimplexOptimizerConfig(**cfg_fields)

    def leakage_op(label: str, C: np.ndarray, a: float) -> Op:
        channel = qifkit.Channel(C)

        def gap(result) -> float:
            value, witness, _ = result
            return reference.renyi_radius_bound(C, witness.probs, a) - value

        def check(result) -> str | None:
            value = result[0]
            if not math.isfinite(value):
                return f"value {value}"
            excess = -gap(result)
            return f"exceeds the dual bound by {excess:.3e}" if excess > 1e-9 else None

        return Op(label, lambda: capacity.maximal_alpha_leakage(channel, a, cfg), check, gap=gap)

    grid = iter(inputs["grid"])
    ops = [leakage_op(f"max-alpha 3x3 a={a:g}", next(grid), a)
           for a in ALPHAS for _ in range(GRID_CHANNELS)]
    for n, count in ASCENT_CHANNELS.items():
        ascent = iter(inputs[f"ascent{n}"])
        ops += [leakage_op(f"max-alpha {n}x{n} a={a:g}", next(ascent), a)
                for a in (0.5, 2.0) for _ in range(count)]

    bsc = np.array([[0.9, 0.1], [0.1, 0.9]])
    bsc_channel = qifkit.Channel(bsc)
    target = reference.renyi_ldp(bsc, 2.0)

    def check_ab(result) -> str | None:
        value = result[0]
        return None if _close(value, target, 1e-3) else f"{value} vs Renyi-LDP {target}"

    ops.append(Op("max-alpha-beta bsc(0.1) 2,2",
                  lambda: capacity.maximal_alpha_beta_leakage(bsc_channel, 2.0, 2.0, cfg),
                  check_ab))

    pairs = (("identity", qifkit.IdentityGain(), qifkit.identity_fmean()),
             ("simplex,f2", qifkit.SimplexGain(), qifkit.f_alpha(2.0)))
    for n in (2, 3):
        for matrix in inputs[f"equiv{n}"]:
            channel = qifkit.Channel(matrix)
            for name, gain, f in pairs:
                ops.append(Op(
                    f"maximal=capacity {n}x{n} {name}",
                    lambda channel=channel, gain=gain, f=f, n=n:
                        verify.verify_maximal_equals_capacity(channel, gain, f, f, (n, 4), cfg),
                    lambda result: None if result.passed else f"failed: {result.worst_instance}",
                ))
    return ops


# ---------------------------------------------------------------- verify


def _verify_ops(inputs: dict) -> list[Op]:
    import qifkit
    from qifkit import verify

    def all_pass(results) -> str | None:
        bad = [r.theorem_id for r in results if not r.passed]
        return f"failed: {bad}" if bad else None

    def must_fail(results) -> str | None:
        return None if not results[0].passed else "negative control passed"

    seeds = [int(s) for s in inputs["seeds"]]
    families = [verify.classical_family()] + [verify.alpha_family(a) for a in (0.5, 2.0, INF)]
    ops = []
    for f_index, family in enumerate(families):
        for k in range(AXIOM_CALLS_PER_FAMILY):
            seed = seeds[f_index * AXIOM_CALLS_PER_FAMILY + k]
            ops.append(Op(
                f"axioms {family.name}",
                lambda family=family, seed=seed:
                    verify.run_axiom_suite(family, AXIOM_INSTANCES, seed),
                all_pass, units=AXIOM_INSTANCES,
            ))
    reciprocal = qifkit.custom_fmean(
        lambda t: 1.0 / np.asarray(t, dtype=float),
        lambda s: 1.0 / np.asarray(s, dtype=float),
        "decreasing", "convex", domain=(1e-9, INF), name="reciprocal",
    )
    control = verify.MeasureFamily(
        "corrupted-h", qifkit.identity_fmean(), reciprocal, "identity", enforce_h_class=False
    )
    for seed in seeds[4 * AXIOM_CALLS_PER_FAMILY:]:
        ops.append(Op(
            "negative control",
            lambda seed=seed: verify.run_axiom_suite(
                control, CONTROL_INSTANCES, seed, axioms=("DPI_AVG",)),
            must_fail, units=CONTROL_INSTANCES,
        ))
    ops.append(Op("dual formulas",
                  lambda: verify.verify_dual_formulas(DUAL_INSTANCES, DUAL_SEED),
                  all_pass, units=DUAL_INSTANCES))
    return ops


# ---------------------------------------------------------------- measures


def _measure_ops(inputs: dict) -> list[Op]:
    import qifkit
    from qifkit import alpha, capacity, core, vulnerability

    simplex = qifkit.SimplexGain()
    f2 = qifkit.f_alpha(2.0)
    ops = []
    for n in MEASURE_SIZES:
        p, q, C = inputs[f"prior{n}"], inputs[f"reference{n}"], inputs[f"channel{n}"]
        prior, ref, channel = qifkit.Prior(p), qifkit.Prior(q), qifkit.Channel(C)
        hyper = qifkit.push(prior, channel)
        outer, inners = reference.push(p, C)

        def check_push(h, outer=outer, inners=inners) -> str | None:
            same = (h.outer.shape == outer.shape and h.inners.shape == inners.shape
                    and np.allclose(h.outer, outer, rtol=0, atol=1e-12)
                    and np.allclose(h.inners, inners, rtol=0, atol=1e-12))
            return None if same else "push disagrees with the reference hyper"

        def scalar(label, call, expected) -> Op:
            return Op(f"{label} n{n}", call,
                      lambda v: None if _close(v, expected, 1e-9) else f"{v} vs {expected}")

        ops.append(Op(f"push n{n}", lambda prior=prior, channel=channel:
                      core.push(prior, channel), check_push))
        ops.append(scalar("renyi_entropy a=2", lambda prior=prior:
                          alpha.renyi_entropy(prior, 2.0), reference.renyi_entropy(p, 2.0)))
        ops.append(scalar("renyi_divergence a=2", lambda prior=prior, ref=ref:
                          alpha.renyi_divergence(prior, ref, 2.0),
                          reference.renyi_divergence(p, q, 2.0)))
        for a in ALPHAS:
            ops.append(scalar(f"arimoto_mi a={a:g}", lambda hyper=hyper, a=a:
                              alpha.arimoto_mi(hyper, a), reference.arimoto_mi(p, C, a)))
            ops.append(scalar(f"sibson_mi a={a:g}", lambda prior=prior, channel=channel, a=a:
                              alpha.sibson_mi(prior, channel, a), reference.sibson_mi(p, C, a)))
        ops.append(scalar("alpha_beta_leakage 2,2", lambda prior=prior, channel=channel:
                          capacity.alpha_beta_leakage(prior, channel, 2.0, 2.0),
                          reference.alpha_beta_leakage(p, C, 2.0, 2.0)))
        ops.append(scalar("gen_posterior_vulnerability_avg simplex f2", lambda hyper=hyper:
                          vulnerability.gen_posterior_vulnerability_avg(hyper, simplex, f2, f2),
                          reference.simplex_posterior_vulnerability(p, C, 2.0)))
        ops.append(scalar("bayes_capacity", lambda channel=channel:
                          capacity.bayes_capacity(channel), reference.bayes_capacity(C)))
        ops.append(scalar("ldp_leakage", lambda channel=channel:
                          capacity.ldp_leakage(channel), reference.ldp_leakage(C)))
        ops.append(scalar("renyi_ldp a=2", lambda channel=channel:
                          capacity.renyi_ldp(channel, 2.0), reference.renyi_ldp(C, 2.0)))
    return ops


# ---------------------------------------------------------------- cli


def cli_commands(inputs: dict, out: Path) -> list[tuple[list[str], Callable | None]]:
    """The commands of one cli round, each with the in-process library call
    whose value its report must carry (None for the verify command)."""
    import qifkit

    f2 = qifkit.f_alpha(2.0)
    commands = []
    for k in range(CLI_INPUT_SETS):
        channel_csv, prior_csv = str(out / f"channel{k}.csv"), str(out / f"prior{k}.csv")
        channel = qifkit.Channel(np.loadtxt(channel_csv, delimiter=",", ndmin=2))
        prior = qifkit.Prior(np.loadtxt(prior_csv, delimiter=",", ndmin=1))
        with_channel = ["--channel", channel_csv]
        commands += [
            (["compute", "bayes-capacity", *with_channel],
             lambda channel=channel: qifkit.bayes_capacity(channel)),
            (["compute", "arimoto-mi", "--alpha", "2", *with_channel, "--prior", prior_csv],
             lambda prior=prior, channel=channel:
                 qifkit.arimoto_mi(qifkit.push(prior, channel), 2.0)),
            (["compute", "renyi-ldp", "--alpha", "2", *with_channel],
             lambda channel=channel: qifkit.renyi_ldp(channel, 2.0)),
            (["compute", "alpha-beta", "--alpha", "2", "--beta", "2", *with_channel,
              "--prior", prior_csv],
             lambda prior=prior, channel=channel:
                 qifkit.alpha_beta_leakage(prior, channel, 2.0, 2.0)),
            (["compute", "mult-f-capacity", "--f", "power:0.5", *with_channel],
             lambda channel=channel: qifkit.multiplicative_f_capacity(channel, f2)),
            (["verify", "axioms", "--instances", str(CLI_AXIOM_INSTANCES),
              "--seed", str(int(inputs["axiom_seed"][k]))], None),
        ]
    return commands


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env.pop("QIFKIT_SEED", None)
    return env


def _cli_ops(inputs: dict, out: Path, root: Path, probe_dir: Path | None) -> list[Op]:
    env = child_env(root)
    ops = []
    for index, (argv, library_call) in enumerate(cli_commands(inputs, out)):
        if probe_dir is None:
            command = [sys.executable, "-c", CLI_LAUNCH, *argv]
        else:
            command = [sys.executable, str(HERE / "cliprobe.py"),
                       str(probe_dir / f"spans{index}.npz"), *argv]

        def call(command=command):
            done = subprocess.run(command, capture_output=True, env=env, cwd=str(out),
                                  timeout=120, check=False)
            return done.returncode, done.stdout, done.stderr

        def check(result, library_call=library_call) -> str | None:
            code, stdout, stderr = result
            if code != 0:
                return f"exit {code}: {stderr.decode(errors='replace')[-300:]}"
            report = json.loads(stdout)
            if library_call is None:
                return None if report.get("all_passed") is True else "verify report failed"
            expected = float(library_call())
            value = report["value"]
            if not isinstance(value, float) or not _close(value, expected, 1e-12):
                return f"report value {value!r} vs library {expected!r}"
            return None

        ops.append(Op(" ".join(argv[:2]), call, check, child=True))
    return ops


def build_round(workload: str, inputs: dict, spec: dict, out: Path, root: Path,
                probe_dir: Path | None = None) -> list[Op]:
    """The fixed op list of one round; ``probe_dir`` switches the cli
    commands to the traced probe, which writes its spans there."""
    if workload == "capacity":
        return _capacity_ops(inputs, spec)
    if workload == "verify":
        return _verify_ops(inputs)
    if workload == "measures":
        return _measure_ops(inputs)
    if workload == "cli":
        return _cli_ops(inputs, out, root, probe_dir)
    raise ValueError(f"unknown workload {workload!r}")
