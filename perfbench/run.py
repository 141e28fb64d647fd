"""qifkit benchmark: one run of one workload.

    python3 perfbench/run.py --workload capacity --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; qifkit is imported from ``src/``.
A run sets up its inputs several times in fresh interpreters, then repeats
whole rounds of the workload's fixed op list until ``--seconds`` have passed
(one process, one client, closed loop).  Outputs are checked against
independent references after the timed phase.

With ``--trace 0`` the last line reports the end-to-end metrics listed in
BENCHMARK.json; with ``--trace 1`` it reports the per-layer metrics, taken
from one traced round after untraced rounds of half the run, and the spans
are written to perfbench/_out/trace-<workload>.npz.  Metric definitions and
the workloads' documentation are in spec.json.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from functools import partial
from pathlib import Path

import numpy as np

from calibrate import REFERENCE_S, HostClock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "_out"
MIN_ROUNDS = 2


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def environment() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in handle
                 if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "pinned_cpu": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"],
    }


def set_up(workload: str, seed: int, out: Path, repeats: int, clock: HostClock) -> float:
    """Run the set-up child ``repeats`` times; the median scaled wall time."""
    from workloads import child_env

    command = [sys.executable, str(HERE / "make_inputs.py"), workload, str(seed), str(out)]
    times = []
    for _ in range(repeats):
        done, seconds = clock.time(
            lambda: subprocess.run(command, env=child_env(ROOT), capture_output=True,
                                   timeout=120, check=False),
            sampled=False)
        times.append(seconds)
        if done.returncode != 0:
            fail(f"set-up failed: {done.stderr.decode(errors='replace')[-2000:]}")
    return statistics.median(times)


class Record:
    """What the run saw.  ``latencies[j]`` holds op j's scaled latency in
    every untraced round; ``executed`` holds (op, result, error) of every op
    run; ``round_seconds`` the scaled time of each untraced round."""

    def __init__(self, ops, clock: HostClock) -> None:
        self.ops = ops
        self.clock = clock
        self.latencies: list[list[float]] = [[] for _ in ops]
        self.executed: list[tuple] = []
        self.round_seconds: list[float] = []
        self.wall_seconds = 0.0

    def run_round(self, ops, tracer=None) -> float:
        """Run ``ops`` once; their summed scaled latency."""
        total = 0.0
        for j, op in enumerate(ops):
            if tracer is None:
                call = op.call
            else:
                tracer.op = len(self.executed)
                call = partial(tracer.span, "bench.op", op.call)
            try:
                result, latency = self.clock.time(call, sampled=not op.child)
                error = None
            except Exception as exc:  # an op that raises is a failed op
                result, error, latency = None, f"{type(exc).__name__}: {exc}", self.clock.elapsed
            total += latency
            if ops is self.ops:
                self.latencies[j].append(latency)
            self.executed.append((op, result, error))
        return total

    def run_for(self, seconds: float) -> None:
        """Whole untraced rounds until ``seconds`` have passed, at least
        MIN_ROUNDS of them."""
        started = time.perf_counter()
        while (len(self.round_seconds) < MIN_ROUNDS
               or time.perf_counter() - started < seconds):
            self.round_seconds.append(self.run_round(self.ops))
        self.wall_seconds = time.perf_counter() - started

    def check(self) -> list[str]:
        """Output checks, after the timed phase; one message per failed op."""
        failures = []
        for op, result, error in self.executed:
            if error is None:
                try:
                    error = op.check(result)
                except Exception as exc:  # a result the check cannot read fails
                    error = f"check raised {type(exc).__name__}: {exc}"
            if error is not None:
                failures.append(f"{op.label}: {error}")
        return failures

    def max_gap(self) -> float | None:
        gaps = [op.gap(result) for op, result, error in self.executed
                if op.gap is not None and error is None]
        return max(gaps) if gaps else None


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def end_to_end(record: Record, setup_s: float) -> tuple[dict, str]:
    """Each op's latency is its median scaled latency over the run's rounds.
    The tail is the highest percentile with ten ops beyond it."""
    op_ms = np.array([statistics.median(samples) for samples in record.latencies]) * 1e3
    ranked = np.sort(op_ms)
    count = ranked.size
    tail_rank = max(count - 11, 0)
    values = {
        "setup_s": setup_s,
        "ops_per_s": sum(op.units for op in record.ops) / (op_ms.sum() / 1e3),
        "op_p50_ms": float(np.median(op_ms)),
        "op_tail_ms": float(ranked[tail_rank]),
        "peak_rss_mb": peak_rss_mb(),
    }
    percentile = 100.0 * tail_rank / max(count - 1, 1)
    note = (f"per-op median of {len(record.round_seconds)} rounds; op_tail_ms is "
            f"p{percentile:.1f} of {count} ops, {count - 1 - tail_rank} beyond it")
    return values, note


def per_layer(names: list[str], table: dict, record: Record, overhead: float,
              scale: float, cli_extra: dict) -> tuple[dict, dict]:
    """Per-layer metrics of the traced round, by the names in BENCHMARK.json.
    Times are multiplied by ``scale``, the round's host-speed factor."""
    from tracing import beneath, self_times

    span_names = [str(n) for n in table["names"]]
    name_id, size = table["name_id"], table["size"]
    duration_us = (table["end"] - table["start"]) / 1e3 * scale
    own = self_times(table) * scale
    layer_of = np.array([n.split(".")[0] for n in span_names] or [""], dtype=object)
    counters = dict(zip((str(c) for c in table["counter_names"]), table["counter_values"]))

    def mask(span: str) -> np.ndarray:
        if span not in span_names:
            return np.zeros(name_id.size, dtype=bool)
        return name_id == span_names.index(span)

    values, missing = {}, {}
    for name in names:
        parts = name.split(".")
        if name == "trace.overhead_frac":
            value = overhead
        elif name == "trace.spans":
            value = float(name_id.size)
        elif name == "core.Hyper.rows":
            value = float(size[mask("core.Hyper")].sum())
        elif name == "capacity.objective_calls":
            in_alpha = layer_of[name_id] == "alpha" if name_id.size else np.zeros(0, bool)
            parent = table["parent"]
            parent_alpha = np.where(parent >= 0, in_alpha[np.maximum(parent, 0)], False)
            value = float((in_alpha & ~parent_alpha & beneath(table, "capacity.sup_over_prior")).sum())
        elif name in ("capacity.reported_evaluations", "verify.instances_checked"):
            value = float(counters.get(name, 0.0))
        elif name == "capacity.gap_nats":
            gap = record.max_gap()
            value = 0.0 if gap is None else gap
            if gap is None:
                missing[name] = "no maximal_alpha_leakage search on this workload"
        elif name in cli_extra:
            value = cli_extra[name]
            if value is None:
                value = 0.0
                missing[name] = "no qifkit command runs on this workload"
        elif parts[-1] == "self_s":
            value = float(own[layer_of[name_id] == parts[0]].sum()) if name_id.size else 0.0
        elif parts[-1] == "calls":
            value = float(mask(".".join(parts[:-1])).sum())
        elif "us_per_call" in parts:
            at = parts.index("us_per_call")
            chosen = mask(".".join(parts[:at]))
            if at + 1 < len(parts):
                chosen &= size == int(parts[at + 1][1:])
            value = float(duration_us[chosen].mean()) if chosen.any() else 0.0
            if not chosen.any():
                missing[name] = "no such call on this workload"
        else:
            raise KeyError(f"no rule for per-layer metric {name}")
        values[name] = value
    return values, missing


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "qifkit" / "__init__.py").is_file():
        fail(f"no qifkit sources under {ROOT / 'src'}")
    spec = json.loads((HERE / "spec.json").read_text())
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in spec["workloads"]:
        fail(f"unknown workload {args.workload!r}")
    sys.path.insert(0, str(ROOT / "src"))
    # One CPU for the run and its children, so that the calibration kernel
    # and the child processes it scales run on the same core.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    out = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    out.mkdir(parents=True, exist_ok=True)
    try:
        clock = HostClock()
        setup_s = set_up(args.workload, args.seed, out, spec["setup_repeats"], clock)
        import qifkit
        from workloads import build_round, load_inputs

        if not Path(qifkit.__file__).resolve().is_relative_to(ROOT / "src"):
            fail(f"qifkit was imported from {qifkit.__file__}, not from this checkout")
        inputs = load_inputs(out)
        ops = build_round(args.workload, inputs, spec, out, ROOT)
        record = Record(ops, clock)
        lines = [f"qifkit benchmark: workload={args.workload} seed={args.seed} "
                 f"seconds={args.seconds:g} trace={args.trace}",
                 "environment: " + json.dumps(environment())]
        if args.trace == 0:
            record.run_for(args.seconds)
            values, tail_note = end_to_end(record, setup_s)
            listed, missing = bench["end_to_end"], {}
            lines.append(f"timed: {len(record.round_seconds)} rounds of {len(ops)} ops "
                         f"in {record.wall_seconds:.2f} s; {tail_note}")
        else:
            record.run_for(args.seconds / 2)
            values, missing = traced_round(args.workload, inputs, spec, out, record, bench)
            listed = bench["per_layer"]
        failures = record.check()
        attempted = len(record.executed)
        gap = record.max_gap()
        lines.append(f"failed_frac: {len(failures) / attempted:g} "
                     f"({len(failures)} of {attempted} ops)")
        lines += [f"  failed {message}" for message in failures[:10]]
        if gap is not None:
            lines.append(f"capacity_gap_nats: {gap:.6g} (largest dual-bound gap over the "
                         "run's maximal_alpha_leakage searches)")
        lines += [f"  missing {name}: {reason}" for name, reason in missing.items()]
        metrics = {}
        for entry in listed:
            value = float(values[entry["name"]])
            metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
            lines.append(f"{entry['name']:<58} {value:>14.6g} {entry['unit']}")
        print("\n".join(lines))
        print(json.dumps({"correct": not failures, "attempted": attempted,
                          "failed": len(failures), "metrics": metrics}))
    finally:
        shutil.rmtree(out, ignore_errors=True)


def traced_round(workload, inputs, spec, out, record, bench):
    """Run one traced round, write its spans and compute the per-layer
    metrics.  The cli round runs its commands through cliprobe.py."""
    from tracing import Tracer, load_table, merge_tables
    from workloads import build_round

    first_op = len(record.executed)
    first_sample = len(record.clock.samples)
    cli_extra = {"cli.import_ms": None, "cli.main_ms": None, "cli.report_bytes": None}
    if workload == "cli":
        probe_ops = build_round(workload, inputs, spec, out, ROOT, probe_dir=out)
        traced_s = record.run_round(probe_ops)
        tables, imports = [], []
        for index in range(len(probe_ops)):
            table = load_table(out / f"spans{index}.npz")
            imports.append(float(table.pop("import_ms")))
            table["op_id"] = np.full_like(table["op_id"], first_op + index)
            tables.append(table)
        table = merge_tables(tables)
        reports = [len(result[1]) for _, result, _ in record.executed[first_op:] if result]
        main_spans = [str(n) for n in table["names"]].index("cli.main")
        main_ms = (table["end"] - table["start"])[table["name_id"] == main_spans] / 1e6
        cli_extra = {"cli.import_ms": statistics.median(imports),
                     "cli.main_ms": float(np.median(main_ms)),
                     "cli.report_bytes": float(np.mean(reports))}
    else:
        ops = build_round(workload, inputs, spec, out, ROOT)
        tracer = Tracer()
        tracer.install()
        try:
            traced_s = record.run_round(ops, tracer)
        finally:
            tracer.uninstall()
        table = tracer.table()
    overhead = traced_s / statistics.median(record.round_seconds) - 1.0
    scale = REFERENCE_S / statistics.median(record.clock.samples[first_sample:])
    for name in ("cli.import_ms", "cli.main_ms"):
        if cli_extra[name] is not None:
            cli_extra[name] *= scale
    OUT.mkdir(exist_ok=True)
    np.savez(OUT / f"trace-{workload}.npz", **table)
    names = [entry["name"] for entry in bench["per_layer"]]
    return per_layer(names, table, record, overhead, scale, cli_extra)


if __name__ == "__main__":
    main()
