"""Span tracing installed from outside the library.

``Tracer.install`` replaces every public function of each qifkit layer, in
every qifkit module that binds it (so ``from .alpha import arimoto_mi`` in
``verify`` is wrapped too), plus ``Prior.__init__`` and ``Hyper.__init__``.
Nothing under ``src/`` is edited.  Each call records one span: name id,
start and end (``perf_counter_ns``), parent span index, op id and an input
size.  Spans stay in flat arrays until ``dump`` writes them out.

The mean functions stored on ``FMeanSpec`` objects are closures, not module
attributes, so their time is part of the calling span's self time.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = (
    "core", "gains", "fmeans", "simplex", "alpha",
    "vulnerability", "capacity", "verify", "cli",
)


class Tracer:
    """Collects spans of one process.  ``op`` is set by the harness before
    each op so that every span carries the op that caused it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("h")
        self.parent = array("i")
        self.op_id = array("i")
        self.size = array("i")
        self.start = array("q")
        self.end = array("q")
        self.counters: dict[str, float] = {}
        self.op = -1
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int, size: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.op_id.append(self.op)
        self.size.append(size)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def span(self, name: str, fn, *args):
        """Call ``fn(*args)`` inside a span; the harness uses it per op."""
        idx = self._open(self._id(name), 0)
        try:
            return fn(*args)
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn, sizer, on_result=None):
        nid = self._id(name)
        opener, closer = self._open, self._close

        def wrapper(*args, **kwargs):
            idx = opener(nid, sizer(args))
            try:
                result = fn(*args, **kwargs)
            finally:
                closer(idx)
            if on_result is not None:
                on_result(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every layer's public functions where its callers bind them."""
        import qifkit.core as core
        import qifkit.verify as verify_mod

        modules = {layer: importlib.import_module(f"qifkit.{layer}") for layer in LAYERS}
        prior_t, hyper_t, channel_t = core.Prior, core.Hyper, core.Channel

        def input_size(args) -> int:
            if not args:
                return 0
            first = args[0]
            kind = type(first)
            if kind is prior_t:
                return first.probs.size
            if kind is hyper_t:
                return first.inners.shape[1]
            if kind is channel_t:
                return first.matrix.shape[0]
            return 0

        def init_size(args) -> int:
            return len(args[1]) if len(args) > 1 else 0

        def add(counter: str, amount: float) -> None:
            self.counters[counter] = self.counters.get(counter, 0) + amount

        def on_search(result) -> None:
            add("capacity.reported_evaluations", result[2]["evaluations"])

        def on_verification(result) -> None:
            results = result if isinstance(result, list) else [result]
            checked = [r.instances_checked for r in results
                       if isinstance(r, verify_mod.VerificationResult)]
            if checked:
                add("verify.instances_checked", max(checked))

        hooks = {"capacity.sup_over_prior": on_search}
        for fname in ("run_axiom_suite", "verify_dual_formulas", "verify_maximal_equals_capacity"):
            hooks[f"verify.{fname}"] = on_verification

        replacements: dict[int, object] = {}
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__):
                    continue
                name = f"{layer}.{attr}"
                replacements[id(obj)] = self._wrap(name, obj, input_size, hooks.get(name))
        for cls in (prior_t, hyper_t):
            self._patch(cls, "__init__",
                        self._wrap(f"core.{cls.__name__}", cls.__init__, init_size))
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "qifkit" or mod_name.startswith("qifkit.")):
                continue
            for attr, obj in list(vars(module).items()):
                wrapped = replacements.get(id(obj))
                if wrapped is not None:
                    self._patch(module, attr, wrapped)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def table(self) -> dict:
        """The spans as numpy arrays, ready to analyse or to save."""
        return {
            "names": np.array(self.names, dtype=str),
            "name_id": np.frombuffer(self.name_id, dtype=np.int16).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op_id": np.frombuffer(self.op_id, dtype=np.int32).copy(),
            "size": np.frombuffer(self.size, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end": np.frombuffer(self.end, dtype=np.int64).copy(),
            "counter_names": np.array(list(self.counters), dtype=str),
            "counter_values": np.array(list(self.counters.values()), dtype=float),
        }

    def dump(self, path, **extra) -> None:
        np.savez(path, **self.table(), **extra)


def load_table(path) -> dict:
    with np.load(path) as data:
        return {key: data[key] for key in data.files}


def merge_tables(tables: list[dict]) -> dict:
    """Concatenate span tables of several processes into one, remapping
    name ids and parent indices; counters are summed."""
    names: list[str] = []
    ids: dict[str, int] = {}
    parts = {key: [] for key in ("name_id", "parent", "op_id", "size", "start", "end")}
    counters: dict[str, float] = {}
    offset = 0
    for table in tables:
        remap = np.array(
            [ids.setdefault(str(n), len(ids)) for n in table["names"]], dtype=np.int16
        )
        names = list(ids)
        count = table["start"].size
        parts["name_id"].append(remap[table["name_id"]] if count else table["name_id"])
        parent = table["parent"].astype(np.int64)
        parts["parent"].append(np.where(parent >= 0, parent + offset, -1))
        for key in ("op_id", "size", "start", "end"):
            parts[key].append(table[key])
        for cname, value in zip(table["counter_names"], table["counter_values"]):
            counters[str(cname)] = counters.get(str(cname), 0.0) + float(value)
        offset += count
    merged = {key: np.concatenate(val) if val else np.zeros(0, np.int64)
              for key, val in parts.items()}
    merged["names"] = np.array(names, dtype=str)
    merged["counter_names"] = np.array(list(counters), dtype=str)
    merged["counter_values"] = np.array(list(counters.values()), dtype=float)
    return merged


def self_times(table: dict) -> np.ndarray:
    """Seconds of each span not covered by its child spans.  Spans of one
    process nest and never overlap, so the covered part is the sum of the
    children's durations."""
    duration = (table["end"] - table["start"]) / 1e9
    parent = table["parent"]
    has_parent = parent >= 0
    covered = np.bincount(
        parent[has_parent], weights=duration[has_parent], minlength=duration.size
    )
    return duration - covered


def beneath(table: dict, ancestor: str) -> np.ndarray:
    """Mask of spans that have a span named ``ancestor`` above them."""
    names = [str(n) for n in table["names"]]
    parent = table["parent"]
    if ancestor not in names:
        return np.zeros(parent.size, dtype=bool)
    is_anc = table["name_id"] == names.index(ancestor)
    has_parent = parent >= 0
    safe_parent = np.where(has_parent, parent, 0)
    inside = np.zeros(parent.size, dtype=bool)
    while True:
        reach = is_anc | inside
        updated = has_parent & reach[safe_parent]
        if np.array_equal(updated, inside):
            return inside
        inside = updated
