"""Per-layer spans for the traced benchmark run, recorded from outside the
program.

The child side (``Tracer``) replaces the public functions of each ``fbound``
module with wrappers that record a span per call: name, start, end, parent
span and depth, plus a count of the work the call did where one is cheap to
read off its arguments or result.  Spans stay in flat arrays in memory and
are written once, when the command ends.  Every module of the package that
holds a reference to a wrapped function gets the wrapper, so a call is
recorded whichever name the caller resolves it through.

The parent side (``SpanTable`` and ``layer_metrics``) turns the spans of one
workload into the per-layer metrics.  A span's self time is its duration
minus the durations of its direct children; a group's busy time is the
summed duration of its spans that have no ancestor in the same group.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from array import array
from dataclasses import dataclass
from time import perf_counter

import numpy as np

LAYERS = ("cli", "channel_model", "info_measures", "bound_engine", "drift_verify", "vlc_sim")
IMPORT_SPAN = "cli.import"

# Wrapped besides each module's ``__all__`` functions.
EXTRA_TARGETS = {
    "channel_model": ("StoppingRule.dominates",),
    "vlc_sim": ("_simulate_fast_dmc", "_simulate_generic"),
}

VERIFY_CHECKS = (
    "verify_linear_drift", "verify_log_drift", "verify_submartingale_L",
    "verify_fano", "verify_lemma4_budget", "verify_lemma5_kl_transfer",
    "verify_lemma7", "verify_entropy_proposition", "verify_maximal_inequality",
)


def _trials(args, kwargs, result):
    return kwargs["trials"] if "trials" in kwargs else args[2]


# Work counted per span, read off (args, kwargs, result).
COUNTERS = {
    "channel_model.forward_joint": lambda a, k, r: len(r.trajectories),
    "bound_engine.exponent_candidates": lambda a, k, r: len(r[0]),
    "vlc_sim._simulate_fast_dmc": _trials,
    "vlc_sim._simulate_generic": _trials,
    "vlc_sim.exact_stats": lambda a, k, r: r.leaves,
    **{f"drift_verify.{c}": (lambda a, k, r: r.count) for c in VERIFY_CHECKS},
}


# ---------------------------------------------------------------------------
# recording (runs inside the traced command's process)
# ---------------------------------------------------------------------------


class Tracer:
    """Span store and function wrapper for one process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.depth = array("i")
        self.start = array("d")
        self.end = array("d")
        self.value = array("d")
        self._stack = [-1]

    def _name(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add_span(self, name: str, start: float, end: float) -> None:
        """Record a finished span under the current one."""
        self.name_id.append(self._name(name))
        self.parent.append(self._stack[-1])
        self.depth.append(len(self._stack) - 1)
        self.start.append(start)
        self.end.append(end)
        self.value.append(0.0)

    def wrap(self, name: str, fn, counter=None):
        nid = self._name(name)
        stack, starts, ends, values = self._stack, self.start, self.end, self.value
        name_ids, parents, depths = self.name_id, self.parent, self.depth

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            depths.append(len(stack) - 1)
            ends.append(0.0)
            values.append(0.0)
            stack.append(i)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                stack.pop()
            if counter is not None:
                values[i] = counter(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap the layer functions of the imported ``fbound`` package and
        rebind every module-level name that refers to one."""
        package = {n: m for n, m in sys.modules.items() if n == "fbound" or n.startswith("fbound.")}
        wrappers: dict[int, object] = {}  # id(original) -> wrapper
        for layer in LAYERS:
            mod = package[f"fbound.{layer}"]
            for attr in tuple(getattr(mod, "__all__", ())) + EXTRA_TARGETS.get(layer, ()):
                owner_name, _, fn_name = attr.rpartition(".")
                owner = getattr(mod, owner_name) if owner_name else mod
                fn = getattr(owner, fn_name)
                if not inspect.isfunction(fn) or inspect.isgeneratorfunction(fn):
                    continue
                name = f"{layer}.{attr}"
                wrapper = self.wrap(name, fn, COUNTERS.get(name))
                if owner_name:
                    setattr(owner, fn_name, wrapper)
                else:
                    wrappers[id(fn)] = wrapper
        for mod in package.values():
            for attr, val in list(vars(mod).items()):
                wrapper = wrappers.get(id(val))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)

    def dump(self, path: str, workload: str, command: str) -> None:
        np.savez(
            path,
            names=np.array(json.dumps(self.names)),
            workload=np.array(workload),
            command=np.array(command),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            depth=np.frombuffer(self.depth, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            value=np.frombuffer(self.value, dtype=np.float64),
        )


# ---------------------------------------------------------------------------
# aggregation (runs in the benchmark process)
# ---------------------------------------------------------------------------


@dataclass
class SpanTable:
    """Spans of one or more commands; ``parent`` indexes into the table and
    is -1 at a root."""

    names: list[str]
    name_id: np.ndarray
    parent: np.ndarray
    depth: np.ndarray
    start: np.ndarray
    end: np.ndarray
    value: np.ndarray

    @classmethod
    def load(cls, path: str) -> "SpanTable":
        with np.load(path, allow_pickle=False) as z:
            return cls(
                names=json.loads(str(z["names"])),
                **{k: z[k].copy() for k in ("name_id", "parent", "depth", "start", "end", "value")},
            )

    @classmethod
    def concat(cls, tables: list["SpanTable"]) -> "SpanTable":
        ids: dict[str, int] = {}
        name_id, parent = [], []
        offset = 0
        for t in tables:
            remap = np.array([ids.setdefault(n, len(ids)) for n in t.names] or [0], dtype=np.int32)
            name_id.append(remap[t.name_id])
            parent.append(np.where(t.parent >= 0, t.parent + offset, -1))
            offset += len(t.name_id)

        def cat(arrays, dtype):
            return np.concatenate(arrays).astype(dtype) if arrays else np.zeros(0, dtype)

        return cls(
            names=list(ids),
            name_id=cat(name_id, np.int32),
            parent=cat(parent, np.int32),
            depth=cat([t.depth for t in tables], np.int32),
            start=cat([t.start for t in tables], np.float64),
            end=cat([t.end for t in tables], np.float64),
            value=cat([t.value for t in tables], np.float64),
        )

    @property
    def duration(self) -> np.ndarray:
        return self.end - self.start

    def self_time(self) -> np.ndarray:
        """Duration minus the summed durations of direct children."""
        dur = self.duration
        has_parent = self.parent >= 0
        covered = np.bincount(self.parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        return dur - covered

    def mask(self, names) -> np.ndarray:
        names = set(names)
        wanted = np.array([n in names for n in self.names], dtype=bool)
        return wanted[self.name_id] if len(self.name_id) else np.zeros(0, dtype=bool)

    def prefix_mask(self, prefix: str, exclude=()) -> np.ndarray:
        return self.mask([n for n in self.names if n.startswith(prefix) and n not in exclude])

    def outermost(self, member: np.ndarray) -> np.ndarray:
        """Members with no ancestor that is also a member."""
        inside = np.zeros(len(member), dtype=bool)  # some proper ancestor is a member
        for d in range(1, int(self.depth.max(initial=0)) + 1):
            idx = np.flatnonzero(self.depth == d)
            par = self.parent[idx]
            ok = par >= 0
            inside[idx[ok]] = member[par[ok]] | inside[par[ok]]
        return member & ~inside

    def busy(self, names) -> float:
        return float(self.duration[self.outermost(self.mask(names))].sum())

    def calls(self, names) -> int:
        return int(self.mask(names).sum())

    def work(self, names) -> float:
        """Summed counter values of the outermost spans of the group."""
        return float(self.value[self.outermost(self.mask(names))].sum())

    def self_sum(self, member: np.ndarray) -> float:
        return float(self.self_time()[member].sum())


def _per_s(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0 else 0.0


STOPPING = ("channel_model.enumerate_stopping_rules", "channel_model.StoppingRule.dominates")
STOPPED = ("info_measures.directed_mi_stopped", "info_measures.expected_stop_time",
           "info_measures.directed_kl_stopped")
DRIFT = ("info_measures.h_process", "info_measures.drift_terms")
FORWARD = ("channel_model.forward_joint",)
SIM_DMC = ("vlc_sim._simulate_fast_dmc",)
SIM_STATE = ("vlc_sim._simulate_generic",)
EXACT = ("vlc_sim.exact_stats",)
CHECKS = tuple(f"drift_verify.{c}" for c in VERIFY_CHECKS)

# (metric name, unit, better) for every per-layer metric, in report order.
PER_LAYER = (
    ("cli.import_s", "s", "lower"),
    *((f"{layer}.self_s", "s", "lower") for layer in LAYERS),
    ("channel_model.forward_joint.calls", "count", "lower"),
    ("channel_model.forward_joint.busy_s", "s", "lower"),
    ("channel_model.forward_joint.trajectories", "count", "lower"),
    ("channel_model.stopping_rules.busy_s", "s", "lower"),
    ("info_measures.kl.calls", "count", "lower"),
    ("info_measures.kl.busy_s", "s", "lower"),
    ("info_measures.mutual_information.calls", "count", "lower"),
    ("info_measures.mutual_information.busy_s", "s", "lower"),
    ("info_measures.stopped.calls", "count", "lower"),
    ("info_measures.stopped.busy_s", "s", "lower"),
    ("info_measures.drift.busy_s", "s", "lower"),
    ("bound_engine.exponent_candidates.self_s", "s", "lower"),
    ("bound_engine.candidates", "count", "lower"),
    ("bound_engine.capacity_bound.self_s", "s", "lower"),
    *((f"drift_verify.{c}.busy_s", "s", "lower") for c in VERIFY_CHECKS),
    ("drift_verify.cases", "count", "higher"),
    ("vlc_sim.simulate_dmc.busy_s", "s", "lower"),
    ("vlc_sim.simulate_dmc.trials_per_s", "1/s", "higher"),
    ("vlc_sim.simulate_state.busy_s", "s", "lower"),
    ("vlc_sim.simulate_state.trials_per_s", "1/s", "higher"),
    ("vlc_sim.exact_stats.busy_s", "s", "lower"),
    ("vlc_sim.exact_stats.leaves", "count", "higher"),
    ("vlc_sim.exact_stats.leaves_per_s", "1/s", "higher"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
)


def layer_metrics(spans: SpanTable, overhead_frac: float) -> dict[str, float]:
    """Every ``PER_LAYER`` metric from the spans of one workload."""
    t = spans
    out: dict[str, float] = {"cli.import_s": t.busy([IMPORT_SPAN])}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = t.self_sum(t.prefix_mask(layer + ".", exclude=(IMPORT_SPAN,)))
    out["channel_model.forward_joint.calls"] = t.calls(FORWARD)
    out["channel_model.forward_joint.busy_s"] = t.busy(FORWARD)
    out["channel_model.forward_joint.trajectories"] = t.work(FORWARD)
    out["channel_model.stopping_rules.busy_s"] = t.busy(STOPPING)
    for fn in ("kl", "mutual_information"):
        out[f"info_measures.{fn}.calls"] = t.calls([f"info_measures.{fn}"])
        out[f"info_measures.{fn}.busy_s"] = t.busy([f"info_measures.{fn}"])
    out["info_measures.stopped.calls"] = t.calls(STOPPED)
    out["info_measures.stopped.busy_s"] = t.busy(STOPPED)
    out["info_measures.drift.busy_s"] = t.busy(DRIFT)
    out["bound_engine.exponent_candidates.self_s"] = t.self_sum(t.mask(["bound_engine.exponent_candidates"]))
    out["bound_engine.candidates"] = t.work(["bound_engine.exponent_candidates"])
    out["bound_engine.capacity_bound.self_s"] = t.self_sum(t.mask(["bound_engine.capacity_bound"]))
    for name in CHECKS:
        out[f"{name}.busy_s"] = t.busy([name])
    out["drift_verify.cases"] = t.work(CHECKS)
    for key, names in (("simulate_dmc", SIM_DMC), ("simulate_state", SIM_STATE)):
        busy = t.busy(names)
        out[f"vlc_sim.{key}.busy_s"] = busy
        out[f"vlc_sim.{key}.trials_per_s"] = _per_s(t.work(names), busy)
    busy = t.busy(EXACT)
    out["vlc_sim.exact_stats.busy_s"] = busy
    out["vlc_sim.exact_stats.leaves"] = t.work(EXACT)
    out["vlc_sim.exact_stats.leaves_per_s"] = _per_s(t.work(EXACT), busy)
    out["trace.spans"] = len(t.name_id)
    out["trace.overhead_frac"] = overhead_frac
    return {name: int(round(out[name])) if unit == "count" else out[name] for name, unit, _ in PER_LAYER}


def dominant_layer(metrics: dict[str, float]) -> tuple[str, float]:
    """The layer with the largest self time, with its share of all layers'."""
    selfs = {layer: metrics[f"{layer}.self_s"] for layer in LAYERS}
    total = sum(selfs.values())
    top = max(selfs, key=selfs.get)
    return top, (selfs[top] / total if total > 0 else 0.0)
