"""Entropy, divergence, directed information, and entropy-drift terms.

Everything is in bits.  Conventions pinned here and relied on everywhere:
0 log 0 = 0; KL with support mismatch is +inf (a distinct value, never
silently clipped); most-likely-element ties resolve to the lowest index;
probability-zero histories are pruned before any conditional quantity is
formed.

Stopped quantities are reductions over one per-law node table
(``node_table``): for every realizable (t, y^{t-1}), in ``xy_node`` order,
its output-tree index and the weighted terms p(y^{t-1}) I(X_t; Y_t | y^{t-1})
and p(y^{t-1}) times the worst-row divergence, plus the index and
probability of every full output path.  A stopping rule enters as its
stopped mask and stop-time table (see ``StoppingRule``), so many rules, or
many rule pairs, of one law are evaluated in a single array pass.  Every
sum runs left to right from 0.0 in the order of the per-history loop it
replaces, and masked-out terms add an exact 0.0, so the results are
bit-identical to that loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .channel_model import (
    Channel,
    DistributionError,
    JointLaw,
    LogRatioUnboundedError,
    SchemaError,
    StoppingRule,
    _hist_index,
    _level_offsets,
)

__all__ = [
    "entropy",
    "kl",
    "binary_entropy",
    "binary_entropy_inv",
    "mutual_information",
    "directed_mi_fixed",
    "directed_mi_stopped",
    "expected_stop_time",
    "directed_kl",
    "directed_kl_stopped",
    "EntropyProcess",
    "h_process",
    "DriftTerms",
    "drift_terms",
    "message_information",
]

_NORM_TOL = 1e-10


def _as_dist(p, what: str) -> np.ndarray:
    arr = np.asarray(p, dtype=float)
    if arr.ndim != 1:
        raise DistributionError(f"{what} must be a vector")
    if np.any(arr < 0):
        raise DistributionError(f"{what} has a negative entry")
    if abs(float(arr.sum()) - 1.0) > _NORM_TOL:
        raise DistributionError(f"{what} is not normalized")
    return arr


def entropy(p) -> float:
    """Shannon entropy in bits, with 0 log 0 = 0."""
    arr = _as_dist(p, "entropy input")
    pos = arr[arr > 0.0]
    return float(-(pos * np.log2(pos)).sum())


def kl(p, q) -> float:
    """Relative entropy D(p || q) in bits; +inf when p puts mass where q
    does not."""
    pa = _as_dist(p, "kl first argument")
    qa = _as_dist(q, "kl second argument")
    if pa.shape != qa.shape:
        raise DistributionError("kl arguments must have the same length")
    mask = pa > 0.0
    if np.any(qa[mask] == 0.0):
        return float("inf")
    return float((pa[mask] * np.log2(pa[mask] / qa[mask])).sum())


def binary_entropy(p: float) -> float:
    """h(p) in bits for p in [0, 1]."""
    if not 0.0 <= p <= 1.0:
        raise DistributionError(f"binary entropy argument {p!r} outside [0, 1]")
    if p == 0.0 or p == 1.0:
        return 0.0
    return float(-p * np.log2(p) - (1 - p) * np.log2(1 - p))


def binary_entropy_inv(v: float, tol: float = 1e-12) -> float:
    """Lower inverse of the binary entropy: the p in [0, 1/2] with h(p) = v.

    Bisection to absolute tolerance ``tol``.
    """
    if not 0.0 <= v <= 1.0:
        raise DistributionError(f"binary entropy inverse argument {v!r} outside [0, 1]")
    if v == 0.0:
        return 0.0
    if v == 1.0:
        return 0.5
    lo, hi = 0.0, 0.5
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if binary_entropy(mid) < v:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def mutual_information(joint: np.ndarray) -> float:
    """I(A;B) in bits from a joint table P(a, b)."""
    j = np.asarray(joint, dtype=float)
    pa = j.sum(axis=1)
    pb = j.sum(axis=0)
    total = 0.0
    for a in range(j.shape[0]):
        for b in range(j.shape[1]):
            v = j[a, b]
            if v > 0.0:
                total += v * np.log2(v / (pa[a] * pb[b]))
    return float(total)


# ---------------------------------------------------------------------------
# directed information
# ---------------------------------------------------------------------------


def directed_mi_fixed(law: JointLaw, n: int) -> float:
    """Directed information from inputs to outputs over the first n steps:
    the sum over i of I(X_i; Y_i | Y^{i-1}), each conditional term averaged
    over realizable output histories."""
    if not 0 <= n <= law.horizon:
        raise SchemaError(f"n={n} outside 0..{law.horizon}")
    table = node_table(law)
    return float(ordered_sum(np.where(table.level < n, table.mi, 0.0)))


def step_mi(law: JointLaw, t: int, prev: tuple[int, ...]) -> float:
    """I(X_t; Y_t | Y^{t-1} = prev) in bits."""
    return mutual_information(law.xy_node[t][prev])


# ---------------------------------------------------------------------------
# per-law node table and stopped sums
# ---------------------------------------------------------------------------


class NodeTable:
    """Per-history terms of one law, one entry per realizable (t, y^{t-1})
    with t = 1..N, in ``xy_node`` order (level by level, dict order within a
    level).

    - keys: the (t, y^{t-1}) of each entry
    - node: flat output-tree index of y^{t-1} (``_level_offsets`` layout,
      the layout of ``StoppingRule.stopped_nodes``)
    - level: t - 1
    - prob: p(y^{t-1})
    - node_mi: I(X_t; Y_t | y^{t-1}); mi = prob * node_mi
    - node_kl: max_x D(row(x*) || row(x)) of the effective channel;
      kl = prob * node_kl; both built on first use
    - leaf, leaf_prob: ``_hist_index`` and probability of every full output
      path y^N, in ``node_prob[N]`` order
    """

    def __init__(self, law: JointLaw) -> None:
        y = law.channel.spec.y_size
        offsets = _level_offsets(y, law.horizon)
        keys, prob, self._xy = [], [], []
        for t in range(1, law.horizon + 1):
            for prev, xy in law.xy_node[t].items():
                keys.append((t, prev))
                prob.append(law.node_prob[t - 1][prev])
                self._xy.append(xy)
        self.keys = keys
        self.node = np.array(
            [offsets[t - 1] + _hist_index(prev, y) for t, prev in keys], dtype=np.int64
        )
        self.level = np.array([t - 1 for t, _ in keys], dtype=np.int64)
        self.prob = np.array(prob, dtype=float)
        self.node_mi = np.array([mutual_information(xy) for xy in self._xy], dtype=float)
        self.mi = self.prob * self.node_mi
        paths = law.node_prob[law.horizon]
        self.leaf = np.array([_hist_index(path, y) for path in paths], dtype=np.int64)
        self.leaf_prob = np.array(list(paths.values()), dtype=float)

    @cached_property
    def node_kl(self) -> np.ndarray:
        return np.array([_worst_row_kl(xy) for xy in self._xy], dtype=float)

    @cached_property
    def kl(self) -> np.ndarray:
        return self.prob * self.node_kl


def node_table(law: JointLaw) -> NodeTable:
    """The law's node table, built once and kept with the law."""
    table = law.__dict__.get("_node_table")
    if table is None:
        table = NodeTable(law)
        object.__setattr__(law, "_node_table", table)
    return table


def ordered_sum(terms: np.ndarray) -> np.ndarray:
    """Sums along the last axis, left to right from 0.0: the order and
    rounding of a ``total = 0.0; total += term`` loop."""
    start = np.zeros(terms.shape[:-1] + (1,))
    return np.cumsum(np.concatenate((start, terms), axis=-1), axis=-1)[..., -1]


def rule_stack(rules, horizon: int) -> tuple[np.ndarray, np.ndarray]:
    """Stacked ``StoppingRule.tables_at(horizon)`` of a rule list:
    (rules x output-tree nodes stopped mask, rules x full-path stop times)."""
    tables = [rule.tables_at(horizon) for rule in rules]
    return np.stack([s for s, _ in tables]), np.stack([t for _, t in tables])


def stopped_values(
    law: JointLaw, stopped: np.ndarray, times: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(E[T], stopped directed information) of every rule of a
    ``rule_stack`` at the law's horizon."""
    table = node_table(law)
    et = ordered_sum(table.leaf_prob * times[:, table.leaf])
    mi = ordered_sum(np.where(stopped[:, table.node], 0.0, table.mi))
    return et, mi


def window_divergence(
    law: JointLaw, stopped: np.ndarray, first: np.ndarray, last: np.ndarray
) -> np.ndarray:
    """Stopped divergence over the window (T1, T] of each pair of rows
    (first[k], last[k]) of a ``rule_stack`` mask."""
    table = node_table(law)
    at_nodes = stopped[:, table.node]
    live = at_nodes[first] & ~at_nodes[last]
    return ordered_sum(np.where(live, table.kl, 0.0))


def directed_mi_stopped(law: JointLaw, rule: StoppingRule) -> float:
    """E[sum_{t<=T} I(X_t; Y_t | Y^{t-1})] for a stopping time T on the
    output filtration: per-history conditional information is accumulated
    over histories at which transmission is still live."""
    if rule.horizon > law.horizon:
        raise SchemaError("stopping rule runs past the law horizon")
    _, mi = stopped_values(law, *rule_stack([rule], law.horizon))
    return float(mi[0])


def expected_stop_time(law: JointLaw, rule: StoppingRule) -> float:
    """E[T] under the law's output-path distribution."""
    stopped, times = rule_stack([rule], law.horizon)
    late = np.flatnonzero(times[0, node_table(law).leaf] > law.horizon)
    if late.size:
        path = list(law.node_prob[law.horizon])[late[0]]
        raise SchemaError(f"path {path} has no stopped prefix")
    et, _ = stopped_values(law, stopped, times)
    return float(et[0])


def message_information(law: JointLaw, n: int) -> float:
    """I(W; Y^n) in bits for a message-form law."""
    h0 = entropy(law.w_post[0][()])
    hn = 0.0
    for node, mu in law.w_post[n].items():
        hn += law.node_prob[n][node] * entropy(mu)
    return h0 - hn


# ---------------------------------------------------------------------------
# directed KL of the effective channel
# ---------------------------------------------------------------------------


def _effective_rows(xy: np.ndarray):
    """Realizable effective-channel rows of a joint P(X_t, Y_t | y^{t-1})
    plus the most likely input there.  Returns (map_input, {x: row}) or
    None when degenerate."""
    nu = xy.sum(axis=1)
    realizable = np.flatnonzero(nu > 0.0)
    if realizable.size == 0:
        return None
    x_star = int(realizable[np.argmax(nu[realizable])])
    rows = {int(x): xy[x] / nu[x] for x in realizable}
    return x_star, rows


def _worst_row_kl(xy: np.ndarray) -> float:
    """max_x D(row(x*) || row(x)) over the realizable inputs of a joint."""
    got = _effective_rows(xy)
    if got is None:
        return 0.0
    x_star, rows = got
    base = rows[x_star]
    return max(kl(base, row) for row in rows.values())


def directed_kl(law: JointLaw, a: int, b: int, variant: str = "per_history_max") -> float:
    """Directed relative entropy of the effective channel over steps a..b.

    Each step compares the output law of the currently most likely input
    against the worst alternative input. Two maximization orders are
    supported:

    - "per_history_max": the max over inputs is taken inside the per-history
      expectation (the form the drift analysis actually accumulates);
    - "global_symbol_max": the max over entire input sequences is taken
      outside the expectations.  Since the step terms depend on one
      coordinate each, that max separates into a per-step max of the averaged
      divergence.

    per_history_max >= global_symbol_max always.  The value is +inf when some
    divergence diverges (support mismatch); that is reported, not clipped.
    """
    if not 1 <= a <= b <= law.horizon:
        raise SchemaError(f"window {a}..{b} outside 1..{law.horizon}")
    if variant == "per_history_max":
        table = node_table(law)
        window = (table.level >= a - 1) & (table.level < b)
        return float(ordered_sum(np.where(window, table.kl, 0.0)))
    if variant == "global_symbol_max":
        total = 0.0
        for t in range(a, b + 1):
            per_x: dict[int, float] = {}
            for prev, xy in law.xy_node[t].items():
                got = _effective_rows(xy)
                if got is None:
                    continue
                x_star, rows = got
                base = rows[x_star]
                w = law.node_prob[t - 1][prev]
                for x, row in rows.items():
                    per_x[x] = per_x.get(x, 0.0) + w * kl(base, row)
            total += max(per_x.values()) if per_x else 0.0
        return total
    raise SchemaError(f"unknown directed_kl variant {variant!r}")


def directed_kl_stopped(
    law: JointLaw, first: StoppingRule, last: StoppingRule
) -> float:
    """E[sum over the random window (T1, T] of per-history worst-case
    divergence], for stopping rules with T1 <= T pathwise.  A history is in
    the window when the start rule already stopped strictly before it and
    the end rule has not."""
    if not first.dominates(last):
        raise SchemaError("window start must stop no later than window end")
    if last.horizon > law.horizon:
        raise SchemaError("stopping rule runs past the law horizon")
    stopped, _ = rule_stack([first, last], law.horizon)
    return float(window_divergence(law, stopped, np.array([0]), np.array([1]))[0])


# ---------------------------------------------------------------------------
# entropy process and drift terms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EntropyProcess:
    """Message entropy H(W | Y^t = y^t) in bits along every realizable
    output history.  levels[t] maps y^t to (probability, entropy)."""

    horizon: int
    messages: int
    levels: tuple[dict[tuple[int, ...], tuple[float, float]], ...]

    def value(self, node: tuple[int, ...]) -> float:
        return self.levels[len(node)][node][1]

    def expected(self, t: int) -> float:
        return sum(p * h for p, h in self.levels[t].values())

    def path_values(self, path: tuple[int, ...]) -> list[float]:
        return [self.value(path[:t]) for t in range(self.horizon + 1)]


def h_process(law: JointLaw) -> EntropyProcess:
    if not law.is_message_form:
        raise SchemaError("entropy process needs a message-form law")
    levels = []
    for t in range(law.horizon + 1):
        lvl = {}
        for node, mu in law.w_post[t].items():
            lvl[node] = (law.node_prob[t][node], entropy(mu))
        levels.append(lvl)
    return EntropyProcess(horizon=law.horizon, messages=law.messages, levels=tuple(levels))


@dataclass(frozen=True)
class DriftTerms:
    """Per-history one-step drift quantities of a message-form law.

    - mi_drift[t][y^{t-1}]: conditional input-output information at the
      history (drives the linear entropy decrease);
    - kl_drift[t][y^{t-1}]: worst-case divergence of the effective channel
      row of the most likely input against alternatives (drives the
      log-entropy decrease);
    - max_pairwise_kl: largest divergence between any two physical channel
      rows (over all (x, s) pairs);
    - channel: the underlying channel (for the log-ratio step bound).
    """

    horizon: int
    mi_drift: tuple[dict[tuple[int, ...], float], ...]
    kl_drift: tuple[dict[tuple[int, ...], float], ...]
    max_pairwise_kl: float
    channel: Channel

    def log_ratio_bound(self) -> float:
        """Largest one-step magnitude of log2 H_t - log2 H_{t-1}: the max
        log2 ratio between any two channel entries at the same output.
        Only defined for strictly positive channels."""
        q = self.channel.spec.q
        if not self.channel.spec.strictly_positive:
            raise LogRatioUnboundedError(
                "log-ratio step bound needs a strictly positive channel"
            )
        per_y_max = q.max(axis=(0, 1))
        per_y_min = q.min(axis=(0, 1))
        return float(np.max(np.log2(per_y_max / per_y_min)))


def max_pairwise_row_kl(ch: Channel) -> float:
    rows = ch.spec.rows()
    worst = 0.0
    for p in rows:
        for q in rows:
            worst = max(worst, kl(p, q))
    return worst


def drift_terms(law: JointLaw, proc: EntropyProcess | None = None) -> DriftTerms:
    """One-step drift quantities for every realizable history of the law,
    read off the law's node table."""
    if not law.is_message_form:
        raise SchemaError("drift terms need a message-form law")
    table = node_table(law)
    mi_levels = tuple({} for _ in range(law.horizon + 1))
    kl_levels = tuple({} for _ in range(law.horizon + 1))
    for (t, prev), mi, div in zip(table.keys, table.node_mi.tolist(), table.node_kl.tolist()):
        mi_levels[t][prev] = mi
        kl_levels[t][prev] = div
    return DriftTerms(
        horizon=law.horizon,
        mi_drift=mi_levels,
        kl_drift=kl_levels,
        max_pairwise_kl=max_pairwise_row_kl(law.channel),
        channel=law.channel,
    )
