"""Entropy, divergence, directed information, and entropy-drift terms.

Everything is in bits.  Conventions pinned here and relied on everywhere:
0 log 0 = 0; KL with support mismatch is +inf (a distinct value, never
silently clipped); most-likely-element ties resolve to the lowest index;
probability-zero histories are pruned before any conditional quantity is
formed.

Every per-history quantity is a column of one per-law node table
(``node_table``), read off the law's arrays: for every realizable
(t, y^{t-1}), in the law's node order, its output-tree index and the
weighted terms p(y^{t-1}) I(X_t; Y_t | y^{t-1}) and p(y^{t-1}) times the
worst-row divergence, plus the index and probability of every full output
path, and, for every history, the message posterior, H(W | y^t) and the
per-message one-step output laws.  Stopped quantities are reductions over
it.  A stopping rule enters as its stopped mask and stop-time table (see
``StoppingRule``), so many rules, or many rule pairs, of one law are
evaluated in a single array pass; ``policy_table`` adds a leading policy
axis, so many behavioral policies' laws over the same trajectories are
evaluated in that pass too.  Every sum runs left to right from 0.0 in
the order of the per-history loop it replaces, and masked-out terms add an
exact 0.0, so the results are bit-identical to that loop.

The table's own columns are bulk reductions too, bit-identical to calling
``mutual_information``, ``kl`` and ``entropy`` once per history: the same
elementwise operations, with numpy's ``log2`` (``math.log2`` differs in the
last bit), and the same sums.  The information of every entry is one pass
over the (entries, X, Y) joints, its cells summed left to right in
row-major order.  The divergence and entropy sums add only their positive
terms, and how numpy's ``.sum()`` groups its terms depends on their count
(pairwise from 8 terms on), so each row's positive terms are packed to the
front and the rows that share a count are reduced together at that length
(``_packed_sums``).  The scalar functions'
checks run row-wise and raise the error the first failing call raised.
"""

from __future__ import annotations

import itertools
import sys
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
    _level_offsets,
    _path_at,
    check_tree_size,
    reweighted_tables,
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
    "message_information",
]

_NORM_TOL = 1e-10
_NORMAL_MIN = sys.float_info.min


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
    if np.any(j < 0):
        raise DistributionError("mutual information joint has a negative entry")
    pa = j.sum(axis=1).tolist()
    pb = j.sum(axis=0).tolist()
    total = 0.0
    for a, row in enumerate(j.tolist()):
        for b, v in enumerate(row):
            if v > 0.0:
                den = pa[a] * pb[b]
                # a product below the normal range loses its low bits or
                # underflows to 0.0, so divide by each factor in turn there
                ratio = v / den if den >= _NORMAL_MIN else v / pa[a] / pb[b]
                total += v * np.log2(ratio)
    return float(total)


# ---------------------------------------------------------------------------
# bulk columns: one array pass per column, with the scalar functions' checks,
# operations and sum orders
# ---------------------------------------------------------------------------


def _row_checks(rows: np.ndarray, live) -> tuple[np.ndarray, np.ndarray]:
    """``_as_dist``'s two checks on every row (last axis) of ``rows``: the
    masks of the rows where ``live`` with a negative entry, and of those not
    normalized."""
    neg = live & (rows < 0).any(axis=-1)
    off = live & (np.abs(rows.sum(axis=-1) - 1.0) > _NORM_TOL)
    return neg, off


def _raise_row(neg: bool, what: str) -> None:
    """``_as_dist``'s error for a row that failed a check."""
    raise DistributionError(f"{what} has a negative entry" if neg else f"{what} is not normalized")


def _packed_sums(terms: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """Sum along the last axis of ``terms`` over the positions where ``pos``
    (rows x last axis, shared by any middle axes), each as the 1-D ``.sum()``
    of the compacted terms.  Each row's selected terms are moved to the
    front in order, and rows sharing a count are reduced together at that
    length, so numpy's pairwise summation groups the terms as it does in
    the scalar functions."""
    count = pos.sum(axis=1)
    order = np.argsort(~pos, axis=1, kind="stable")
    order = order.reshape(order.shape[:1] + (1,) * (terms.ndim - 2) + order.shape[1:])
    packed = np.take_along_axis(terms, order, axis=-1)
    out = np.empty(terms.shape[:-1])
    for k in np.unique(count).tolist():
        rows = count == k
        out[rows] = np.ascontiguousarray(packed[rows, ..., :k]).sum(axis=-1)
    return out


def _joint_mi(xy: np.ndarray) -> np.ndarray:
    """``mutual_information`` of every joint table ``xy[..., e, :, :]``, with
    any leading axes (such as one per policy): the same check, marginals,
    ratios and ``np.log2`` terms, summed over the cells in row-major order;
    a cell of no mass adds an exact 0.0."""
    if (xy < 0).any():
        raise DistributionError("mutual information joint has a negative entry")
    lead, cells = xy.shape[:-2], xy.shape[-2] * xy.shape[-1]
    xy = xy.reshape((-1,) + xy.shape[-2:])
    pa = xy.sum(axis=2, keepdims=True)
    pb = xy.sum(axis=1, keepdims=True)
    den = pa * pb
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = xy / den
        small = den < _NORMAL_MIN
        if small.any():
            ratio = np.where(small, xy / pa / pb, ratio)
        terms = np.where(xy > 0.0, xy * np.log2(ratio), 0.0)
    return ordered_sum(terms.reshape(lead + (cells,)))


def _row_kl(p: np.ndarray, q: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """``kl(p[i], q[i, k])`` for every (i, k) where ``valid``, NaN elsewhere.

    The checks run as the calls would in (i, k) order: the first failing
    call names its argument and check."""
    used = valid.any(axis=1)
    p_neg, p_off = _row_checks(p, used)
    q_neg, q_off = _row_checks(q, valid)
    bad = p_neg | p_off | (q_neg | q_off).any(axis=1)
    if bad.any():
        i = int(np.argmax(bad))
        if p_neg[i] or p_off[i]:
            _raise_row(bool(p_neg[i]), "kl first argument")
        k = int(np.argmax(q_neg[i] | q_off[i]))
        _raise_row(bool(q_neg[i, k]), "kl second argument")
    pos = p > 0.0
    pp = p[:, None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        sums = _packed_sums(pp * np.log2(pp / q), pos)
    mismatch = (pos[:, None, :] & (q == 0.0)).any(axis=2)
    return np.where(valid, np.where(mismatch, np.inf, sums), np.nan)


def _row_entropy(mu: np.ndarray) -> np.ndarray:
    """``entropy`` of every row of ``mu``; the first failing row raises."""
    neg, off = _row_checks(mu, True)
    bad = neg | off
    if bad.any():
        _raise_row(bool(neg[np.argmax(bad)]), "entropy input")
    pos = mu > 0.0
    terms = mu * np.log2(np.where(pos, mu, 1.0))
    return -_packed_sums(terms, pos)


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


# ---------------------------------------------------------------------------
# per-law node table and stopped sums
# ---------------------------------------------------------------------------


class NodeTable:
    """Per-history terms of one law, read off the law's arrays.

    Histories are the law's output nodes (levels 0..N, level by level, in
    order of first appearance within a level), indexed by position; the
    entries are the histories y^{t-1} of levels 0..N-1, one per realizable
    (t, y^{t-1}) with t = 1..N, and the leaves the full output paths y^N.

    - node: flat output-tree index of each entry (``_level_offsets`` layout,
      the layout of ``StoppingRule.stopped_nodes``)
    - level: t - 1
    - prob: p(y^{t-1})
    - leaf, leaf_prob: ``_hist_index`` and probability of every full output
      path y^N

    Built on first use:

    - node_mi: I(X_t; Y_t | y^{t-1}); mi = prob * node_mi
    - x_kl[e, x]: D(row(x*) || row(x)) of the effective channel, x* the
      first most likely input, NaN for an unrealizable x and +inf on a
      support mismatch; node_kl, its max (the worst-row divergence, 0.0 when
      no x is realizable); kl = prob * node_kl
    - posterior and h: the message posterior and H(W | y^t) of each history

    node_mi, x_kl and h are each one array pass over ``xy_node`` or the
    posteriors (``_joint_mi``, ``_row_kl``, ``_row_entropy``), with no
    per-history call of the scalar functions and the same bits.
    - step[e, w]: the per-message output law P(Y_t | W = w, y^{t-1}) of each
      entry, NaN for a message of posterior 0
    - children[e, y]: the history y^{t-1}y, -1 when unrealizable
    - path_nodes[k, t]: the length-t prefix of the k-th full path
    """

    def __init__(self, law: JointLaw) -> None:
        y, n = law.channel.spec.y_size, law.horizon
        check_tree_size(y, n)
        self._y, self._horizon = y, n
        self._xy, self._wy, self._w_post = law.xy_node, law.wy_node, law.w_post
        self._message_form = law.is_message_form
        self._parent, self._symbol = law.node_parent, law.node_symbol
        # every history's ``_hist_index`` and level
        index = np.zeros(law.node_prob.size, dtype=np.int64)
        bounds = list(itertools.accumulate(law.sizes, initial=0))
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            index[lo:hi] = index.take(law.node_parent[lo:hi]) * y + law.node_symbol[lo:hi]
        self._index = index
        self._level = np.repeat(np.arange(n + 1), law.sizes)
        inner = bounds[n]
        self.level = self._level[:inner]
        starts = np.array(_level_offsets(y, n)[:n], dtype=np.int64)
        self.node = np.repeat(starts, law.sizes[:n]) + index[:inner]
        self.prob = law.node_prob[:inner]
        self.leaf = index[inner:]
        self.leaf_prob = law.node_prob[inner:]

    def history(self, i: int) -> tuple[int, ...]:
        """The output history at position ``i``."""
        return _path_at(int(self._index[i]), self._y, int(self._level[i]))

    @cached_property
    def node_mi(self) -> np.ndarray:
        return _joint_mi(self._xy)

    @cached_property
    def mi(self) -> np.ndarray:
        return self.prob * self.node_mi

    @cached_property
    def x_kl(self) -> np.ndarray:
        nu = self._xy.sum(axis=2)
        real = nu > 0.0
        x_star = np.where(real, nu, 0.0).argmax(axis=1)  # the first most likely input
        with np.errstate(divide="ignore", invalid="ignore"):
            rows = self._xy / nu[:, :, None]
        return _row_kl(rows[np.arange(nu.shape[0]), x_star], rows, real)

    @cached_property
    def node_kl(self) -> np.ndarray:
        worst = np.fmax.reduce(self.x_kl, axis=1, initial=-np.inf)
        return np.where(worst == -np.inf, 0.0, worst)

    @cached_property
    def kl(self) -> np.ndarray:
        return self.prob * self.node_kl

    @property
    def posterior(self) -> np.ndarray:
        return self._w_post

    @cached_property
    def h(self) -> np.ndarray:
        if not self._message_form:
            raise SchemaError("entropy process needs a message-form law")
        return _row_entropy(self.posterior)

    @cached_property
    def step(self) -> np.ndarray:
        mu = self._w_post[: self.prob.size]
        rows = np.full_like(self._wy, np.nan)
        pos = mu > 0.0
        rows[pos] = self._wy[pos] / mu[pos][:, None]
        return rows

    @cached_property
    def children(self) -> np.ndarray:
        kids = np.full((self.prob.size, self._y), -1, dtype=np.int64)
        kids[self._parent[1:], self._symbol[1:]] = np.arange(1, self._parent.size)
        return kids

    @cached_property
    def path_nodes(self) -> np.ndarray:
        nodes = [np.arange(self.prob.size, self._parent.size)]
        for _ in range(self._horizon):
            nodes.append(self._parent[nodes[-1]])
        return np.stack(nodes[::-1], axis=1)


def node_table(law: JointLaw) -> NodeTable:
    """The law's node table, built once and kept with the law."""
    table = law.__dict__.get("_node_table")
    if table is None:
        table = NodeTable(law)
        object.__setattr__(law, "_node_table", table)
    return table


def ordered_sum(terms: np.ndarray) -> np.ndarray:
    """Sums along the last axis, left to right from 0.0: the order and
    rounding of a ``total = 0.0; total += term`` loop, for each index of
    the leading axes (such as rules, or policies and rules)."""
    start = np.zeros(terms.shape[:-1] + (1,))
    return np.cumsum(np.concatenate((start, terms), axis=-1), axis=-1)[..., -1]


def rule_stack(rules, horizon: int) -> tuple[np.ndarray, np.ndarray]:
    """Stacked ``StoppingRule.tables_at(horizon)`` of a rule list:
    (rules x output-tree nodes stopped mask, rules x full-path stop times)."""
    tables = [rule.tables_at(horizon) for rule in rules]
    return np.stack([s for s, _ in tables]), np.stack([t for _, t in tables])


@dataclass(frozen=True)
class PolicyTable:
    """The node-table columns ``stopped_values`` reads (``node``, ``mi``,
    ``leaf``, ``leaf_prob``) of many behavioral policies' laws, each with a
    leading policy axis and in each policy's node order; built by
    ``policy_table``."""

    node: np.ndarray
    mi: np.ndarray
    leaf: np.ndarray
    leaf_prob: np.ndarray


def policy_table(law: JointLaw, px: np.ndarray) -> PolicyTable:
    """The columns of every policy's node table, each policy's law a
    reweighting of ``law``'s trajectories (``reweighted_tables``, which
    describes ``law`` and ``px``).  A node a policy cannot reach sits last
    in its level with probability 0.0, so its terms are exact zeros."""
    table = node_table(law)
    order, node_prob, xy_node = reweighted_tables(law, px)
    inner = table.prob.size
    return PolicyTable(
        node=table.node.take(order[:, :inner]),
        mi=node_prob[:, :inner] * _joint_mi(xy_node),
        leaf=table.leaf.take(order[:, inner:] - inner),
        leaf_prob=node_prob[:, inner:],
    )


def stopped_values(
    law: JointLaw | PolicyTable, stopped: np.ndarray, times: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(E[T], stopped directed information) of every rule of a
    ``rule_stack`` at the law's horizon, each of shape (rules,); or of
    every policy of a ``PolicyTable``, each (policies, rules).  Each sum
    runs along the nodes, in order."""
    table = law if isinstance(law, PolicyTable) else node_table(law)
    at_leaf, at_node = times[:, table.leaf], stopped[:, table.node]
    if at_leaf.ndim == 3:  # (rules, policies, nodes): put the policies first
        at_leaf, at_node = at_leaf.swapaxes(0, 1), at_node.swapaxes(0, 1)
    et = ordered_sum(table.leaf_prob[..., None, :] * at_leaf)
    mi = ordered_sum(np.where(at_node, 0.0, table.mi[..., None, :]))
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


def path_stop_times(law: JointLaw, rule: StoppingRule) -> np.ndarray:
    """T on every full output path of the law, in leaf order."""
    table = node_table(law)
    times = rule.tables_at(law.horizon)[1][table.leaf]
    late = np.flatnonzero(times > law.horizon)
    if late.size:
        path = table.history(table.prob.size + late[0])
        raise SchemaError(f"path {path} has no stopped prefix")
    return times


def expected_stop_time(law: JointLaw, rule: StoppingRule) -> float:
    """E[T] under the law's output-path distribution."""
    return float(ordered_sum(node_table(law).leaf_prob * path_stop_times(law, rule)))


def stop_nodes(law: JointLaw, rule: StoppingRule) -> np.ndarray:
    """The stop history of every full path, by node-table position.  A stop
    history of probability 0.0 has no posterior (0/0), so it is an error."""
    table = node_table(law)
    times = path_stop_times(law, rule)
    stop = table.path_nodes[np.arange(times.size), times]
    prob = np.concatenate((table.prob, table.leaf_prob))[stop]
    if not prob.all():
        k = int(np.argmin(prob != 0.0))
        raise DistributionError(
            f"stop history {table.history(stop[k])} at time {times[k]} has probability 0.0")
    return stop


def stop_error(law: JointLaw, rule: StoppingRule) -> tuple[float, float]:
    """(pe, E[T]): the error probability of maximum-posterior decoding at
    the stop node, and the expected stop time.  Each stop node's mass is
    summed over its paths in path order, and pe over the stop nodes in order
    of first appearance."""
    table = node_table(law)
    stop = stop_nodes(law, rule)
    nodes, first, inv = np.unique(stop, return_index=True, return_inverse=True)
    order = np.argsort(first)
    mass = np.bincount(inv, table.leaf_prob)[order]
    pe = ordered_sum(mass * (1.0 - table.posterior[nodes[order]].max(axis=1)))
    return float(pe), expected_stop_time(law, rule)


def child_expectation(law: JointLaw, values: np.ndarray, rows=None, start=0.0) -> np.ndarray:
    """start + sum_y P(y | y^{t-1}) values[y^{t-1}y] over the realizable
    children of the node-table entries ``rows`` (all when None); ``values``
    is indexed by history.  Terms are added in y order from ``start``; an
    unrealizable child adds -0.0, which changes no sum."""
    table = node_table(law)
    rows = np.arange(table.prob.size) if rows is None else rows
    kids, parent = table.children[rows], table.prob[rows]
    if not parent.all():
        e = rows[np.argmin(parent != 0.0)]
        raise DistributionError(
            f"history {table.history(e)} at step {table.level[e] + 1} has probability 0.0")
    prob = np.concatenate((table.prob, table.leaf_prob))
    with np.errstate(invalid="ignore"):  # 0 * -inf at an unrealizable child
        terms = np.where(kids >= 0, prob[kids] / parent[:, None] * values[kids], -0.0)
    start = np.broadcast_to(np.asarray(start, dtype=float), parent.shape)[:, None]
    return np.cumsum(np.concatenate((start, terms), axis=1), axis=1)[:, -1]


def message_information(law: JointLaw, n: int) -> float:
    """I(W; Y^n) in bits for a message-form law."""
    table = node_table(law)
    level = np.append(table.level, np.full(table.leaf.size, law.horizon))
    prob = np.concatenate((table.prob, table.leaf_prob))
    return float(table.h[0]) - float(ordered_sum(np.where(level == n, prob * table.h, 0.0)))


# ---------------------------------------------------------------------------
# directed KL of the effective channel
# ---------------------------------------------------------------------------


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
    table = node_table(law)
    if variant == "per_history_max":
        window = (table.level >= a - 1) & (table.level < b)
        return float(ordered_sum(np.where(window, table.kl, 0.0)))
    if variant == "global_symbol_max":
        total = 0.0
        for t in range(a, b + 1):
            x_kl = table.x_kl[table.level == t - 1]
            seen = ~np.isnan(x_kl)
            w = table.prob[table.level == t - 1, None]
            per_x = ordered_sum(np.where(seen, w * x_kl, 0.0).T)[seen.any(axis=0)]
            total += max(per_x.tolist()) if per_x.size else 0.0
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
# channel-row bounds
# ---------------------------------------------------------------------------


def log_ratio_bound(ch: Channel) -> float:
    """Largest one-step magnitude of log2 H_t - log2 H_{t-1}: the max log2
    ratio between any two channel entries at the same output.  Only
    defined for strictly positive channels."""
    q = ch.spec.q
    if not ch.spec.strictly_positive:
        raise LogRatioUnboundedError("log-ratio step bound needs a strictly positive channel")
    per_y_max = q.max(axis=(0, 1))
    per_y_min = q.min(axis=(0, 1))
    return float(np.max(np.log2(per_y_max / per_y_min)))


def row_divergences(rows) -> np.ndarray:
    """D(rows[a] || rows[b]) in bits for every ordered pair of rows."""
    return np.array([[kl(p, q) for q in rows] for p in rows], dtype=float)


def max_pairwise_row_kl(ch: Channel) -> float:
    """Largest divergence between two (x, s) rows of the channel."""
    return float(row_divergences(ch.spec.rows()).max())
