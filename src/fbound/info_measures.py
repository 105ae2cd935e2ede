"""Entropy, divergence, directed information, and entropy-drift terms.

Everything is in bits.  Conventions pinned here and relied on everywhere:
0 log 0 = 0; KL with support mismatch is +inf (a distinct value, never
silently clipped); most-likely-element ties resolve to the lowest index;
probability-zero histories are pruned before any conditional quantity is
formed.

Every per-history quantity is a column of one table type, ``NodeTable``,
read off the law's arrays: for every realizable (t, y^{t-1}), in the law's
node order, its output-tree index and the weighted terms
p(y^{t-1}) I(X_t; Y_t | y^{t-1}) and p(y^{t-1}) times the worst-row
divergence, plus the index and probability of every full output path, and,
for every history, the message posterior, H(W | y^t) and the per-message
one-step output laws.  One law's table (``node_table``) has no law axis;
the table of many laws (``NodeTable.of`` the tables that ``policy_tables``
and ``encoder_tables`` return, both from the one trajectory loop that
builds every law) has a leading one.  Stopped quantities are reductions
over either, so one law and many laws over the same trajectories take the
same path.  A stopping rule enters as its stopped mask and stop-time table
(``rule_stack``, which refuses a rule past the laws' horizon), so every
rule, or rule pair, of every law of a table is evaluated in a single array
pass.
Every sum runs left to right from 0.0 in the order of the per-history loop
it replaces, and masked-out terms add an exact 0.0, so the results are
bit-identical to that loop.

The table's own columns are bulk kernels (``_joint_mi``, ``_row_kl``,
``_row_entropy``), and ``mutual_information``, ``kl`` and ``entropy`` are
those kernels on one table or row, so a column holds, bit for bit, what
calling them once per history returns.  The terms use numpy's ``log2``.  The
information of every entry is one pass over the (entries, X, Y) joints, its
cells summed left to right in row-major order.  The divergence and entropy
sums add only their positive terms, and how numpy's ``.sum()`` groups its
terms depends on their count (pairwise from 8 terms on), so each row's
positive terms are packed to the front and the rows that share a count are
reduced together at that length (``_packed_sums``).  The checks run
row-wise and raise the error of the first failing row.
"""

from __future__ import annotations

import math
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
    _node_index,
    check_tree_size,
)

__all__ = [
    "entropy",
    "kl",
    "binary_entropy",
    "binary_entropy_inv",
    "mutual_information",
    "directed_mi_stopped",
    "expected_stop_time",
    "directed_kl_stopped",
]

_NORM_TOL = 1e-10
_NORMAL_MIN = sys.float_info.min


def _as_dist(p, what: str, ndim: int = 1) -> np.ndarray:
    arr = np.asarray(p, dtype=float)
    if arr.ndim != ndim:
        raise DistributionError(f"{what} must be a {('vector', 'matrix')[ndim - 1]}")
    return arr[None]


def entropy(p) -> float:
    """Shannon entropy in bits, with 0 log 0 = 0."""
    return float(_row_entropy(_as_dist(p, "entropy input"))[0])


def kl(p, q) -> float:
    """Relative entropy D(p || q) in bits; +inf when p puts mass where q
    does not."""
    pa, qa = _as_dist(p, "kl first argument"), _as_dist(q, "kl second argument")
    if pa.shape != qa.shape:
        raise DistributionError("kl arguments must have the same length")
    return float(_row_kl(pa, qa[None], np.ones((1, 1), dtype=bool))[0, 0])


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


def _fano_ceiling(pe: float, log_factor: float) -> float:
    """``_fano_ceilings`` of one error probability."""
    return float(_fano_ceilings(np.array([pe]), log_factor)[0])


def _fano_ceilings(pe: np.ndarray, log_factor: float) -> np.ndarray:
    """Fano's ceiling h(pe) + pe * log_factor on the message entropy left
    at a decoder of error probability pe, for every entry of a vector
    ``pe`` in one array pass, with h read at pe clipped to [0, 1];
    log_factor is log2 M or log2(M - 1).  Each entry has the bits of
    ``binary_entropy`` at the clipped value plus pe * log_factor on floats:
    the same elementwise expression, and numpy's ``log2`` gives an array
    the bits it gives one float.  A NaN entry raises ``binary_entropy``'s
    error for the first one."""
    p = np.clip(pe, 0.0, 1.0)
    nan = np.isnan(p)
    if nan.any():
        binary_entropy(p[nan][0].item())
    with np.errstate(all="ignore"):  # as on floats, which warn of nothing
        h = -p * np.log2(p) - (1 - p) * np.log2(1 - p)
        h[(p == 0.0) | (p == 1.0)] = 0.0
        return h + pe * log_factor


def _v_term(rate: float, i_rate: float, eps: float, n: int, et: float) -> float:
    """V of the finite-length exponent statement: the sqrt(eps) excursion
    credits of a horizon-n law, (R / I) sqrt(eps) n + sqrt(eps) n / (E[T] I)."""
    return (rate / i_rate) * math.sqrt(eps) * n + math.sqrt(eps) * n / (et * i_rate)


def mutual_information(joint: np.ndarray) -> float:
    """I(A;B) in bits from a joint table P(a, b)."""
    return float(_joint_mi(_as_dist(joint, "mutual information joint", ndim=2))[0])


# ---------------------------------------------------------------------------
# bulk kernels: one array pass per column; the scalar functions call them on
# one row
# ---------------------------------------------------------------------------


def _row_checks(rows: np.ndarray, live) -> tuple[np.ndarray, np.ndarray]:
    """The two distribution checks on every row (last axis) of ``rows``:
    the masks of the rows where ``live`` with a negative entry, and of those
    not normalized beyond ``_NORM_TOL``."""
    neg = live & (rows < 0).any(axis=-1)
    off = live & (np.abs(rows.sum(axis=-1) - 1.0) > _NORM_TOL)
    return neg, off


def _raise_row(neg: bool, what: str) -> None:
    """The error for a row that failed a check."""
    raise DistributionError(f"{what} has a negative entry" if neg else f"{what} is not normalized")


def _packed_sums(terms: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """Sum along the last axis of ``terms`` over the positions where ``pos``
    (rows x last axis, shared by any middle axes), each as the 1-D ``.sum()``
    of the compacted terms.  Each row's selected terms are moved to the
    front in order, and rows sharing a count are reduced together at that
    length, so numpy's pairwise summation groups a row's terms as it does
    for that row alone.  The counts are found with ``bincount``, since
    ``np.unique`` imports ``numpy.ma`` on its first call in a process."""
    count = pos.sum(axis=1)
    order = np.argsort(~pos, axis=1, kind="stable")
    order = order.reshape(order.shape[:1] + (1,) * (terms.ndim - 2) + order.shape[1:])
    packed = np.take_along_axis(terms, order, axis=-1)
    out = np.empty(terms.shape[:-1])
    for k in np.bincount(count).nonzero()[0].tolist():
        rows = count == k
        out[rows] = np.ascontiguousarray(packed[rows, ..., :k]).sum(axis=-1)
    return out


def _joint_mi(xy: np.ndarray) -> np.ndarray:
    """I(A;B) of every joint table ``xy[..., e, :, :]``, with any leading
    axes (such as one per policy): the ``np.log2`` terms of each cell's ratio
    to the product of its marginals, summed over the cells in row-major
    order; a cell of no mass adds an exact 0.0.  A product below the normal
    range loses its low bits or underflows to 0.0, so there the cell is
    divided by each marginal in turn."""
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
    return _sum_in_place(terms.reshape(lead + (cells,)))


def _row_kl(p: np.ndarray, q: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """D(p[i] || q[i, k]) for every (i, k) where ``valid``, NaN elsewhere.

    The checks run pair by pair in (i, k) order, p[i]'s before q[i, k]'s:
    the first failing pair names its argument and check."""
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


def _x_kl(xy: np.ndarray) -> np.ndarray:
    """``NodeTable.x_kl`` of every joint table ``xy[..., e, :, :]``, with any
    leading axes: D(row(x*) || row(x)) for each input x of the effective
    channel rows P(Y | x), x* the first most likely input, NaN for an
    unrealizable x."""
    lead = xy.shape[:-2]
    xy = xy.reshape((-1,) + xy.shape[-2:])
    nu = xy.sum(axis=2)
    real = nu > 0.0
    x_star = np.where(real, nu, 0.0).argmax(axis=1)  # the first most likely input
    with np.errstate(divide="ignore", invalid="ignore"):
        rows = xy / nu[:, :, None]
    return _row_kl(rows[np.arange(nu.shape[0]), x_star], rows, real).reshape(lead + nu.shape[1:])


def _worst(x_kl: np.ndarray) -> np.ndarray:
    """The largest divergence along the last axis of ``x_kl``, ignoring NaN,
    and 0.0 where every entry is NaN."""
    worst = np.fmax.reduce(x_kl, axis=-1, initial=-np.inf)
    return np.where(worst == -np.inf, 0.0, worst)


def _row_entropy(mu: np.ndarray) -> np.ndarray:
    """The entropy of every row of ``mu``; the first failing row raises."""
    neg, off = _row_checks(mu, True)
    bad = neg | off
    if bad.any():
        _raise_row(bool(neg[np.argmax(bad)]), "entropy input")
    pos = mu > 0.0
    terms = mu * np.log2(np.where(pos, mu, 1.0))
    return -_packed_sums(terms, pos)


# ---------------------------------------------------------------------------
# node tables, of one law or many, and stopped sums
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NodeTable:
    """Per-history columns of one law, or of many laws over shared output
    nodes, read off their arrays.

    ``node_table(law)`` is one law's table; ``NodeTable.of`` the table of
    the laws of many behavioral policies (``policy_tables``) or
    deterministic encoders (``encoder_tables``), whose columns carry a
    leading law axis.  Histories are the output nodes (levels 0..N, level by
    level, in order of first appearance within a level), indexed by
    position; the entries are the histories y^{t-1} of levels 0..N-1, one
    per realizable (t, y^{t-1}) with t = 1..N, and the leaves the full
    output paths y^N.  A batch lists each law's nodes in its own order,
    except ``level``, which the laws share: a node a law cannot reach sits
    last in its level, with probability 0.0, so its terms are exact zeros.

    - node: flat output-tree index of each entry (``_level_offsets`` layout,
      the layout of ``StoppingRule.stopped_nodes``)
    - level: t - 1
    - prob: p(y^{t-1})
    - xy: the joints P(X_t, Y_t | y^{t-1})
    - leaf, leaf_prob: ``_hist_index`` and probability of every full output
      path y^N

    Built on first use:

    - node_mi: I(X_t; Y_t | y^{t-1}); mi = prob * node_mi
    - x_kl[e, x]: D(row(x*) || row(x)) of the effective channel, x* the
      first most likely input, NaN for an unrealizable x and +inf on a
      support mismatch; node_kl, its max (the worst-row divergence, 0.0 when
      no x is realizable); kl = prob * node_kl

    node_mi and x_kl are each one array pass over ``xy`` (``_joint_mi``,
    ``_x_kl``), with no per-history call of the scalar functions and the
    same bits.  Read off the one law a table was built from:

    - posterior and h: the message posterior and H(W | y^t) of each history
      (h is one ``_row_entropy`` pass)
    - step[e, w]: the per-message output law P(Y_t | W = w, y^{t-1}) of each
      entry, NaN for a message of posterior 0
    - children[e, y]: the history y^{t-1}y, -1 when unrealizable
    - path_nodes[k, t]: the length-t prefix of the k-th full path
    """

    node: np.ndarray
    level: np.ndarray
    prob: np.ndarray
    xy: np.ndarray
    leaf: np.ndarray
    leaf_prob: np.ndarray
    law: JointLaw | None = None

    @classmethod
    def of(cls, tables, y_size: int, law: JointLaw | None = None) -> "NodeTable":
        """The columns of the (sizes, index, node_prob, xy_node) that
        ``policy_tables`` and ``encoder_tables`` return, or of ``law``'s
        own arrays, with no law axis."""
        sizes, index, node_prob, xy_node = tables
        horizon, inner = len(sizes) - 1, xy_node.shape[-3]
        starts = np.array(_level_offsets(y_size, horizon)[:horizon], dtype=np.int64)
        return cls(
            node=np.repeat(starts, sizes[:horizon]) + index[..., :inner],
            level=np.repeat(np.arange(horizon), sizes[:horizon]),
            prob=node_prob[..., :inner],
            xy=xy_node,
            leaf=index[..., inner:],
            leaf_prob=node_prob[..., inner:],
            law=law,
        )

    @cached_property
    def node_mi(self) -> np.ndarray:
        return _joint_mi(self.xy)

    @cached_property
    def mi(self) -> np.ndarray:
        return self.prob * self.node_mi

    @cached_property
    def x_kl(self) -> np.ndarray:
        return _x_kl(self.xy)

    @cached_property
    def node_kl(self) -> np.ndarray:
        return _worst(self.x_kl)

    @cached_property
    def kl(self) -> np.ndarray:
        return self.prob * self.node_kl

    def history(self, i: int) -> tuple[int, ...]:
        """The output history at position ``i``, read up its parent chain."""
        path = []
        while i > 0:
            path.append(int(self.law.node_symbol[i]))
            i = int(self.law.node_parent[i])
        return tuple(path[::-1])

    @property
    def posterior(self) -> np.ndarray:
        return self.law.w_post

    @cached_property
    def h(self) -> np.ndarray:
        if not self.law.is_message_form:
            raise SchemaError("entropy process needs a message-form law")
        return _row_entropy(self.posterior)

    @cached_property
    def step(self) -> np.ndarray:
        mu, wy = self.law.w_post[: self.prob.size], self.law.wy_node
        rows = np.full_like(wy, np.nan)
        pos = mu > 0.0
        rows[pos] = wy[pos] / mu[pos][:, None]
        return rows

    @cached_property
    def children(self) -> np.ndarray:
        parent, symbol = self.law.node_parent, self.law.node_symbol
        kids = np.full((self.prob.size, self.law.channel.spec.y_size), -1, dtype=np.int64)
        kids[parent[1:], symbol[1:]] = np.arange(1, parent.size)
        return kids

    @cached_property
    def path_nodes(self) -> np.ndarray:
        parent = self.law.node_parent
        nodes = [np.arange(self.prob.size, parent.size)]
        for _ in range(self.law.horizon):
            nodes.append(parent[nodes[-1]])
        return np.stack(nodes[::-1], axis=1)


def node_table(law: JointLaw) -> NodeTable:
    """The law's node table, built once and kept with the law."""
    table = law.__dict__.get("_node_table")
    if table is None:
        y = law.channel.spec.y_size
        check_tree_size(y, law.horizon)
        index = _node_index(law.node_parent, law.node_symbol, law.sizes, y)
        table = NodeTable.of((law.sizes, index, law.node_prob, law.xy_node), y, law)
        object.__setattr__(law, "_node_table", table)
    return table


def ordered_sum(terms: np.ndarray) -> np.ndarray:
    """Sums along the last axis, left to right: the order and rounding of a
    ``total = 0.0; total += term`` loop, for each index of the leading axes
    (such as rules, or policies and rules).  The running sums start at the
    first term, not at 0.0 + term.  The two differ only where that term is
    -0.0, and then only in the sign of a zero running sum: the next nonzero
    term absorbs it exactly, and the trailing ``+ 0.0`` turns a -0.0 total
    into the loop's 0.0, so every total keeps the loop's bits.  An empty
    last axis sums to 0.0."""
    return _sum_in_place(np.array(terms, dtype=float))


def _sum_in_place(terms: np.ndarray) -> np.ndarray:
    """``ordered_sum`` of a float array that the caller formed and no longer
    needs: the running sums are written over its terms, so no copy of it
    is made."""
    if terms.shape[-1] == 0:
        return np.zeros(terms.shape[:-1])
    return np.cumsum(terms, axis=-1, out=terms)[..., -1] + 0.0


def rule_stack(rules, horizon: int) -> tuple[np.ndarray, np.ndarray]:
    """Stacked ``StoppingRule.tables_at(horizon)`` of a rule list:
    (rules x output-tree nodes stopped mask, rules x full-path stop times).
    A rule past ``horizon``, the laws' horizon, is refused, so every path
    stops within the laws' horizon."""
    if any(rule.horizon > horizon for rule in rules):
        raise SchemaError("stopping rule runs past the law horizon")
    tables = [rule.tables_at(horizon) for rule in rules]
    return np.stack([s for s, _ in tables]), np.stack([t for _, t in tables])


def stopped_values(
    table: NodeTable, stopped: np.ndarray, times: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(E[T], stopped directed information) of every law of ``table`` under
    every rule of a ``rule_stack`` at the laws' horizon, each of shape
    ([laws,] rules).  Each sum runs along the nodes, in order."""
    at_leaf = np.moveaxis(times[:, table.leaf], 0, -2)  # ([laws,] rules, nodes)
    at_node = np.moveaxis(stopped[:, table.node], 0, -2)
    et = _sum_in_place(table.leaf_prob[..., None, :] * at_leaf)
    mi = _sum_in_place(np.where(at_node, 0.0, table.mi[..., None, :]))
    return et, mi


def window_divergence(
    table: NodeTable, stopped: np.ndarray, first: np.ndarray, last: np.ndarray
) -> np.ndarray:
    """Stopped divergence over the window (T1, T] of every law of ``table``
    and each pair of rows (first[k], last[k]) of a ``rule_stack`` mask,
    shape ([laws,] pairs).  Each sum runs along the nodes, in order."""
    at_nodes = stopped[:, table.node]
    live = at_nodes[first] & ~at_nodes[last]
    return np.moveaxis(_sum_in_place(np.where(live, table.kl, 0.0)), 0, -1)


def directed_mi_stopped(law: JointLaw, rule: StoppingRule) -> float:
    """E[sum_{t<=T} I(X_t; Y_t | Y^{t-1})] for a stopping time T on the
    output filtration: per-history conditional information is accumulated
    over histories at which transmission is still live."""
    _, mi = stopped_values(node_table(law), *rule_stack([rule], law.horizon))
    return float(mi[0])


def path_stop_times(law: JointLaw, rule: StoppingRule) -> np.ndarray:
    """T on every full output path of the law, in leaf order."""
    return rule_stack([rule], law.horizon)[1][0, node_table(law).leaf]


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


# ---------------------------------------------------------------------------
# directed KL of the effective channel
# ---------------------------------------------------------------------------


def directed_kl_stopped(
    law: JointLaw, first: StoppingRule, last: StoppingRule
) -> float:
    """E[sum over the random window (T1, T] of per-history worst-case
    divergence], for stopping rules with T1 <= T pathwise.  A history is in
    the window when the start rule already stopped strictly before it and
    the end rule has not."""
    if not first.dominates(last):
        raise SchemaError("window start must stop no later than window end")
    stopped, _ = rule_stack([first, last], law.horizon)
    return float(window_divergence(node_table(law), stopped, np.array([0]), np.array([1]))[0])


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
