"""Mechanical verification of the drift and martingale facts behind the
bounds, by exact enumeration on small instances and Monte Carlo on
unstructured ones.

Every check returns a ``Verdict`` carrying the number of cases examined,
the worst signed margin (nonnegative means the claimed inequality held),
the constants in force, and human-readable detail lines.  Checks accept a
``mutate`` argument where a deliberately falsified input is documented;
a mutated run is expected to fail, which guards the checker itself against
vacuous passes.

The law-based checks are reductions over the law's node table
(``info_measures.NodeTable``): the entropy H(W | y^t), posterior and
children of every realizable history, the per-history information and
worst-row divergence, and the histories along every full path.  One-step
drops are ``child_expectation``; the pruned process works on paths x
levels arrays, with pruned indices, compensator and atoms computed once
per call.  Lemma 5's divergences between the leading message's output row
and every other message's, at all its histories at once, go through the
node table's row-divergence kernel (``info_measures._row_kl``).  Every
printed value is computed as the per-history loops did: the node-table
columns and lemma 5's divergences keep the scalar ``entropy``,
``mutual_information`` and ``kl``, numpy ``log2`` and sum grouping
included; the checks' own logarithms and exponentials are ``math`` calls,
one element at a time (numpy's ``exp`` and ``log2`` differ in the last
bit); and every sum runs in the loops' order (``ordered_sum``,
``np.bincount``, cumulative sums), so margins, constants and counts are
bit-identical.

Pruned-time conventions used throughout, for an entropy path H_0..H_N and a
threshold eps (requires H_0 >= eps):

- ``tau_hit``: first t in [1, N] with H_t <= eps, else N;
- ``tau_last``: last t in [1, N+1] with H_{t-1} >= eps, capped at N;
- pruned index ``t_n``: n before the hit, max(n, tau_last) afterwards.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .channel_model import (
    MUTATIONS,
    DistributionError,
    JointLaw,
    SchemaError,
    StoppingRule,
    bsc,
    forward_joint,
    repetition_encoder,
)
from .info_measures import (
    _fano_ceiling,
    _fano_ceilings,
    _row_kl,
    _v_term,
    binary_entropy_inv,
    child_expectation,
    entropy,
    log_ratio_bound,
    max_pairwise_row_kl,
    node_table,
    ordered_sum,
    path_stop_times,
    stop_error,
    stop_nodes,
)

__all__ = [
    "Verdict",
    "MUTATIONS",
    "verify_linear_drift",
    "verify_log_drift",
    "verify_submartingale_L",
    "verify_fano",
    "verify_lemma4_budget",
    "verify_lemma5_kl_transfer",
    "verify_lemma7",
    "verify_entropy_proposition",
    "verify_maximal_inequality",
    "default_lambda_grid",
]

DRIFT_TOL = 1e-10
LEMMA7_MAX_DIM = 5  # the log-sum split's random instances have dimensions 2..5
SELF_CHECK_TOL = 1e-9  # slack of the maximal inequality's decrease self-checks
_VACUOUS = "no history with entropy inside (0, eps): vacuous pass"
_INFINITE_C = "c is infinite, so the slack c * hb_inv(eps) bounds nothing: vacuous pass"


@dataclass(frozen=True)
class Verdict:
    """Outcome of one mechanical check."""

    check: str
    instance: str
    count: int
    worst: float
    passed: bool
    constants: dict = field(default_factory=dict)
    details: tuple[str, ...] = ()

    def to_text(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        const = " ".join(f"{k}={_fmt(v)}" for k, v in sorted(self.constants.items()))
        lines = [
            f"[{tag}] {self.check}  instance={self.instance}  "
            f"cases={self.count}  worst-margin={_fmt(self.worst)}"
        ]
        if const:
            lines.append(f"  constants: {const}")
        lines.extend(f"  {d}" for d in self.details)
        return "\n".join(lines) + "\n"


def _fmt(v) -> str:
    if isinstance(v, float):
        if math.isinf(v) or math.isnan(v):
            return str(v)
        return f"{v:.6g}"
    return str(v)


def _instance_name(law: JointLaw) -> str:
    name = law.channel.spec.name or "channel"
    return f"{name} M={law.messages} N={law.horizon}"


def _check_mutation(mutate: str | None) -> None:
    if mutate is not None and mutate not in MUTATIONS:
        raise SchemaError(f"unknown mutation {mutate!r}; available: {MUTATIONS}")


def _kl_drift(law: JointLaw, mutate: str | None) -> np.ndarray:
    """Every entry's worst-row divergence, halved by ``halve_kl_drift``."""
    d = node_table(law).node_kl
    return 0.5 * d if mutate == "halve_kl_drift" else d


def _low_entropy_rows(law: JointLaw, eps: float) -> np.ndarray:
    """Node-table entries with 0 < H(W | y^{t-1}) < eps, in sorted order."""
    table = node_table(law)
    rows = np.argsort(table.node)  # level by level, lexicographic within one
    return rows[(0.0 < table.h[rows]) & (table.h[rows] < eps)]


def _low_entropy_setup(law: JointLaw, eps: float, mutate: str | None):
    """Checks ``mutate`` and eps, then gives the ``_low_entropy_rows``, the
    channel's largest pairwise row divergence d_max, hb_inv(eps) and the
    rows' worst-row divergences (``_kl_drift``)."""
    _check_mutation(mutate)
    if not 0.0 < eps <= 1.0:
        raise SchemaError("eps must lie in (0, 1] for the inverse-entropy slack")
    rows = _low_entropy_rows(law, eps)
    d_max = max_pairwise_row_kl(law.channel)
    return rows, d_max, binary_entropy_inv(eps), _kl_drift(law, mutate)[rows]


def _stop_rule(law: JointLaw, rule: StoppingRule | None) -> StoppingRule:
    """``rule``, or T = N when it is None."""
    if rule is None:
        return StoppingRule.fixed(law.horizon, law.horizon, law.channel.spec.y_size)
    return rule


# ---------------------------------------------------------------------------
# pruned times
# ---------------------------------------------------------------------------


def _pruned_times(h: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """(tau_hit, tau_last) of every row of a paths x levels entropy array."""
    n = h.shape[1] - 1
    if np.any(h[:, 0] < eps):
        raise SchemaError("pruning needs the initial entropy at or above eps")
    # first t >= 1 with H_t <= eps; a final always-true column stands for N
    hit = np.hstack((h[:, 1:] <= eps, np.ones((h.shape[0], 1), dtype=bool)))
    tau_hit = np.minimum(hit.argmax(axis=1) + 1, n)
    above = h >= eps
    tau_last = np.where(above.any(axis=1), n + 1 - above[:, ::-1].argmax(axis=1), 0)
    return tau_hit, np.minimum(tau_last, n)


def _pruned_index(m, tau_hit, tau_last, horizon: int):
    """Pruned index t_m (broadcast): m before the hit, then max(m, tau_last)."""
    return np.where(m < tau_hit, m, np.minimum(np.maximum(m, tau_last), horizon))


# ---------------------------------------------------------------------------
# paths x levels arrays shared by the pruned-process checks
# ---------------------------------------------------------------------------


class _Paths(NamedTuple):
    """The full output paths of positive probability, sorted: position
    among the node table's leaves, probability, then paths x levels arrays:
    the history of each prefix, H_0..H_N, and j and d of steps 1..N, plus
    pruned times."""

    leaf: np.ndarray
    prob: np.ndarray
    nodes: np.ndarray
    h: np.ndarray
    j: np.ndarray
    d: np.ndarray
    tau_hit: np.ndarray
    tau_last: np.ndarray


def _paths(law: JointLaw, eps: float, mutate: str | None) -> _Paths:
    table = node_table(law)
    order = np.argsort(table.leaf)
    leaf = order[table.leaf_prob[order] > 0.0]
    nodes = table.path_nodes[leaf]
    h = table.h[nodes]
    return _Paths(leaf, table.leaf_prob[leaf], nodes, h, table.node_mi[nodes[:, :-1]],
                  _kl_drift(law, mutate)[nodes[:, :-1]], *_pruned_times(h, eps))


def _phase_constants(paths: _Paths, last_time: np.ndarray) -> tuple[float, float]:
    """Information/divergence per expected step over the pre-hit and
    post-hit windows; ``last_time`` gives the terminal time per path."""
    th, tt = paths.tau_hit, last_time
    r = np.arange(1, paths.h.shape[1])
    win_i = np.where(r <= th[:, None], paths.j, 0.0)
    win_d = np.where((r > th[:, None]) & (r <= tt[:, None]), paths.d, 0.0)
    num_i = ordered_sum(paths.prob * ordered_sum(win_i))
    den_i = ordered_sum(paths.prob * th)
    num_d = ordered_sum(paths.prob * ordered_sum(win_d))
    den_d = ordered_sum(paths.prob * (tt - th))
    if den_i <= 1e-12:
        raise SchemaError("empty pre-hit window: cannot form the information constant")
    if den_d <= 1e-12:
        raise SchemaError(
            "the entropy path never crosses eps before the end: no divergence window"
        )
    return float(num_i / den_i), float(num_d / den_d)


# ---------------------------------------------------------------------------
# linear entropy drift
# ---------------------------------------------------------------------------


def verify_linear_drift(law: JointLaw, tol: float = DRIFT_TOL) -> Verdict:
    """Expected one-step entropy decrease at every realizable history is at
    most the conditional input-output information there.

    ``worst`` is the smallest value of (information - decrease); the
    constants report the largest absolute gap, which is ~0 on instances
    where the encoder makes the message and the input one-to-one.
    """
    table = node_table(law)
    h = table.h
    # drop = H(prev) - sum_y P(y | prev) H(prev y), subtracted term by term
    drop = child_expectation(law, -h, start=h[: table.prob.size])
    margins = (table.node_mi - drop)[np.argsort(table.node)].tolist()
    worst = min([math.inf, *margins])
    return Verdict(
        check="linear-drift",
        instance=_instance_name(law),
        count=len(margins),
        worst=worst,
        passed=worst >= -tol,
        constants={"tol": tol, "max_abs_gap": max([0.0, *map(abs, margins)])},
    )


# ---------------------------------------------------------------------------
# logarithmic entropy drift
# ---------------------------------------------------------------------------


def verify_log_drift(
    law: JointLaw,
    eps: float,
    c: float | None = None,
    tol: float = DRIFT_TOL,
    mutate: str | None = None,
) -> Verdict:
    """On low-entropy histories (0 < H < eps), the expected one-step drop of
    log2 H is at most the worst-case effective divergence plus a slack
    proportional to the inverse binary entropy of eps.

    Reports the minimal constant that would pass, so a failure under the
    default constant is quantified.
    """
    rows, d_max, slack, d_r = _low_entropy_setup(law, eps, mutate)
    table = node_table(law)
    h = table.h
    if c is None:
        c = 2.0 * (1.0 + d_max) + d_max + 2.0
    log_h = np.array([math.log2(v) if v > 0.0 else -math.inf for v in h.tolist()])
    # a realizable child at zero entropy sends the drift to -inf
    kids = table.children[rows]
    dead = ((kids >= 0) & (h[kids] <= 0.0)).any(axis=1)
    drift = np.where(dead, -math.inf, child_expectation(law, log_h, rows) - log_h[rows])
    # an infinite divergence or constant allows any drop: the row passes
    # vacuously, and -inf + inf is never formed
    finite = ~np.isinf(d_r)
    vacuous = ~finite | math.isinf(c)
    bounded = drift + np.where(vacuous, 0.0, d_r) + (0.0 if math.isinf(c) else c) * slack
    margins = np.where(vacuous, math.inf, bounded).tolist()
    worst = min([math.inf, *margins])
    need = (-drift[finite] - d_r[finite]) / slack if slack > 0 else np.zeros(0)
    c_min = max([0.0, *need.tolist()])
    details = (_INFINITE_C,) if margins and math.isinf(c) else () if margins else (_VACUOUS,)
    return Verdict(
        check="log-drift",
        instance=_instance_name(law),
        count=len(margins),
        worst=worst,
        passed=worst >= -tol,
        constants={
            "eps": eps,
            "c": c,
            "c_minimal_passing": c_min,
            "hb_inv_eps": slack,
            "d_max": d_max,
            "mutate": mutate or "none",
        },
        details=details,
    )


# ---------------------------------------------------------------------------
# pruned compensated process: submartingale check
# ---------------------------------------------------------------------------


def default_lambda_grid() -> tuple[float, ...]:
    return tuple(2.0**-k for k in range(21))


def _z_value(h: float, eps: float, i_const: float, d_const: float, lam: float) -> float:
    if h >= eps:
        return (h - eps) / i_const
    y = math.log2(h / eps)
    return y / d_const + (1.0 - math.exp(lam * y)) / (lam * d_const)


def _s_values(
    paths: _Paths, eps: float, i_const: float, d_const: float, logm: float
) -> np.ndarray:
    """Compensator paths S_0..S_N: information credits before the hit,
    capped excursion credits between the hit and the last crossing (only
    while the previous entropy is at least sqrt(eps)), divergence credits
    afterwards, plus a one-off sqrt(eps) * N / I once past the last
    crossing."""
    n = paths.h.shape[1] - 1
    th, tl = paths.tau_hit[:, None], paths.tau_last[:, None]
    r = np.arange(n + 1)
    root = math.sqrt(eps)
    excursion = np.where(paths.h[:, :-1] >= root, logm / i_const, 0.0)
    inc = np.where(r[1:] <= th, paths.j / i_const,
                   np.where(r[1:] <= tl, excursion, paths.d / d_const))
    s = np.cumsum(np.hstack((np.zeros((inc.shape[0], 1)), inc)), axis=1)
    return s + np.where(r >= tl, root * n / i_const, 0.0)


def _atoms(paths: _Paths, pruned: np.ndarray) -> np.ndarray:
    """Conditioning atom (m, y^{t_m}) of every (path, m < N), path-major,
    numbered in order of first appearance."""
    n = pruned.shape[1] - 1
    prefix = np.take_along_axis(paths.nodes, pruned[:, :-1], axis=1)
    _, first, inv = np.unique((prefix * n + np.arange(n)).ravel(),
                              return_index=True, return_inverse=True)
    rank = np.empty_like(first)
    rank[np.argsort(first)] = np.arange(first.size)
    return rank[inv.ravel()]


def _f_precondition_holds(eps: float, i_const: float, d_const: float, lam: float, eta: float) -> tuple[bool, float]:
    ys = np.linspace(-eta, 0.0, 1002)[1:-1]
    lhs = (eps / i_const) * (np.exp(ys) - 1.0) - ys / d_const
    f = (1.0 - np.exp(lam * ys)) / (lam * d_const)
    gap = float(np.min(f - lhs))
    return bool(np.all(lhs < f)), gap


def verify_submartingale_L(
    law: JointLaw,
    eps: float,
    lam_grid: tuple[float, ...] | None = None,
    i_const: float | None = None,
    d_const: float | None = None,
    tol: float = DRIFT_TOL,
    mutate: str | None = None,
) -> Verdict:
    """The compensated pruned process L_n = Z_{t_n} + S_{t_n} is a
    submartingale: conditional on each realized pruned history, the expected
    increment is nonnegative.

    Conditioning atoms are the realized pruned-history strings y^{t_n};
    because the pruned index collapses the post-threshold excursion, paths
    sharing a plain prefix may sit in different atoms.  A shape parameter
    lambda is admissible when its convexity precondition holds on a dense
    sample of the negative log-ratio range; the verdict reports the largest
    grid lambda that is admissible and passes every atom at every step.
    Per lambda, Z is evaluated once per distinct entropy of the histories
    on the paths and each atom's increments are summed with one
    ``np.bincount`` in path order.
    """
    _check_mutation(mutate)
    if not law.is_message_form:
        raise SchemaError("submartingale check needs a message-form law")
    if law.messages < 2:
        raise SchemaError("need at least two messages")
    logm = math.log2(law.messages)
    if not 0.0 < eps < logm:
        raise SchemaError("eps must lie in (0, log2 M)")
    eta = log_ratio_bound(law.channel)  # raises unless strictly positive
    paths = _paths(law, eps, mutate)
    n = law.horizon
    if i_const is None or d_const is None:
        i_auto, d_auto = _phase_constants(paths, np.full(paths.prob.size, n))
        i_const = i_auto if i_const is None else i_const
        d_const = d_auto if d_const is None else d_const
    if lam_grid is None:
        lam_grid = default_lambda_grid()

    pruned = _pruned_index(np.arange(n + 1), paths.tau_hit[:, None], paths.tau_last[:, None], n)
    s = np.take_along_axis(_s_values(paths, eps, i_const, d_const, logm), pruned, axis=1)
    atom = _atoms(paths, pruned)
    n_atoms = int(atom.max()) + 1 if atom.size else 0
    mass = np.bincount(atom, np.repeat(paths.prob, n), n_atoms)
    by_atom = np.argsort(atom, kind="stable")
    starts = np.flatnonzero(np.diff(atom[by_atom], prepend=-1))
    nodes, on_path = np.unique(paths.nodes, return_inverse=True)
    h_nodes = node_table(law).h[nodes]
    zero = np.flatnonzero(~(h_nodes > 0.0))
    if zero.size:
        # a strictly positive channel leaves every message mass: H = 0 is underflow
        hist = node_table(law).history(nodes[zero[0]])
        raise DistributionError(f"history {hist} at time {len(hist)} has message entropy "
                                "0.0 (an underflowed posterior), where Z takes log2 H")
    # Z depends on a node only through its entropy: one value per distinct H
    h_values, node_h = np.unique(h_nodes, return_inverse=True)
    path_h = node_h[on_path].reshape(paths.nodes.shape)
    h_values = h_values.tolist()

    details: list[str] = []
    best_lam = None
    best_worst = -math.inf
    best_count = 0
    for lam in sorted(lam_grid, reverse=True):
        pre_ok, pre_gap = _f_precondition_holds(eps, i_const, d_const, lam, eta)
        if not pre_ok:
            details.append(f"lambda={lam:g}: precondition violated (gap {pre_gap:.3e})")
            continue
        z = np.array([_z_value(v, eps, i_const, d_const, lam) for v in h_values])[path_h]
        l = np.take_along_axis(z, pruned, axis=1) + s
        num = np.bincount(atom, (paths.prob[:, None] * (l[:, 1:] - l[:, :-1])).ravel(), n_atoms)
        worst = min([math.inf, *(num / mass).tolist()])
        at_m = l[:, :-1].ravel()[by_atom]
        spread = max((np.maximum.reduceat(at_m, starts)
                      - np.minimum.reduceat(at_m, starts)).tolist())
        if spread > 1e-8:
            details.append(f"lambda={lam:g}: non-constant L on an atom (spread {spread:.2e})")
            continue
        ok = worst >= -tol
        details.append(
            f"lambda={lam:g}: atoms={n_atoms} worst-margin={worst:.6g} "
            f"{'pass' if ok else 'fail'}"
        )
        if ok and best_lam is None:
            best_lam, best_worst, best_count = lam, worst, n_atoms
        if best_lam is None and worst > best_worst:
            best_worst, best_count = worst, n_atoms
    passed = best_lam is not None
    return Verdict(
        check="pruned-submartingale",
        instance=_instance_name(law),
        count=best_count,
        worst=best_worst,
        passed=passed,
        constants={
            "eps": eps,
            "i_const": i_const,
            "d_const": d_const,
            "eta": eta,
            "lambda_best": best_lam if best_lam is not None else float("nan"),
            "mutate": mutate or "none",
        },
        details=tuple(details),
    )


# ---------------------------------------------------------------------------
# decoder entropy ceiling
# ---------------------------------------------------------------------------


def verify_fano(law: JointLaw, rule: StoppingRule | None = None, tol: float = 1e-9) -> Verdict:
    """Conditional message entropy at each stop node is at most
    h(pe) + pe * log2(M-1) for the node's decoder error probability, for
    both the posterior-maximizing decoder and a constant decoder; the
    averaged version is checked as well.
    """
    if not law.is_message_form:
        raise SchemaError("decoder check needs a message-form law")
    rule = _stop_rule(law, rule)
    m = law.messages
    log_m1 = math.log2(m - 1) if m > 1 else 0.0
    table = node_table(law)
    stop = stop_nodes(law, rule)
    mu, h_node, p = table.posterior[stop], table.h[stop], table.leaf_prob
    worst = math.inf
    count = 0
    details = []
    for decoder in ("map", "constant"):
        w_hat = np.nanargmax(mu, axis=1) if decoder == "map" else np.zeros(stop.size, dtype=int)
        pe = 1.0 - mu[np.arange(stop.size), w_hat]
        # weight each stop node by the mass of each full path through it
        avg_h = float(ordered_sum(p * h_node))
        avg_pe = float(ordered_sum(p * pe))
        margins = (_fano_ceilings(np.append(pe, avg_pe), log_m1)
                   - np.append(h_node, avg_h)).tolist()
        worst = min([worst, *margins])
        count += len(margins)
        details.append(f"{decoder} decoder: avg error {avg_pe:.6g}, avg entropy {avg_h:.6g}")
    return Verdict(
        check="decoder-entropy-ceiling",
        instance=_instance_name(law),
        count=count,
        worst=worst,
        passed=worst >= -tol,
        constants={"tol": tol},
        details=tuple(details),
    )


# ---------------------------------------------------------------------------
# compensator budget
# ---------------------------------------------------------------------------


def verify_lemma4_budget(
    law: JointLaw,
    eps: float,
    rule: StoppingRule | None = None,
    tol: float = DRIFT_TOL,
) -> Verdict:
    """The expected terminal compensator E[S at max(T, tau_last)] stays
    within E[T] * (1 + V), where V collects the square-root-eps excursion
    credits.  Valid only when eps exceeds the decoder entropy ceiling
    h(pe) + pe * log2 M at the stop.
    """
    if not law.is_message_form:
        raise SchemaError("compensator budget needs a message-form law")
    n = law.horizon
    rule = _stop_rule(law, rule)
    logm = math.log2(law.messages)

    pe, et = stop_error(law, rule)
    alpha = _fano_ceiling(pe, logm)
    if not eps > alpha:  # also refuses NaN
        raise SchemaError(
            f"eps={eps:g} must exceed the decoder entropy ceiling {alpha:.6g}"
        )

    paths = _paths(law, eps, mutate=None)
    stop = path_stop_times(law, rule)[paths.leaf]
    i_const, d_const = _phase_constants(paths, stop)
    rate = logm / et
    v_term = _v_term(rate, i_const, eps, n, et)

    if d_const == 0.0 and np.any(paths.tau_last < n):
        raise SchemaError("no divergence after the stop: the divergence constant is 0")
    s = _s_values(paths, eps, i_const, d_const, logm)
    t_end = np.maximum(stop, paths.tau_last)
    es = float(ordered_sum(paths.prob * s[np.arange(stop.size), t_end]))
    rhs = et * (1.0 + v_term)
    margin = rhs - es
    return Verdict(
        check="compensator-budget",
        instance=_instance_name(law),
        count=stop.size,
        worst=margin,
        passed=margin >= -tol,
        constants={
            "eps": eps,
            "i_const": i_const,
            "d_const": d_const,
            "pe": pe,
            "entropy_ceiling": alpha,
            "expected_stop": et,
            "v_term": v_term,
            "expected_compensator": es,
        },
    )


# ---------------------------------------------------------------------------
# divergence transfer at low entropy
# ---------------------------------------------------------------------------


def verify_lemma5_kl_transfer(
    law: JointLaw,
    eps: float,
    cprime: float | None = None,
    tol: float = DRIFT_TOL,
    mutate: str | None = None,
) -> Verdict:
    """At histories with entropy inside (0, eps), the worst divergence of
    the leading message's output row against the other messages' rows is at
    most the corresponding worst divergence between effective input rows
    plus a slack linear in the inverse binary entropy of eps.
    """
    rows, d_max, slack, rhs = _low_entropy_setup(law, eps, mutate)
    if cprime is None:
        cprime = 4.0 * (1.0 + d_max)
    table = node_table(law)
    w_rows = table.step[rows]
    w_star = table.posterior[rows].argmax(axis=1)  # the most likely message, ties to the lowest
    others = ~np.isnan(w_rows).any(axis=2)
    others[np.arange(rows.size), w_star] = False
    d = _row_kl(w_rows[np.arange(rows.size), w_star], w_rows, others)
    lhs = np.where(d > 0.0, d, 0.0).max(axis=1)  # NaN off ``others``
    margins = (rhs + cprime * slack - lhs).tolist()
    worst = min([math.inf, *margins])
    cprime_min = max([0.0, *((lhs - rhs) / slack).tolist()]) if slack > 0 else 0.0
    details = () if margins else (_VACUOUS,)
    return Verdict(
        check="kl-transfer",
        instance=_instance_name(law),
        count=len(margins),
        worst=worst,
        passed=worst >= -tol,
        constants={
            "eps": eps,
            "cprime": cprime,
            "cprime_minimal_passing": cprime_min,
            "hb_inv_eps": slack,
            "d_max": d_max,
            "mutate": mutate or "none",
        },
        details=details,
    )


# ---------------------------------------------------------------------------
# random-instance checks
# ---------------------------------------------------------------------------


def verify_lemma7(trials: int = 10**5, seed: int = 0, tol: float = 1e-9) -> Verdict:
    """Log-sum split: sum_l p_l log2(sum_i mu_i / sum_i beta_il) is at most
    max_i sum_l p_l log2(mu_i / beta_il), on random positive instances of
    dimensions 2..``LEMMA7_MAX_DIM``."""
    rng = np.random.default_rng(seed)
    worst = math.inf
    count = 0
    dims = [(k, l) for k in range(2, LEMMA7_MAX_DIM + 1) for l in range(2, LEMMA7_MAX_DIM + 1)]
    per = max(1, -(-trials // len(dims)))  # ceil: at least `trials` in total
    for k, l in dims:
        mu = rng.random((per, k)) + 1e-12
        beta = rng.random((per, k, l)) + 1e-12
        p = rng.random((per, l)) + 1e-12
        p /= p.sum(axis=1, keepdims=True)
        lhs = (p * np.log2(mu.sum(axis=1, keepdims=True) / beta.sum(axis=1))).sum(axis=1)
        per_i = (p[:, None, :] * np.log2(mu[:, :, None] / beta)).sum(axis=2)
        rhs = per_i.max(axis=1)
        worst = min(worst, float((rhs - lhs).min()))
        count += per
    return Verdict(
        check="log-sum-split",
        instance=f"random positive instances, dims 2..{LEMMA7_MAX_DIM}",
        count=count,
        worst=worst,
        passed=worst >= -tol,
        constants={"tol": tol, "seed": seed},
    )


def verify_entropy_proposition(
    trials: int = 10**5, seed: int = 0, tol: float = 1e-12
) -> Verdict:
    """A distribution whose largest atom is at most one half has at least
    one bit of entropy; random rejection-sampled instances plus adversarial
    near-boundary ones."""
    rng = np.random.default_rng(seed)
    worst = math.inf
    count = 0
    # dimension 2 has zero acceptance mass under rejection (only the exact
    # half-half point qualifies), so it is covered by the adversarial cases
    for dim in (3, 4, 6, 8):
        need = max(1, trials // 4)
        got = 0
        while got < need:
            batch = rng.dirichlet(np.ones(dim), size=need * 2)
            ok = batch.max(axis=1) <= 0.5
            batch = batch[ok][: need - got]
            if batch.size:
                with np.errstate(divide="ignore"):
                    lg = np.where(batch > 0, np.log2(np.where(batch > 0, batch, 1.0)), 0.0)
                hs = -(batch * lg).sum(axis=1)
                worst = min(worst, float(hs.min()) - 1.0)
                got += batch.shape[0]
        count += need
    # adversarial: exactly-half atoms and slim remainders
    for p in (
        [0.5, 0.5],
        [0.5, 0.5 - 1e-12, 1e-12],
        [0.5, 0.25, 0.25],
        [0.5, 0.49999999, 1e-8],
    ):
        worst = min(worst, entropy(np.array(p)) - 1.0)
        count += 1
    return Verdict(
        check="half-atom-entropy-floor",
        instance="random + adversarial distributions",
        count=count,
        worst=worst,
        passed=worst >= -tol,
        constants={"tol": tol, "seed": seed},
    )


def _walk_paths(rng: np.random.Generator, trials: int, steps: int) -> np.ndarray:
    """Running products of ``trials`` walks of ``steps`` factors 0.5 or 1.4,
    one row per step: each step multiplies every trial's contiguous product."""
    factors = np.where(rng.random((trials, steps)) < 0.5, 0.5, 1.4)
    return np.cumprod(factors.T, axis=0, out=np.empty((steps, trials)))


def verify_maximal_inequality(
    law: JointLaw | None = None,
    trials: int = 10**4,
    seed: int = 0,
) -> Verdict:
    """Monte Carlo check of the nonnegative-supermartingale maximal
    inequality: the running-supremum exceedance frequency stays below the
    started mean over the level, plus three binomial standard errors.

    Generators: the message-entropy process of a feedback law (exact
    one-step decrease verified from the law), and a multiplicative walk
    with mean factor 0.95 (decrease verified analytically).
    """
    rng = np.random.default_rng(seed)
    details = []
    worst = math.inf
    count = 0

    if law is None:
        law = forward_joint(bsc(0.1), repetition_encoder(2, 2, 6), 6)
    if law.horizon < 1:
        raise SchemaError("the entropy process needs a law of horizon >= 1")
    table = node_table(law)
    h = table.h
    # generator self-check: expected one-step decrease at every history
    if np.any(child_expectation(law, h) > h[: table.prob.size] + SELF_CHECK_TOL):
        raise SchemaError("entropy process failed its decrease self-check")
    order = np.argsort(table.leaf)
    probs = table.leaf_prob[order]
    probs = probs / probs.sum()
    idx = rng.choice(len(order), size=trials, p=probs)
    h_paths = h[table.path_nodes[order[idx]]]
    start_mean = float(h_paths[:, 1].mean())
    sup = h_paths[:, 1:].max(axis=1)
    for c in (0.2, 0.5, 0.9):
        freq = float((sup > c).mean())
        se = math.sqrt(max(freq * (1 - freq), 1e-12) / trials)
        bound = start_mean / c + 3.0 * se
        margin = bound - freq
        worst = min(worst, margin)
        count += 1
        details.append(f"entropy-process c={c:g}: freq={freq:.4g} bound={bound:.4g}")

    assert abs(0.5 * 0.5 + 0.5 * 1.4 - 0.95) < SELF_CHECK_TOL  # walk decrease factor
    walk_sup = _walk_paths(rng, trials, 30).max(axis=0)
    for c in (1.5, 2.0, 4.0):
        freq = float((walk_sup > c).mean())
        se = math.sqrt(max(freq * (1 - freq), 1e-12) / trials)
        bound = 1.0 / c + 3.0 * se
        margin = bound - freq
        worst = min(worst, margin)
        count += 1
        details.append(f"multiplicative-walk c={c:g}: freq={freq:.4g} bound={bound:.4g}")

    return Verdict(
        check="maximal-inequality",
        instance="entropy process + multiplicative walk",
        count=count,
        worst=worst,
        passed=worst >= 0.0,
        constants={"trials": trials, "seed": seed},
        details=tuple(details),
    )
