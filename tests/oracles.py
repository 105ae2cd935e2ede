"""Independent brute-force reference implementations used only by tests.

Everything here recomputes quantities from first principles with flat
cartesian-product loops and explicit probability formulas, sharing no code
with the library beyond numpy.  Deliberately slow and simple.  The
exceptions are the last five sections: the per-rule loops, the frozenset
rule enumeration and the block fill that the stopping-rule and node tables
replaced, the recursive joint-law enumeration and memo-free capacity
search that the level arrays replaced, the per-history drift checks and
residual terms that the node-table reductions replaced, the simulator's
recursive tree walk and per-trial state path that the array passes
replaced, and the dict law engine and its views that the law's arrays and
the node table's accessors replaced, kept as references for bit-identity.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass, field

import numpy as np


def log2(v: float) -> float:
    return math.log2(v)


def oracle_joint(q, kernel_fn, policy_fn, m, horizon):
    """Joint law over (w, x^N, s^N, y^N) by full enumeration.

    q[s][x][y] nested lists; kernel_fn(t, s_hist, x_hist) -> list of state
    probabilities; policy_fn(t, w, x_hist, y_hist) -> list of input
    probabilities (message-form policies embed the message dependence here).
    Returns dict mapping (w, xs, ss, ys) -> probability, zero entries absent.
    """
    s_size = len(q)
    x_size = len(q[0])
    y_size = len(q[0][0])
    out = {}
    for w in range(m):
        for xs in itertools.product(range(x_size), repeat=horizon):
            for ss in itertools.product(range(s_size), repeat=horizon):
                for ys in itertools.product(range(y_size), repeat=horizon):
                    p = 1.0 / m
                    for t in range(1, horizon + 1):
                        xh, sh, yh = xs[: t - 1], ss[: t - 1], ys[: t - 1]
                        p *= policy_fn(t, w, xh, yh)[xs[t - 1]]
                        p *= kernel_fn(t, sh, xh)[ss[t - 1]]
                        p *= q[ss[t - 1]][xs[t - 1]][ys[t - 1]]
                        if p == 0.0:
                            break
                    if p > 0.0:
                        out[(w, xs, ss, ys)] = p
    return out


def marginal_y(joint, upto):
    """P(y^upto) from an oracle joint dict."""
    out = {}
    for (w, xs, ss, ys), p in joint.items():
        key = ys[:upto]
        out[key] = out.get(key, 0.0) + p
    return out


def posterior_w(joint, ynode):
    """P(w | y^t = ynode) from an oracle joint dict."""
    t = len(ynode)
    mass = {}
    for (w, xs, ss, ys), p in joint.items():
        if ys[:t] == ynode:
            mass[w] = mass.get(w, 0.0) + p
    z = sum(mass.values())
    return {w: v / z for w, v in mass.items()}


def entropy_bits(dist) -> float:
    vals = dist.values() if isinstance(dist, dict) else dist
    return -sum(p * log2(p) for p in vals if p > 0.0)


def kl_bits(p, q) -> float:
    total = 0.0
    for a, b in zip(p, q):
        if a > 0.0:
            if b == 0.0:
                return math.inf
            total += a * log2(a / b)
    return total


def mutual_information_bits(joint) -> float:
    """I(A;B) in bits from a joint table P(a, b), cell by cell in row-major
    order with ``np.log2``: the scalar loop the bulk kernel replaced."""
    j = np.asarray(joint, dtype=float)
    if np.any(j < 0):
        from fbound.channel_model import DistributionError

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
                ratio = v / den if den >= sys.float_info.min else v / pa[a] / pb[b]
                total += v * np.log2(ratio)
    return float(total)


def oracle_directed_mi(joint, n, x_size, y_size):
    """sum_i I(X_i; Y_i | Y^{i-1}) computed directly from the joint dict."""
    total = 0.0
    for t in range(1, n + 1):
        prevs = marginal_y(joint, t - 1)
        for prev, pprev in prevs.items():
            xy = [[0.0] * y_size for _ in range(x_size)]
            for (w, xs, ss, ys), p in joint.items():
                if ys[: t - 1] == prev:
                    xy[xs[t - 1]][ys[t - 1]] += p
            term = 0.0
            px = [sum(row) for row in xy]
            py = [sum(xy[x][y] for x in range(x_size)) for y in range(y_size)]
            z = sum(px)
            for x in range(x_size):
                for y in range(y_size):
                    v = xy[x][y] / z
                    if v > 0.0:
                        term += v * log2(v * z * z / (px[x] * py[y]))
            total += pprev * term
    return total


def oracle_effective_rows(joint, t, prev, x_size, y_size):
    """P(Y_t | X_t = x, y^{t-1} = prev) rows plus the most likely input."""
    xy = [[0.0] * y_size for _ in range(x_size)]
    for (w, xs, ss, ys), p in joint.items():
        if ys[: t - 1] == prev:
            xy[xs[t - 1]][ys[t - 1]] += p
    nu = [sum(row) for row in xy]
    z = sum(nu)
    rows = {}
    best_x, best_v = None, -1.0
    for x in range(x_size):
        if nu[x] > 0.0:
            rows[x] = [v / nu[x] for v in xy[x]]
            if nu[x] / z > best_v + 1e-15:
                best_x, best_v = x, nu[x] / z
    return best_x, rows


def oracle_directed_kl(joint, a, b, x_size, y_size):
    """Double loop over (step, history, input): each history's worst-row
    divergence from the most likely input's row, over steps a..b."""
    total = 0.0
    for t in range(a, b + 1):
        for prev, pprev in marginal_y(joint, t - 1).items():
            x_star, rows = oracle_effective_rows(joint, t, prev, x_size, y_size)
            base = rows[x_star]
            total += pprev * max(kl_bits(base, r) for r in rows.values())
    return total


def oracle_capacity_binary_input(q_rows, grid=20001):
    """DMC capacity over a binary input by dense line search (bits)."""
    best = 0.0
    for i in range(grid):
        r = i / (grid - 1)
        dist = [r, 1 - r]
        py = [sum(dist[x] * q_rows[x][y] for x in range(2)) for y in range(len(q_rows[0]))]
        val = 0.0
        for x in range(2):
            for y in range(len(q_rows[0])):
                if dist[x] > 0 and q_rows[x][y] > 0:
                    val += dist[x] * q_rows[x][y] * log2(q_rows[x][y] / py[y])
        best = max(best, val)
    return best


def oracle_vlc(q, kernel_fn, codebook, confirm, threshold, m, n1, n2, cap):
    """Error probability and mean stop time of a send-and-confirm scheme by
    enumerating complete output sequences and walking the protocol on each.

    q[s][x][y] nested lists, kernel_fn as in oracle_joint.  For every full
    output word the walk yields the stop time, the decision and the input
    sequence actually sent; the prefix probability then sums explicitly over
    state sequences.  Stopped prefixes are deduplicated so each contributes
    once.  Returns (pe, et).
    """
    s_size = len(q)
    x_size = len(q[0])
    y_size = len(q[0][0])
    xa, xn = confirm
    total_uses = cap * (n1 + n2)
    init = kernel_fn(1, (), ())
    qbar = [
        [sum(init[s] * q[s][x][y] for s in range(s_size)) for y in range(y_size)]
        for x in range(x_size)
    ]
    logq = [
        [log2(v) if v > 0.0 else float("-inf") for v in row] for row in qbar
    ]

    def walk(w, ys):
        xs = []
        t = 0
        for b in range(cap):
            data = []
            for pos in range(n1):
                xs.append(codebook[w][pos])
                data.append(ys[t])
                t += 1
            ll = [
                sum(logq[codebook[c][j]][data[j]] for j in range(n1))
                for c in range(m)
            ]
            w_hat = ll.index(max(ll))
            xc = xa if w_hat == w else xn
            llr = 0.0
            for pos in range(n2):
                xs.append(xc)
                llr += logq[xa][ys[t]] - logq[xn][ys[t]]
                t += 1
            if llr >= threshold or b == cap - 1:
                return t, w_hat != w, tuple(xs)
        raise AssertionError("unreachable: final block always stops")

    pe = 0.0
    et = 0.0
    for w in range(m):
        seen = set()
        for ys in itertools.product(range(y_size), repeat=total_uses):
            t, err, xs = walk(w, ys)
            if ys[:t] in seen:
                continue
            seen.add(ys[:t])
            p = 0.0
            for ss in itertools.product(range(s_size), repeat=t):
                pp = 1.0 / m
                for r in range(1, t + 1):
                    pp *= kernel_fn(r, ss[: r - 1], xs[: r - 1])[ss[r - 1]]
                    pp *= q[ss[r - 1]][xs[r - 1]][ys[r - 1]]
                    if pp == 0.0:
                        break
                p += pp
            et += p * t
            if err:
                pe += p
    return pe, et


# ---------------------------------------------------------------------------
# per-rule loops replaced by the stopping-rule and node tables
# ---------------------------------------------------------------------------
#
# The per-history loops that ``StoppingRule``'s tables and the per-law node
# table of ``info_measures`` replaced, kept verbatim (``self`` became the
# ``rule`` argument) as the reference for bit-identity tests.  Their
# information terms are ``mutual_information_bits``; unlike the oracles above
# they call the library's ``kl`` for the worst-row divergence, which is not
# what these references check: the tests compare sums, orders and rule logic
# with ``==``.


def _step_kl_per_history(law, t, prev):
    """max_x D(row(x*) || row(x)) over realizable inputs at one history."""
    return _loop_worst_row_kl(dict_law(law).xy_node[t][prev])


def loop_stop_time(rule, path):
    """Length of the unique stopped prefix of a full-horizon path."""
    from fbound.channel_model import SchemaError

    tup = tuple(path)
    for k in range(1, len(tup) + 1):
        if tup[:k] in rule.stops:
            return k
    raise SchemaError(f"path {tup} has no stopped prefix")


def loop_is_stopped(rule, hist):
    tup = tuple(hist)
    return any(tup[:k] in rule.stops for k in range(1, len(tup) + 1))


def loop_dominates(rule, other):
    """True when this rule stops no later than ``other`` on every path."""
    for leaf in itertools.product(range(rule.y_size), repeat=rule.horizon):
        if loop_stop_time(rule, leaf) > loop_stop_time(other, leaf):
            return False
    return True


def loop_rule_tables(stops, n, y):
    """``StoppingRule``'s checks and tables as its constructor built them,
    one stop node at a time: (stop_times, stopped_nodes)."""
    from fbound.channel_model import SchemaError, _path_at, _symbol_index, check_tree_size

    stops = frozenset(tuple(s) for s in stops)
    if n < 1 or y < 1:
        raise SchemaError("stopping rule needs horizon >= 1 and a non-empty output alphabet")
    check_tree_size(y, n)
    stime = np.zeros(y**n, dtype=np.int64)
    # shorter nodes first, so an overlap names the longer node
    for node in sorted(stops, key=len):
        if not 1 <= len(node) <= n:
            raise SchemaError(f"stop node {node} outside 1..{n}")
        width = y ** (n - len(node))
        block = stime[_symbol_index(node, y) * width :][:width]
        if block.any():
            raise SchemaError(f"stop set is not prefix-minimal at {node}")
        block[:] = len(node)
    # exhaustiveness at the horizon
    unstopped = np.flatnonzero(stime == 0)
    if unstopped.size:
        raise SchemaError(f"rule never stops along {_path_at(unstopped[0], y, n)}")
    stopped = np.concatenate([stime[:: y ** (n - t)] <= t for t in range(n)])
    return stime, stopped


def block_stop_time_table(stops: frozenset, n: int, y: int) -> np.ndarray:
    """``StoppingRule``'s stop-time fill with its block fast path, as the
    library had it: without the exhaustiveness check, which the
    constructor ran after it."""
    from fbound.channel_model import SchemaError, _symbol_index

    stime = np.zeros(y**n, dtype=np.int64)
    ordered = sorted(stops, key=len)  # shorter first: an overlap names the longer node
    for length, group in itertools.groupby(ordered, key=len):
        flat = list(itertools.chain.from_iterable(group))
        # only symbol types the per-node check accepts (np.bool_ is not one)
        if not (1 <= length <= n
                and all(issubclass(k, (int, np.integer)) for k in set(map(type, flat)))):
            break
        try:
            syms = np.fromiter(flat, dtype=np.int64, count=len(flat)).reshape(-1, length)
        except OverflowError:
            break
        blocks = stime.reshape(-1, y ** (n - length))
        index = syms @ y ** np.arange(length - 1, -1, -1)
        if not ((syms >= 0) & (syms < y)).all() or blocks[index].any():
            break
        blocks[index] = length
    else:
        return stime
    stime[:] = 0
    for node in ordered:
        if not 1 <= len(node) <= n:
            raise SchemaError(f"stop node {node} outside 1..{n}")
        width = y ** (n - len(node))
        block = stime[_symbol_index(node, y) * width :][:width]
        if block.any():
            raise SchemaError(f"stop set is not prefix-minimal at {node}")
        block[:] = len(node)
    return stime


def block_rule_tables(stops, n, y):
    """``StoppingRule``'s checks and tables as its constructor built them
    with the block fill: (stop_times, stopped_nodes)."""
    from fbound.channel_model import SchemaError, _path_at, check_tree_size

    stops = frozenset(tuple(s) for s in stops)
    if n < 1 or y < 1:
        raise SchemaError("stopping rule needs horizon >= 1 and a non-empty output alphabet")
    check_tree_size(y, n)
    stime = block_stop_time_table(stops, n, y)
    # exhaustiveness at the horizon
    unstopped = np.flatnonzero(stime == 0)
    if unstopped.size:
        raise SchemaError(f"rule never stops along {_path_at(unstopped[0], y, n)}")
    stopped = np.concatenate([stime[:: y ** (n - t)] <= t for t in range(n)])
    return stime, stopped


def loop_enumerate_stopping_rules(horizon, y_size, cap=10**5):
    """All prefix-minimal bounded stopping rules up to the horizon, as the
    library enumerated them: one frozenset of stop nodes per rule, merged
    from the children's sets, each rule built from its set."""
    from fbound.channel_model import BudgetExceededError, StoppingRule

    def node_options(depth: int) -> list[frozenset[tuple[int, ...]]]:
        # options for the subtree hanging below a node at this depth, each a
        # set of stop nodes given as suffixes
        if depth == horizon:
            return [frozenset([()])]
        out = [frozenset([()])]
        child_opts = node_options(depth + 1)
        for combo in itertools.product(child_opts, repeat=y_size):
            merged = frozenset(
                (sym,) + suffix for sym, opt in enumerate(combo) for suffix in opt
            )
            out.append(merged)
            if len(out) > cap:
                raise BudgetExceededError(
                    f"stopping-rule count exceeds cap {cap} at horizon {horizon}"
                )
        return out

    rules = []
    # the root itself cannot stop (T >= 1), so expand the first symbol level
    child_opts = node_options(1)
    for combo in itertools.product(child_opts, repeat=y_size):
        stops = frozenset(
            (sym,) + suffix for sym, opt in enumerate(combo) for suffix in opt
        )
        rules.append(StoppingRule(horizon=horizon, y_size=y_size, stops=stops))
        if len(rules) > cap:
            raise BudgetExceededError(
                f"stopping-rule count exceeds cap {cap} at horizon {horizon}"
            )
    return rules


def loop_check_rule_horizon(law, rule):
    """Refuse a stopping rule whose horizon is past the law's."""
    from fbound.channel_model import SchemaError

    if rule.horizon > law.horizon:
        raise SchemaError("stopping rule runs past the law horizon")


def loop_directed_mi_stopped(law, rule):
    loop_check_rule_horizon(law, rule)
    total = 0.0
    for t in range(1, rule.horizon + 1):
        for prev, xy in dict_law(law).xy_node[t].items():
            if loop_is_stopped(rule, prev):
                continue
            total += dict_law(law).node_prob[t - 1][prev] * mutual_information_bits(xy)
    return total


def loop_expected_stop_time(law, rule):
    loop_check_rule_horizon(law, rule)
    total = 0.0
    for path, p in dict_law(law).node_prob[law.horizon].items():
        total += p * loop_stop_time(rule, path[: rule.horizon])
    return total


def loop_directed_kl_stopped(law, first, last):
    from fbound.channel_model import SchemaError

    if not loop_dominates(first, last):
        raise SchemaError("window start must stop no later than window end")
    total = 0.0
    for t in range(1, last.horizon + 1):
        for prev, _ in dict_law(law).xy_node[t].items():
            # live in the window iff T1 < t <= T, i.e. the start rule already
            # stopped strictly before t and the end rule has not
            if not loop_is_stopped(first, prev):
                continue
            if loop_is_stopped(last, prev):
                continue
            total += dict_law(law).node_prob[t - 1][prev] * _step_kl_per_history(law, t, prev)
    return total


def loop_step_aggregates(law):
    """E over histories of the per-step information and divergence terms."""
    import numpy as np

    n = law.horizon
    ej = np.zeros(n + 1)
    ed = np.zeros(n + 1)
    for t in range(1, n + 1):
        for prev, xy in dict_law(law).xy_node[t].items():
            p = dict_law(law).node_prob[t - 1][prev]
            ej[t] += p * mutual_information_bits(xy)
            ed[t] += p * _step_kl_per_history(law, t, prev)
    return ej, ed


def loop_rule_pairs(rules):
    """(first, last) rule pairs with first stopping no later than last."""
    return [
        (first, last)
        for first in rules
        for last in rules
        if first is not last and loop_dominates(first, last)
    ]


def full_encoder_tables(m, x_size, y_size, horizon):
    """Every deterministic encoder's step tables, ``tables[t - 1][w][i]``,
    in the search's enumeration order: the generator that
    ``bound_engine._encoder_steps`` replaced."""
    step_spaces = []
    for t in range(1, horizon + 1):
        ylen = y_size ** (t - 1)
        maps = []
        for flat in itertools.product(range(x_size), repeat=m * ylen):
            maps.append(tuple(tuple(flat[w * ylen : (w + 1) * ylen]) for w in range(m)))
        step_spaces.append(maps)
    yield from itertools.product(*step_spaces)


def blockwise_encoder_tables(m, x_size, y_size, horizon):
    """The step tables of every encoder whose input depends on the step and
    message alone, in the search's enumeration order."""
    per_step = list(itertools.product(range(x_size), repeat=m))
    for combo in itertools.product(per_step, repeat=horizon):
        yield tuple(
            tuple((combo[t - 1][w],) * (y_size ** (t - 1)) for w in range(m))
            for t in range(1, horizon + 1)
        )


def _tuple_index(hist, arity):
    idx = 0
    for sym in hist:
        idx = idx * arity + sym
    return idx


def encoder_input(policy, t, w, y_hist):
    """A message-form policy's input for message w at step t after the
    output history ``y_hist``: its step table's entry at the history's
    lexicographic index, taken modulo the table's width (1 or
    y_size**(t-1))."""
    step = policy.tables[t - 1]
    return int(step[w, _tuple_index(y_hist, policy.y_size) % step.shape[1]])


def behavioral_row(policy, t, x_hist, y_hist):
    """A behavioral policy's input row at (t, x_hist, y_hist): its rows are
    ordered by t, then x-history, then y-history, each lexicographic."""
    xy = policy.x_size * policy.y_size
    first = sum(xy ** (s - 1) for s in range(1, t))
    index = (_tuple_index(x_hist, policy.x_size) * policy.y_size ** (t - 1)
             + _tuple_index(y_hist, policy.y_size))
    return policy.rows[first + index]


def loop_pair_candidates(law, m, tables, pairs, pair_kind):
    """The per-law body of the exponent candidate search: every stopping
    pair of one encoder's law, one at a time."""
    out = []
    if pair_kind == "fixed":
        ej, ed = loop_step_aggregates(law)
        for t1, t in pairs:
            i_rate = float(ej[1 : t1 + 1].sum()) / t1
            d_rate = float(ed[t1 + 1 : t + 1].sum()) / (t - t1)
            out.append(
                {
                    "m": m,
                    "tables": tables,
                    "pair": (t1, t),
                    "i_rate": i_rate,
                    "d_rate": d_rate,
                    "et": float(t),
                    "et1": float(t1),
                }
            )
    else:
        for first, last in pairs:
            et1 = loop_expected_stop_time(law, first)
            et = loop_expected_stop_time(law, last)
            if et - et1 <= 1e-12:
                continue
            i_rate = loop_directed_mi_stopped(law, first) / et1
            d_rate = loop_directed_kl_stopped(law, first, last) / (et - et1)
            out.append(
                {
                    "m": m,
                    "tables": tables,
                    "pair": (
                        sorted(list(s) for s in first.stops),
                        sorted(list(s) for s in last.stops),
                    ),
                    "i_rate": i_rate,
                    "d_rate": d_rate,
                    "et": et,
                    "et1": et1,
                }
            )
    return out


def loop_candidate_value(cand, rate):
    """D * (1 - R/I) of one candidate dict, one value at a time."""
    i, d = cand["i_rate"], cand["d_rate"]
    if i <= 1e-12:  # numerically uninformative first phase
        return -math.inf
    if math.isinf(d):
        return math.inf if rate < i else -math.inf
    return d * (1.0 - rate / i)


def loop_best_candidate(cands, rate):
    """The candidate dict of largest value at ``rate``, by ``max``."""
    return max(cands, key=lambda c: loop_candidate_value(c, rate))


def loop_capacity_objective(law, rules):
    """Best stopped information per expected stop time over rules, one rule
    at a time; ties go to the earliest rule."""
    best_val, best_rule = -math.inf, None
    for rule in rules:
        et = loop_expected_stop_time(law, rule)
        val = loop_directed_mi_stopped(law, rule) / et
        if val > best_val:
            best_val, best_rule = val, rule
    return best_val, best_rule


def loop_directed_kl_per_history_max(law, a, b):
    total = 0.0
    for t in range(a, b + 1):
        for prev in dict_law(law).xy_node[t]:
            total += dict_law(law).node_prob[t - 1][prev] * _step_kl_per_history(law, t, prev)
    return total


def loop_drift_levels(law):
    """(mi_drift, kl_drift) level dicts of ``drift_terms``."""
    mi_levels = []
    kl_levels = []
    for t in range(law.horizon + 1):
        mi_lvl = {}
        kl_lvl = {}
        if t >= 1:
            for prev in dict_law(law).xy_node[t]:
                mi_lvl[prev] = mutual_information_bits(dict_law(law).xy_node[t][prev])
                kl_lvl[prev] = _step_kl_per_history(law, t, prev)
        mi_levels.append(mi_lvl)
        kl_levels.append(kl_lvl)
    return tuple(mi_levels), tuple(kl_levels)


# ---------------------------------------------------------------------------
# the joint-law enumeration and the capacity search before the level arrays
# ---------------------------------------------------------------------------
#
# ``channel_model.forward_joint`` as a recursive depth-first walk plus the
# per-trajectory level-table loop, and ``bound_engine.capacity_bound``
# without its per-search memo, kept verbatim (renamed, with imports moved
# inside) as the references for bit-identity tests.


def loop_build_level_tables(
    trajectories, horizon: int, m: int, x_size: int, y_size: int
):
    node_prob = tuple({} for _ in range(horizon + 1))
    w_mass = tuple({} for _ in range(horizon + 1))
    xy_mass = tuple({} for _ in range(horizon + 1))  # index t in 1..N
    wy_mass = tuple({} for _ in range(horizon + 1))
    for (w, xs, ss, ys), p in trajectories.items():
        for t in range(horizon + 1):
            node = ys[:t]
            node_prob[t][node] = node_prob[t].get(node, 0.0) + p
            vec = w_mass[t].get(node)
            if vec is None:
                vec = np.zeros(m)
                w_mass[t][node] = vec
            vec[w] += p
            if t >= 1:
                prev = ys[: t - 1]
                xy = xy_mass[t].get(prev)
                if xy is None:
                    xy = np.zeros((x_size, y_size))
                    xy_mass[t][prev] = xy
                xy[xs[t - 1], ys[t - 1]] += p
                wy = wy_mass[t].get(prev)
                if wy is None:
                    wy = np.zeros((m, y_size))
                    wy_mass[t][prev] = wy
                wy[w, ys[t - 1]] += p
    w_post = tuple({} for _ in range(horizon + 1))
    for t in range(horizon + 1):
        for node, vec in w_mass[t].items():
            w_post[t][node] = vec / node_prob[t][node]
    xy_node = tuple({} for _ in range(horizon + 1))
    wy_node = tuple({} for _ in range(horizon + 1))
    for t in range(1, horizon + 1):
        for prev, xy in xy_mass[t].items():
            xy_node[t][prev] = xy / node_prob[t - 1][prev]
        for prev, wy in wy_mass[t].items():
            wy_node[t][prev] = wy / node_prob[t - 1][prev]
    return node_prob, w_post, xy_node, wy_node


def _state_law(kernel, t, s_hist, x_hist):
    """P(s_t | s^{t-1}, x^{t-1}) at 1-based t, read off the kernel's
    definition (its variant and ``table``, ``init`` or ``levels``) rather
    than through the library's per-use tables; histories have length t-1
    and a history_table level indexes them in symbol-major order."""
    if kernel.variant == "memoryless":
        return kernel.table
    if kernel.variant == "markov1":
        return kernel.init if t == 1 else kernel.table[s_hist[-1], x_hist[-1]]
    s_idx = x_idx = 0
    for s, x in zip(s_hist, x_hist):
        s_idx, x_idx = s_idx * kernel.s_size + s, x_idx * kernel.x_size + x
    return kernel.levels[t - 1][s_idx, x_idx]


def loop_forward_joint(ch, policy, horizon, budget=10**7):
    """Enumerate the exact joint law over all positive-probability
    trajectories of length ``horizon``.

    The trajectory probability is the product, over steps, of the policy
    factor, the state-kernel factor, and the channel factor; zero branches
    are pruned.  Raises BudgetExceededError when the live trajectory count
    would exceed ``budget`` and SchemaError when the kernel cannot drive the
    requested horizon.
    """
    from fbound.channel_model import BudgetExceededError, SchemaError

    spec, kernel = ch.spec, ch.kernel
    cap = kernel.horizon_cap()
    if cap is not None and horizon > cap:
        raise SchemaError(f"state kernel only defines {cap} steps, horizon={horizon}")
    if policy.horizon < horizon:
        raise SchemaError("policy horizon shorter than requested law horizon")
    if policy.x_size != spec.x_size or policy.y_size != spec.y_size:
        raise SchemaError("policy alphabet sizes do not match the channel")
    m = policy.messages if policy.is_message_form else 1
    trajectories: dict = {}
    count = 0

    def expand(w, t, x_hist, s_hist, y_hist, p):
        nonlocal count
        if t > horizon:
            trajectories[(w, x_hist, s_hist, y_hist)] = p
            count += 1
            if count > budget:
                raise BudgetExceededError(
                    f"trajectory count exceeds budget {budget} at horizon {horizon}"
                )
            return
        if policy.is_message_form:
            x_choices = [(encoder_input(policy, t, w, y_hist), 1.0)]
        else:
            row = behavioral_row(policy, t, x_hist, y_hist)
            x_choices = [(x, float(row[x])) for x in range(spec.x_size) if row[x] > 0.0]
        s_row = _state_law(kernel, t, s_hist, x_hist)
        for x, px in x_choices:
            for s in range(spec.s_size):
                ps = float(s_row[s])
                if ps == 0.0:
                    continue
                q_row = spec.q[s, x]
                for y in range(spec.y_size):
                    py = float(q_row[y])
                    if py == 0.0:
                        continue
                    expand(
                        w,
                        t + 1,
                        x_hist + (x,),
                        s_hist + (s,),
                        y_hist + (y,),
                        p * px * ps * py,
                    )

    for w in range(m):
        expand(w, 1, (), (), (), 1.0 / m)

    node_prob, w_post, xy_node, wy_node = loop_build_level_tables(
        trajectories, horizon, m, spec.x_size, spec.y_size
    )
    return DictLaw(
        channel=ch,
        policy=policy,
        horizon=horizon,
        messages=m,
        trajectories=trajectories,
        node_prob=node_prob,
        w_post=w_post,
        xy_node=xy_node,
        wy_node=wy_node,
    )


def _capacity_objective(ch, rows, horizon, rules, stack, budget):
    """Best stopped information per expected stop time of one policy over
    all rules at once; ``stack`` is ``rule_stack(rules, horizon)``.  Ties go
    to the earliest rule.  It builds the policy's own law: the reference
    that the search's batched valuation of the uniform law matches."""
    from fbound.channel_model import InputPolicy, _policy_row_keys, forward_joint
    from fbound.info_measures import node_table, stopped_values

    policy = InputPolicy(
        horizon=horizon, x_size=ch.spec.x_size, y_size=ch.spec.y_size,
        rows=[rows[k] for k in _policy_row_keys(ch, horizon)]
    )
    law = forward_joint(ch, policy, horizon, budget=budget)
    et, mi = stopped_values(node_table(law), *stack)
    vals = mi / et
    best = int(np.argmax(vals))
    return float(vals[best]), rules[best]


def loop_capacity_bound(ch, horizon, cfg):
    """Best found value of stopped directed information per expected stop
    time, over behavioral policies (simplex-grid coordinate ascent with
    restarts) and stopping rules.

    The returned maximizer records the policy rows and the stop set, so the
    value can be recomputed exactly; diagnostics report the largest
    improvement available one grid step away from the chosen policy.
    """
    from fbound.bound_engine import BoundResult, _capacity_rules, _simplex_grid
    from fbound.channel_model import SchemaError, _policy_row_keys
    from fbound.info_measures import rule_stack

    if horizon < 1:
        raise SchemaError("horizon must be >= 1")
    rules, flags = _capacity_rules(ch, horizon, cfg)
    stack = rule_stack(rules, horizon)
    keys = _policy_row_keys(ch, horizon)
    grid = _simplex_grid(ch.spec.x_size, cfg.grid_denominator)
    uniform = tuple(np.full(ch.spec.x_size, 1.0 / ch.spec.x_size))
    rng = np.random.default_rng(cfg.seed)

    best_val, best_rows, best_rule = -math.inf, None, None
    for restart in range(cfg.restarts + 1):
        if restart == 0:
            rows = {k: uniform for k in keys}
        else:
            rows = {k: grid[rng.integers(len(grid))] for k in keys}
        val, rule = _capacity_objective(ch, rows, horizon, rules, stack, cfg.budget)
        for _ in range(cfg.sweeps):
            changed = False
            for key in keys:
                cur = rows[key]
                for cand in grid:
                    if cand == cur:
                        continue
                    trial = dict(rows)
                    trial[key] = cand
                    v, ru = _capacity_objective(ch, trial, horizon, rules, stack, cfg.budget)
                    if v > val + 1e-12:
                        rows, val, rule = trial, v, ru
                        cur = cand
                        changed = True
            if not changed:
                break
        if val > best_val:
            best_val, best_rows, best_rule = val, rows, rule

    # one-grid-step optimality gap around the maximizer
    gap = 0.0
    for key in keys:
        for cand in grid:
            if cand == best_rows[key]:
                continue
            trial = dict(best_rows)
            trial[key] = cand
            v, _ = _capacity_objective(ch, trial, horizon, rules, stack, cfg.budget)
            gap = max(gap, v - best_val)

    maximizer = {
        "policy_rows": {
            f"{t}|{','.join(map(str, xh))}|{','.join(map(str, yh))}": list(row)
            for (t, xh, yh), row in best_rows.items()
        },
        "stop_set": sorted(list(s) for s in best_rule.stops),
    }
    diagnostics = {"grid_neighbor_gap": gap, "rules_searched": len(rules)}
    return BoundResult(
        kind="capacity",
        value=best_val,
        horizon=horizon,
        maximizer=maximizer,
        diagnostics=diagnostics,
        flags=tuple(flags),
    )


# ---------------------------------------------------------------------------
# the drift checks, residual terms and row divergences before the node-table
# reductions
# ---------------------------------------------------------------------------
#
# The per-history and per-path loops that the entropy column, the one-step
# child expectation, the paths x levels arrays, the shared (pe, E[T]) and
# worst-row divergence of ``info_measures`` replaced, kept verbatim (renamed,
# with imports moved inside) as the references for bit-identity tests.  They
# read the dict tables of ``dict_law`` and the level dicts of
# ``loop_drift_terms`` (see the last section); the library's ``node_table``
# that some of them call is checked against the loops above.

DRIFT_TOL = 1e-10  # drift_verify.DRIFT_TOL


def loop_check_behavioral_rows(rows, x_size, y_size, horizon) -> None:
    """``InputPolicy``'s check of behavioral rows, one row at a time: the
    rows as one (keys, X) float array, then each row, in key order, by the
    per-row distribution check that ``channel_model._check_distribution``
    replaced."""
    from fbound.channel_model import VALIDATION_TOL, DistributionError, SchemaError

    try:
        arr = np.asarray(rows, dtype=float)
    except (TypeError, ValueError):
        raise SchemaError("behavioral rows are not a numeric array") from None
    keys = [(t, xh, yh) for t in range(1, horizon + 1)
            for xh in itertools.product(range(x_size), repeat=t - 1)
            for yh in itertools.product(range(y_size), repeat=t - 1)]
    if arr.shape != (len(keys), x_size):
        raise SchemaError(f"behavioral rows have shape {arr.shape}, not ({len(keys)}, {x_size})")
    for key, row in zip(keys, arr):
        what = f"behavioral row {key}"
        if not np.isfinite(row).all():
            raise DistributionError(f"{what} has a non-finite entry")
        if np.any(row < 0):
            raise DistributionError(f"{what} has a negative entry")
        s = float(row.sum())
        if abs(s - 1.0) > VALIDATION_TOL:
            raise DistributionError(f"{what} sums to {s!r}, not 1 within {VALIDATION_TOL}")


def loop_h_process(law: JointLaw) -> EntropyProcess:
    from fbound.channel_model import SchemaError
    from fbound.info_measures import entropy

    if not law.is_message_form:
        raise SchemaError("entropy process needs a message-form law")
    levels = []
    for t in range(law.horizon + 1):
        lvl = {}
        for node, mu in dict_law(law).w_post[t].items():
            lvl[node] = (dict_law(law).node_prob[t][node], entropy(mu))
        levels.append(lvl)
    return EntropyProcess(horizon=law.horizon, messages=law.messages, levels=tuple(levels))


def loop_message_information(law: JointLaw, n: int) -> float:
    """I(W; Y^n) in bits for a message-form law."""
    from fbound.info_measures import entropy

    h0 = entropy(dict_law(law).w_post[0][()])
    hn = 0.0
    for node, mu in dict_law(law).w_post[n].items():
        hn += dict_law(law).node_prob[n][node] * entropy(mu)
    return h0 - hn


def _loop_effective_rows(xy: np.ndarray):
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


def _loop_worst_row_kl(xy: np.ndarray) -> float:
    """max_x D(row(x*) || row(x)) over the realizable inputs of a joint."""
    from fbound.info_measures import kl

    got = _loop_effective_rows(xy)
    if got is None:
        return 0.0
    x_star, rows = got
    base = rows[x_star]
    return max(kl(base, row) for row in rows.values())


def loop_max_pairwise_row_kl(ch: Channel) -> float:
    from fbound.info_measures import kl

    rows = ch.spec.rows()
    worst = 0.0
    for p in rows:
        for q in rows:
            worst = max(worst, kl(p, q))
    return worst


def loop_burnashev(ch: Channel, rate: float) -> BurnashevResult:
    """Classical feedback error-exponent line C1 * (1 - R/C) for a
    memoryless channel.

    The divergence C1 is the largest pairwise divergence between channel
    rows; when some row pair has a support mismatch the exponent is
    explicitly infinite.  Rates above capacity are rejected.
    """
    from fbound.bound_engine import BurnashevResult, dmc_capacity
    from fbound.channel_model import SchemaError
    from fbound.info_measures import kl

    if not ch.spec.is_dmc():
        raise SchemaError("the classical exponent needs a single-state channel")
    if not rate >= 0:  # also rejects NaN
        raise SchemaError(f"rate must be a nonnegative number, got {rate!r}")
    rows = ch.spec.q[0]
    cap, _, gap = dmc_capacity(rows)
    c1 = 0.0
    for a in range(ch.spec.x_size):
        for b in range(ch.spec.x_size):
            c1 = max(c1, kl(rows[a], rows[b]))
    if rate > cap + 1e-9:
        raise SchemaError(f"rate {rate} exceeds capacity {cap:.9f}")
    if math.isinf(c1):
        return BurnashevResult(cap, c1, rate, math.inf, True, gap)
    if rate == 0.0:
        return BurnashevResult(cap, c1, rate, c1, False, gap)
    exponent = c1 * (1.0 - rate / cap)
    return BurnashevResult(cap, c1, rate, exponent, False, gap)


def loop_dmc_consistency(
    ch: Channel,
    horizon: int = 3,
    cfg: SearchConfig | None = None,
    n_rates: int = 5,
) -> ConsistencyReport:
    """Compare the searched exponent bound against the classical line on a
    memoryless channel over an interior rate grid.

    A zero-capacity channel yields a flagged degenerate report instead of a
    rate grid.
    """
    from fbound.bound_engine import (
        ConsistencyReport, SearchConfig, dmc_capacity, exponent_bound, exponent_candidates,
    )

    cfg = SearchConfig() if cfg is None else cfg
    from fbound.channel_model import SchemaError
    from fbound.info_measures import kl

    if not ch.spec.is_dmc():
        raise SchemaError("consistency check needs a single-state channel")
    rows_q = ch.spec.q[0]
    cap, _, _ = dmc_capacity(rows_q)
    c1 = 0.0
    for a in range(ch.spec.x_size):
        for b in range(ch.spec.x_size):
            c1 = max(c1, kl(rows_q[a], rows_q[b]))
    if cap < 1e-9:
        return ConsistencyReport(
            capacity=cap, max_kl=c1, rows=(), max_deviation=0.0,
            degenerate=True, flags=("degenerate_rate_grid",),
        )
    cands = exponent_candidates(ch, horizon, cfg)
    rows = []
    worst = 0.0
    for i in range(1, n_rates + 1):
        rate = cap * i / (n_rates + 1)
        res = exponent_bound(ch, rate, horizon, cfg, _candidates=cands)
        classical = c1 * (1.0 - rate / cap)
        dev = 0.0 if res.value == classical else abs(res.value - classical)
        worst = max(worst, dev)
        rows.append(
            {
                "rate": rate,
                "searched": res.value,
                "classical": classical,
                "deviation": dev,
            }
        )
    return ConsistencyReport(
        capacity=cap, max_kl=c1, rows=tuple(rows), max_deviation=worst,
        degenerate=False, flags=cands[1],
    )


def loop_residual_terms(
    law: JointLaw,
    last: StoppingRule,
    first: StoppingRule,
    eps: float | None = None,
    lam: float = 0.25,
) -> ResidualTerms:
    """Evaluate rate, per-phase information and divergence, and the three
    residual corrections for a message-form law under nested stopping rules
    (first stops no later than last); decoding is maximum posterior at the
    stop node.

    eps defaults to horizon**-3.
    """
    from fbound.bound_engine import ResidualTerms
    from fbound.channel_model import SchemaError, StoppingRule
    from fbound.info_measures import (
        binary_entropy, directed_kl_stopped, directed_mi_stopped, expected_stop_time,
    )

    if not law.is_message_form:
        raise SchemaError("residual terms need a message-form law")
    if not first.dominates(last):
        raise SchemaError("the first rule must stop no later than the last")
    n = law.horizon
    if eps is None:
        eps = float(n) ** -3
    logm = math.log2(law.messages)
    flags: list[str] = []

    pe = 0.0
    et = 0.0
    for path, p in dict_law(law).node_prob[n].items():
        t = loop_stop_time(last, path)
        et += p * t
    # group stop-node mass once for the error probability
    stop_mass: dict[tuple[int, ...], float] = {}
    for path, p in dict_law(law).node_prob[n].items():
        node = path[: loop_stop_time(last, path)]
        stop_mass[node] = stop_mass.get(node, 0.0) + p
    for node, p in stop_mass.items():
        mu = dict_law(law).w_post[len(node)][node]
        pe += p * (1.0 - float(mu.max()))
    pe = max(pe, 0.0)

    et1 = expected_stop_time(law, first)
    i_rate = directed_mi_stopped(law, first) / et1
    den = et - et1
    d_rate = directed_kl_stopped(law, first, last) / den if den > 1e-12 else math.nan
    if den <= 1e-12:
        flags.append("empty_divergence_phase")
    rate = logm / et

    fano = binary_entropy(min(max(pe, 0.0), 1.0)) + pe * logm
    if i_rate <= 0 or not math.isfinite(d_rate) or d_rate <= 0:
        flags.append("degenerate_phase_rates")
        u = math.nan
        v = math.nan
        delta = math.nan
        assembled = math.nan
    else:
        u = rate * (
            (fano + eps) / (i_rate * logm)
            + (-math.log2(eps)) / (d_rate * logm)
            + 1.0 / (lam * d_rate * logm)
        )
        if pe <= 0.0:
            delta = 0.0
            flags.append("zero_error_probability")
        else:
            neg_log_pe = -math.log2(pe)
            delta = math.log2(neg_log_pe + 2.0 + logm) / neg_log_pe
        v = (rate / i_rate) * math.sqrt(eps) * n + math.sqrt(eps) * n / (et * i_rate)
        if delta >= 1.0:
            flags.append("delta_at_least_one")
            assembled = math.inf
        else:
            assembled = d_rate / (1.0 - delta) * (1.0 - rate / i_rate + u + v)
    return ResidualTerms(
        messages=law.messages,
        horizon=n,
        pe=pe,
        et=et,
        et1=et1,
        rate=rate,
        i_rate=i_rate,
        d_rate=d_rate,
        eps=eps,
        lam=lam,
        fano_ceiling=fano,
        u_term=u,
        delta_term=delta,
        v_term=v,
        assembled=assembled,
        flags=tuple(flags),
    )


def _loop_confirm_pair(qbar: np.ndarray) -> tuple[int, int]:
    from fbound.info_measures import kl

    best, pair = -1.0, (0, 1)
    x_size = qbar.shape[0]
    for a in range(x_size):
        for b in range(x_size):
            if a == b:
                continue
            v = kl(qbar[a], qbar[b])
            if v > best:
                best, pair = v, (a, b)
    return pair


def _loop_kl_drift_value(terms: DriftTerms, t: int, prev: tuple[int, ...], mutate: str | None) -> float:
    v = terms.kl_drift[t][prev]
    if mutate == "halve_kl_drift":
        return 0.5 * v
    return v


def _loop_child_prob(law: JointLaw, prev: tuple[int, ...], y: int) -> float:
    node = prev + (y,)
    child = dict_law(law).node_prob[len(node)].get(node, 0.0)
    return child / dict_law(law).node_prob[len(prev)][prev]


@dataclass(frozen=True)
class LoopPrunedTimes:
    horizon: int
    eps: float
    tau_hit: int
    tau_last: int

    @classmethod
    def from_path(cls, h_path: list[float], eps: float) -> "LoopPrunedTimes":
        from fbound.channel_model import SchemaError

        n = len(h_path) - 1
        if h_path[0] < eps:
            raise SchemaError("pruning needs the initial entropy at or above eps")
        tau_hit = n
        for t in range(1, n + 1):
            if h_path[t] <= eps:
                tau_hit = t
                break
        tau_last = 0
        for t in range(n + 1, 0, -1):
            if h_path[t - 1] >= eps:
                tau_last = t
                break
        tau_last = min(tau_last, n)
        return cls(horizon=n, eps=eps, tau_hit=tau_hit, tau_last=tau_last)

    def pruned_index(self, n: int) -> int:
        if n > self.horizon:
            return self.horizon
        if n < self.tau_hit:
            return n
        return min(max(n, self.tau_last), self.horizon)


@dataclass(frozen=True)
class _LoopPathData:
    path: tuple[int, ...]
    prob: float
    h: tuple[float, ...]        # H_0 .. H_N
    j: tuple[float, ...]        # j[r] for r in 1..N (index 0 unused)
    d: tuple[float, ...]        # kl drift, same indexing
    times: LoopPrunedTimes


def _loop_path_data(law: JointLaw, eps: float, mutate: str | None) -> list[_LoopPathData]:
    proc = loop_h_process(law)
    terms = loop_drift_terms(law)
    out = []
    for path, p in sorted(dict_law(law).node_prob[law.horizon].items()):
        if p <= 0.0:
            continue
        h = proc.path_values(path)
        j = [0.0] + [terms.mi_drift[r][path[: r - 1]] for r in range(1, law.horizon + 1)]
        d = [0.0] + [
            _loop_kl_drift_value(terms, r, path[: r - 1], mutate)
            for r in range(1, law.horizon + 1)
        ]
        out.append(
            _LoopPathData(
                path=path,
                prob=p,
                h=tuple(h),
                j=tuple(j),
                d=tuple(d),
                times=LoopPrunedTimes.from_path(h, eps),
            )
        )
    return out


def _loop_phase_constants(paths: list[_LoopPathData], last_time) -> tuple[float, float]:
    """Information/divergence per expected step over the pre-hit and
    post-hit windows; ``last_time(pd)`` gives the terminal time per path."""
    from fbound.channel_model import SchemaError

    num_i = den_i = num_d = den_d = 0.0
    for pd in paths:
        th = pd.times.tau_hit
        tt = last_time(pd)
        num_i += pd.prob * sum(pd.j[1 : th + 1])
        den_i += pd.prob * th
        num_d += pd.prob * sum(pd.d[th + 1 : tt + 1])
        den_d += pd.prob * (tt - th)
    if den_i <= 1e-12:
        raise SchemaError("empty pre-hit window: cannot form the information constant")
    if den_d <= 1e-12:
        raise SchemaError(
            "the entropy path never crosses eps before the end: no divergence window"
        )
    return num_i / den_i, num_d / den_d


def loop_verify_linear_drift(law: JointLaw, tol: float = DRIFT_TOL) -> Verdict:
    """Expected one-step entropy decrease at every realizable history is at
    most the conditional input-output information there.

    ``worst`` is the smallest value of (information - decrease); the
    constants report the largest absolute gap, which is ~0 on instances
    where the encoder makes the message and the input one-to-one.
    """
    from fbound.drift_verify import Verdict, _instance_name
    proc = loop_h_process(law)
    terms = loop_drift_terms(law)
    worst = math.inf
    max_abs = 0.0
    count = 0
    for t in range(1, law.horizon + 1):
        for prev in sorted(dict_law(law).xy_node[t]):
            h_prev = proc.value(prev)
            drop = h_prev
            for y in range(law.channel.spec.y_size):
                node = prev + (y,)
                if node in proc.levels[t]:
                    drop -= _loop_child_prob(law, prev, y) * proc.value(node)
            margin = terms.mi_drift[t][prev] - drop
            worst = min(worst, margin)
            max_abs = max(max_abs, abs(margin))
            count += 1
    return Verdict(
        check="linear-drift",
        instance=_instance_name(law),
        count=count,
        worst=worst,
        passed=worst >= -tol,
        constants={"tol": tol, "max_abs_gap": max_abs},
    )


def loop_verify_log_drift(
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
    from fbound.channel_model import SchemaError
    from fbound.drift_verify import Verdict, _check_mutation, _instance_name
    from fbound.info_measures import binary_entropy_inv

    _check_mutation(mutate)
    if not 0.0 < eps <= 1.0:
        raise SchemaError("eps must lie in (0, 1] for the inverse-entropy slack")
    proc = loop_h_process(law)
    terms = loop_drift_terms(law)
    d_max = terms.max_pairwise_kl
    if c is None:
        c = 2.0 * (1.0 + d_max) + d_max + 2.0
    slack = binary_entropy_inv(eps)
    worst = math.inf
    c_min = 0.0
    count = 0
    for t in range(1, law.horizon + 1):
        for prev in sorted(dict_law(law).xy_node[t]):
            h_prev = proc.value(prev)
            if not 0.0 < h_prev < eps:
                continue
            drift = 0.0
            for y in range(law.channel.spec.y_size):
                node = prev + (y,)
                if node in proc.levels[t]:
                    h_child = proc.value(node)
                    if h_child <= 0.0:
                        drift = -math.inf
                        break
                    drift += _loop_child_prob(law, prev, y) * math.log2(h_child)
            else:
                drift -= math.log2(h_prev)
            d_r = _loop_kl_drift_value(terms, t, prev, mutate)
            margin = drift + d_r + c * slack
            worst = min(worst, margin)
            if slack > 0:
                c_min = max(c_min, (-drift - d_r) / slack)
            count += 1
    details = ()
    if count == 0:
        worst = math.inf
        details = ("no history with entropy inside (0, eps): vacuous pass",)
    return Verdict(
        check="log-drift",
        instance=_instance_name(law),
        count=count,
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


def _loop_z_value(h: float, eps: float, i_const: float, d_const: float, lam: float) -> float:
    if h >= eps:
        return (h - eps) / i_const
    y = math.log2(h / eps)
    return y / d_const + (1.0 - math.exp(lam * y)) / (lam * d_const)


def _loop_s_values(pd: _LoopPathData, eps: float, i_const: float, d_const: float, logm: float) -> list[float]:
    """Compensator path: information credits before the hit, capped
    excursion credits between the hit and the last crossing (only while the
    previous entropy is at least sqrt(eps)), divergence credits afterwards,
    plus a one-off sqrt(eps) * N / I once past the last crossing."""
    n = pd.times.horizon
    th, tl = pd.times.tau_hit, pd.times.tau_last
    root = math.sqrt(eps)
    s = [0.0] * (n + 1)
    for r in range(1, n + 1):
        if r <= th:
            inc = pd.j[r] / i_const
        elif r <= tl:
            inc = logm / i_const if pd.h[r - 1] >= root else 0.0
        else:
            inc = pd.d[r] / d_const
        s[r] = s[r - 1] + inc
    return [s[t] + (root * n / i_const if t >= tl else 0.0) for t in range(n + 1)]


def loop_verify_submartingale_L(
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
    """
    from fbound.channel_model import SchemaError
    from fbound.drift_verify import (
        Verdict, _check_mutation, _f_precondition_holds, _instance_name, default_lambda_grid,
    )
    _check_mutation(mutate)
    if not law.is_message_form:
        raise SchemaError("submartingale check needs a message-form law")
    if law.messages < 2:
        raise SchemaError("need at least two messages")
    logm = math.log2(law.messages)
    if not 0.0 < eps < logm:
        raise SchemaError("eps must lie in (0, log2 M)")
    terms = loop_drift_terms(law)
    eta = terms.log_ratio_bound()  # raises unless strictly positive
    paths = _loop_path_data(law, eps, mutate)
    n = law.horizon
    if i_const is None or d_const is None:
        i_auto, d_auto = _loop_phase_constants(paths, lambda pd: n)
        i_const = i_auto if i_const is None else i_const
        d_const = d_auto if d_const is None else d_const
    if lam_grid is None:
        lam_grid = default_lambda_grid()

    details: list[str] = []
    best_lam = None
    best_worst = -math.inf
    best_count = 0
    for lam in sorted(lam_grid, reverse=True):
        pre_ok, pre_gap = _f_precondition_holds(eps, i_const, d_const, lam, eta)
        if not pre_ok:
            details.append(f"lambda={lam:g}: precondition violated (gap {pre_gap:.3e})")
            continue
        atoms: dict[tuple[int, tuple[int, ...]], list[float]] = {}
        lcheck: dict[tuple[int, tuple[int, ...]], list[float]] = {}
        for pd in paths:
            z = [_loop_z_value(pd.h[t], eps, i_const, d_const, lam) for t in range(n + 1)]
            s = _loop_s_values(pd, eps, i_const, d_const, logm)
            l = [z[pd.times.pruned_index(m)] + s[pd.times.pruned_index(m)] for m in range(n + 1)]
            for m in range(n):
                key = (m, pd.path[: pd.times.pruned_index(m)])
                acc = atoms.setdefault(key, [0.0, 0.0])
                acc[0] += pd.prob * (l[m + 1] - l[m])
                acc[1] += pd.prob
                lcheck.setdefault(key, []).append(l[m])
        worst = math.inf
        for key, (num, mass) in atoms.items():
            worst = min(worst, num / mass)
        spread = max(max(v) - min(v) for v in lcheck.values())
        if spread > 1e-8:
            details.append(f"lambda={lam:g}: non-constant L on an atom (spread {spread:.2e})")
            continue
        ok = worst >= -tol
        details.append(
            f"lambda={lam:g}: atoms={len(atoms)} worst-margin={worst:.6g} "
            f"{'pass' if ok else 'fail'}"
        )
        if ok and best_lam is None:
            best_lam, best_worst, best_count = lam, worst, len(atoms)
        if best_lam is None and worst > best_worst:
            best_worst, best_count = worst, len(atoms)
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


def loop_verify_fano(law: JointLaw, rule: StoppingRule | None = None, tol: float = 1e-9) -> Verdict:
    """Conditional message entropy at each stop node is at most
    h(pe) + pe * log2(M-1) for the node's decoder error probability, for
    both the posterior-maximizing decoder and a constant decoder; the
    averaged version is checked as well.
    """
    from fbound.channel_model import SchemaError, StoppingRule
    from fbound.drift_verify import Verdict, _instance_name
    from fbound.info_measures import binary_entropy, entropy

    if not law.is_message_form:
        raise SchemaError("decoder check needs a message-form law")
    if rule is None:
        rule = StoppingRule.fixed(law.horizon, law.horizon, law.channel.spec.y_size)
    loop_check_rule_horizon(law, rule)
    m = law.messages
    log_m1 = math.log2(m - 1) if m > 1 else 0.0
    worst = math.inf
    count = 0
    details = []
    for decoder in ("map", "constant"):
        avg_h = 0.0
        avg_pe = 0.0
        for path, p in dict_law(law).node_prob[law.horizon].items():
            node = path[: loop_stop_time(rule, path)]
            mu = dict_law(law).w_post[len(node)][node]
            h_node = entropy(mu)
            if decoder == "map":
                w_hat = int(np.nanargmax(mu))
            else:
                w_hat = 0
            pe = 1.0 - float(mu[w_hat])
            # weight by the node mass contribution of this full path
            weight = p
            avg_h += weight * h_node
            avg_pe += weight * pe
            margin = binary_entropy(min(max(pe, 0.0), 1.0)) + pe * log_m1 - h_node
            worst = min(worst, margin)
            count += 1
        margin = binary_entropy(min(max(avg_pe, 0.0), 1.0)) + avg_pe * log_m1 - avg_h
        worst = min(worst, margin)
        count += 1
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


def loop_verify_lemma4_budget(
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
    from fbound.channel_model import SchemaError, StoppingRule
    from fbound.drift_verify import Verdict, _instance_name
    from fbound.info_measures import binary_entropy

    if not law.is_message_form:
        raise SchemaError("compensator budget needs a message-form law")
    n = law.horizon
    if rule is None:
        rule = StoppingRule.fixed(n, n, law.channel.spec.y_size)
    loop_check_rule_horizon(law, rule)
    logm = math.log2(law.messages)

    pe = 0.0
    et = 0.0
    seen: dict[tuple[int, ...], float] = {}
    for path, p in dict_law(law).node_prob[n].items():
        t_stop = loop_stop_time(rule, path)
        et += p * t_stop
        node = path[:t_stop]
        seen[node] = seen.get(node, 0.0) + p
    for node, p in seen.items():
        mu = dict_law(law).w_post[len(node)][node]
        pe += p * (1.0 - float(np.nanmax(mu)))
    alpha = binary_entropy(min(max(pe, 0.0), 1.0)) + pe * logm
    if eps <= alpha:
        raise SchemaError(
            f"eps={eps:g} must exceed the decoder entropy ceiling {alpha:.6g}"
        )

    paths = _loop_path_data(law, eps, mutate=None)
    stop_of = {pd.path: loop_stop_time(rule, pd.path) for pd in paths}
    i_const, d_const = _loop_phase_constants(paths, lambda pd: stop_of[pd.path])
    rate = logm / et
    v_term = (rate / i_const) * math.sqrt(eps) * n + math.sqrt(eps) * n / (et * i_const)

    es = 0.0
    for pd in paths:
        s = _loop_s_values(pd, eps, i_const, d_const, logm)
        t_end = max(stop_of[pd.path], pd.times.tau_last)
        es += pd.prob * s[t_end]
    rhs = et * (1.0 + v_term)
    margin = rhs - es
    return Verdict(
        check="compensator-budget",
        instance=_instance_name(law),
        count=len(paths),
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


def loop_average_channel(law: JointLaw, t: int) -> dict[tuple[int, ...], np.ndarray]:
    """Effective one-step channel P(Y_t | X_t = x, y^{t-1}) per realizable
    history.

    Returns, per history, an (x_size, y_size) array whose row x is the
    conditional output law; rows for inputs of conditional probability zero
    are NaN (absent, never fabricated).
    """
    from fbound.channel_model import SchemaError

    if not 1 <= t <= law.horizon:
        raise SchemaError(f"step {t} outside 1..{law.horizon}")
    out = {}
    for prev, xy in dict_law(law).xy_node[t].items():
        nu = xy.sum(axis=1)
        rows = np.full_like(xy, np.nan)
        pos = nu > 0.0
        rows[pos] = xy[pos] / nu[pos, None]
        out[prev] = rows
    return out


def loop_verify_lemma5_kl_transfer(
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
    from fbound.channel_model import SchemaError
    from fbound.drift_verify import Verdict, _check_mutation, _instance_name
    from fbound.info_measures import binary_entropy_inv, kl

    _check_mutation(mutate)
    if not 0.0 < eps <= 1.0:
        raise SchemaError("eps must lie in (0, 1] for the inverse-entropy slack")
    proc = loop_h_process(law)
    terms = loop_drift_terms(law)
    d_max = terms.max_pairwise_kl
    if cprime is None:
        cprime = 4.0 * (1.0 + d_max)
    slack = binary_entropy_inv(eps)
    pt = posteriors(dict_law(law))
    worst = math.inf
    cprime_min = 0.0
    count = 0
    for t in range(1, law.horizon + 1):
        avg_rows = loop_average_channel(law, t)
        for prev in sorted(dict_law(law).xy_node[t]):
            h_prev = proc.value(prev)
            if not 0.0 < h_prev < eps:
                continue
            w_rows = pt.step[t][prev]
            w_star = pt.map_message(t - 1, prev)
            lhs = 0.0
            for w in range(law.messages):
                if w == w_star or np.isnan(w_rows[w]).any():
                    continue
                lhs = max(lhs, kl(w_rows[w_star], w_rows[w]))
            rows = avg_rows[prev]
            nu = dict_law(law).xy_node[t][prev].sum(axis=1)
            x_star = int(np.argmax(nu))
            rhs_kl = 0.0
            for x in range(law.channel.spec.x_size):
                if x == x_star or np.isnan(rows[x]).any():
                    continue
                rhs_kl = max(rhs_kl, kl(rows[x_star], rows[x]))
            if mutate == "halve_kl_drift":
                rhs_kl *= 0.5
            margin = rhs_kl + cprime * slack - lhs
            worst = min(worst, margin)
            if slack > 0:
                cprime_min = max(cprime_min, (lhs - rhs_kl) / slack)
            count += 1
    details = ()
    if count == 0:
        worst = math.inf
        details = ("no history with entropy inside (0, eps): vacuous pass",)
    return Verdict(
        check="kl-transfer",
        instance=_instance_name(law),
        count=count,
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


def loop_verify_maximal_inequality(
    law: JointLaw | None = None,
    trials: int = 10**4,
    seed: int = 0,
    tol_self: float = 1e-9,
) -> Verdict:
    """Monte Carlo check of the nonnegative-supermartingale maximal
    inequality: the running-supremum exceedance frequency stays below the
    started mean over the level, plus three binomial standard errors.

    Generators: the message-entropy process of a feedback law (exact
    one-step decrease verified from the law), and a multiplicative walk
    with mean factor 0.95 (decrease verified analytically).
    """
    from fbound.channel_model import SchemaError, bsc, forward_joint, repetition_encoder
    from fbound.drift_verify import Verdict

    rng = np.random.default_rng(seed)
    details = []
    worst = math.inf
    count = 0

    if law is None:
        law = forward_joint(bsc(0.1), repetition_encoder(2, 2, 6), 6)
    proc = loop_h_process(law)
    # generator self-check: expected one-step decrease at every history
    for t in range(1, law.horizon + 1):
        for prev in sorted(dict_law(law).xy_node[t]):
            h_prev = proc.value(prev)
            step = sum(
                _loop_child_prob(law, prev, y) * proc.value(prev + (y,))
                for y in range(law.channel.spec.y_size)
                if prev + (y,) in proc.levels[t]
            )
            if step > h_prev + tol_self:
                raise SchemaError("entropy process failed its decrease self-check")
    nodes = sorted(dict_law(law).node_prob[law.horizon])
    probs = np.array([dict_law(law).node_prob[law.horizon][p] for p in nodes])
    probs = probs / probs.sum()
    idx = rng.choice(len(nodes), size=trials, p=probs)
    h_paths = np.array([proc.path_values(nodes[i]) for i in idx])
    start_mean = float(h_paths[:, 1].mean())
    for c in (0.2, 0.5, 0.9):
        sup = h_paths[:, 1:].max(axis=1)
        freq = float((sup > c).mean())
        se = math.sqrt(max(freq * (1 - freq), 1e-12) / trials)
        bound = start_mean / c + 3.0 * se
        margin = bound - freq
        worst = min(worst, margin)
        count += 1
        details.append(f"entropy-process c={c:g}: freq={freq:.4g} bound={bound:.4g}")

    assert abs(0.5 * 0.5 + 0.5 * 1.4 - 0.95) < tol_self  # walk decrease factor
    walks = np.cumprod(np.where(rng.random((trials, 30)) < 0.5, 0.5, 1.4), axis=1)
    for c in (1.5, 2.0, 4.0):
        freq = float((walks.max(axis=1) > c).mean())
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


# ---------------------------------------------------------------------------
# the simulator's tree walk and per-trial state path before the array passes
# ---------------------------------------------------------------------------
#
# ``vlc_sim.exact_stats`` as a recursive depth-first walk over the stopped
# output tree, and ``vlc_sim._simulate_generic`` as a loop over trials and
# channel uses, kept verbatim (renamed, with imports moved inside) as the
# references for bit-identity tests.  The loop draws each trial's uniforms
# by their documented definition, a fresh generator per trial, and shares
# no draw code with the simulator.


def fresh_trial_uniforms(seed: int, t: int, width: int) -> np.ndarray:
    """Trial ``t``'s uniform vector: ``Generator(Philox(key=[seed, t])).random(width)``,
    the key given as two unsigned 64-bit words."""
    bits = np.random.Philox(key=np.array([seed, t], dtype=np.uint64))
    return np.random.Generator(bits).random(width)


def loop_simulate_generic(
    scheme, ch, trials: int, seed: int, start: int, draw=fresh_trial_uniforms
) -> tuple[int, float, float]:
    """``draw(seed, t, width)`` gives trial t's uniforms; a test injects
    its own draws through it."""
    from fbound.channel_model import SchemaError
    from fbound.vlc_sim import _log_metric, _metric_matrix

    q = ch.spec.q
    cum_q = np.cumsum(q, axis=2)  # (s, x, y)
    qbar = _metric_matrix(ch)
    logq = _log_metric(qbar)
    m, n1, n2, cap = scheme.m, scheme.n1, scheme.n2, scheme.cap
    block = scheme.block_len
    n_uses = scheme.max_uses
    hcap = ch.kernel.horizon_cap()
    if hcap is not None and n_uses > hcap:
        raise SchemaError("scheme needs more channel uses than the kernel defines")
    xa, xn = scheme.confirm
    cb = scheme.codebook
    errors = 0
    t_sum = 0.0
    t_sqsum = 0.0
    for t in range(start, start + trials):
        d = draw(seed, t, 1 + 2 * n_uses)
        w = min(int(d[0] * m), m - 1)
        us, uy = d[1 : n_uses + 1], d[n_uses + 1 :]
        s_hist: tuple[int, ...] = ()
        x_hist: tuple[int, ...] = ()
        t_abs = 0
        w_hat = 0
        stopped = False
        for b in range(cap):
            ys_data = []
            for pos in range(block):
                x = cb[w][pos] if pos < n1 else (xa if w_hat == w else xn)
                sd = _state_law(ch.kernel, t_abs + 1, s_hist, x_hist)
                s = int(np.searchsorted(np.cumsum(sd), us[t_abs], side="left"))
                y = int(np.searchsorted(cum_q[s, x], uy[t_abs], side="left"))
                s_hist += (s,)
                x_hist += (x,)
                t_abs += 1
                if pos < n1:
                    ys_data.append(y)
                    if pos == n1 - 1:
                        ll = [
                            sum(logq[cb[cand][j], ys_data[j]] for j in range(n1))
                            for cand in range(m)
                        ]
                        w_hat = int(np.argmax(ll))
                        llr = 0.0
                else:
                    llr += logq[xa, y] - logq[xn, y]
            if llr >= scheme.threshold or b == cap - 1:
                stopped = True
                t_sum += t_abs
                t_sqsum += float(t_abs) ** 2
                if w_hat != w:
                    errors += 1
                break
        assert stopped
    return errors, t_sum, t_sqsum


def loop_exact_stats(scheme, ch, budget: int = 10**6):
    """Exact error probability and expected stop time by forward recursion
    of the per-state mass over every output branch of every block.

    Supported for memoryless and one-step state kernels (the state mass is
    a finite vector); the node budget guards the tree size.
    """
    from fbound.channel_model import BudgetExceededError, SchemaError
    from fbound.vlc_sim import ExactStats, _log_metric, _metric_matrix

    if ch.kernel.variant not in ("memoryless", "markov1"):
        raise SchemaError("exact evaluation supports memoryless and markov1 kernels")
    if scheme.x_size != ch.spec.x_size:
        raise SchemaError("scheme and channel disagree on the input alphabet")
    q = ch.spec.q
    s_size = ch.spec.s_size
    qbar = _metric_matrix(ch)
    logq = _log_metric(qbar)
    m, n1, cap = scheme.m, scheme.n1, scheme.cap
    block = scheme.block_len
    xa, xn = scheme.confirm
    cb = scheme.codebook

    if ch.kernel.variant == "memoryless":
        p_state = np.asarray(ch.kernel.table, dtype=float).reshape(s_size)
        trans = None
    else:
        p_state = np.asarray(ch.kernel.init, dtype=float)
        trans = np.asarray(ch.kernel.table, dtype=float)  # (s, x, s')

    nodes = 0
    pe = 0.0
    et = 0.0
    leaves = 0

    def step(alpha: np.ndarray, x: int, x_prev: int | None, first: bool):
        # advance the state mass, then split on the output symbol
        if trans is None:
            a = alpha.sum() * p_state
        elif first:
            a = alpha.sum() * p_state
        else:
            a = alpha @ trans[:, x_prev, :]
        for y in range(ch.spec.y_size):
            child = a * q[:, x, y]
            mass = child.sum()
            if mass > 0.0:
                yield y, child

    def run_block(w: int, alpha: np.ndarray, x_prev: int | None, b: int, t0: int):
        nonlocal nodes, pe, et, leaves
        # data phase: enumerate output prefixes with the state mass attached
        frontier = [((), alpha, x_prev)]
        for pos in range(n1):
            nxt = []
            for ys, a, xp in frontier:
                x = cb[w][pos]
                for y, child in step(a, x, xp, first=(t0 == 0 and pos == 0)):
                    nodes += 1
                    if nodes > budget:
                        raise BudgetExceededError(
                            f"exact evaluation exceeded {budget} tree nodes"
                        )
                    nxt.append((ys + (y,), child, x))
            frontier = nxt
        for ys, a, xp in frontier:
            ll = [sum(logq[cb[c][j], ys[j]] for j in range(n1)) for c in range(m)]
            w_hat = int(np.argmax(ll))
            xc = xa if w_hat == w else xn
            conf = [((), a, xp, 0.0)]
            for pos in range(scheme.n2):
                nxt = []
                for cys, ca, cxp, llr in conf:
                    for y, child in step(ca, xc, cxp, first=False):
                        nodes += 1
                        if nodes > budget:
                            raise BudgetExceededError(
                                f"exact evaluation exceeded {budget} tree nodes"
                            )
                        # same association order as the simulators so ties
                        # land on exactly the same side of the threshold
                        nxt.append(
                            (cys + (y,), child, xc, llr + (logq[xa, y] - logq[xn, y]))
                        )
                conf = nxt
            for cys, ca, cxp, llr in conf:
                mass = float(ca.sum())
                if llr >= scheme.threshold or b == cap - 1:
                    leaves += 1
                    et += mass * (t0 + block)
                    if w_hat != w:
                        pe += mass
                else:
                    run_block(w, ca, cxp, b + 1, t0 + block)

    for w in range(m):
        run_block(w, np.array([1.0 / m]), None, 0, 0)

    rate = math.log2(m) / et
    exponent = math.inf if pe == 0.0 else -math.log2(pe) / et
    return ExactStats(pe=pe, et=et, rate=rate, exponent=exponent, leaves=leaves)


# ---------------------------------------------------------------------------
# the dict law engine and its views before the level arrays
# ---------------------------------------------------------------------------
#
# ``channel_model.forward_joint`` when it cut its level arrays into dicts
# keyed by output histories, its ``JointLaw`` (renamed ``DictLaw``), the
# ``posteriors`` view of the dict tables and the ``EntropyProcess`` and
# ``DriftTerms`` level dicts of ``info_measures``, kept verbatim (renamed, with imports moved inside) as the references for the
# law's arrays and the node table's accessors.  ``dict_law`` gives the
# per-history loops of this file the dict tables of a library law.


@dataclass(frozen=True)
class DictLaw:
    """Exact joint law of (W, X^N, S^N, Y^N) as a sparse trajectory table
    together with per-output-history summaries.

    ``trajectories`` maps (w, x-tuple, s-tuple, y-tuple) to its probability;
    behavioral laws use w = 0 throughout.  The level tables are keyed by
    output histories:

    - node_prob[t][y^t]: P(Y^t = y^t), t = 0..N
    - w_post[t][y^t]: posterior over messages (array of length M)
    - xy_node[t][y^{t-1}]: joint P(X_t, Y_t | y^{t-1}), t = 1..N
    - wy_node[t][y^{t-1}]: joint P(W, Y_t | y^{t-1}), t = 1..N
    """

    channel: Channel
    policy: InputPolicy
    horizon: int
    messages: int
    trajectories: dict[tuple[int, tuple[int, ...], tuple[int, ...], tuple[int, ...]], float]
    node_prob: tuple[dict[tuple[int, ...], float], ...] = field(repr=False, default=())
    w_post: tuple[dict[tuple[int, ...], np.ndarray], ...] = field(repr=False, default=())
    xy_node: tuple[dict[tuple[int, ...], np.ndarray], ...] = field(repr=False, default=())
    wy_node: tuple[dict[tuple[int, ...], np.ndarray], ...] = field(repr=False, default=())

    @property
    def is_message_form(self) -> bool:
        return self.policy.is_message_form

    def output_paths(self) -> dict[tuple[int, ...], float]:
        """P(y^N) over full-length output paths."""
        return dict(self.node_prob[self.horizon])

    def total_mass(self) -> float:
        return sum(self.trajectories.values())


def dict_forward_joint(
    ch: Channel,
    policy: InputPolicy,
    horizon: int,
    budget: int = 10**7,  # channel_model.DEFAULT_TRAJECTORY_BUDGET
) -> DictLaw:
    """Enumerate the exact joint law over all positive-probability
    trajectories of length ``horizon``.

    The trajectory probability is the product, over steps, of the policy
    factor, the state-kernel factor and the channel factor, multiplied left
    to right as ``((p * px) * ps) * py``; branches with a zero factor are
    pruned.  The enumeration runs one level at a time: step t calls the
    policy (or encoder) once per live prefix, gathers every prefix's state
    law from the kernel's ``use_table(t)`` at its history indices, then
    forms every child (prefix, x, s, y) in one array pass.  Children come
    out in C order, which is the depth-first order over (w, x_1, s_1, y_1,
    x_2, ...), and so is the order of ``trajectories``.  Each level table is built by
    ``_level_tables`` from the same level arrays.

    Raises BudgetExceededError when the live trajectory count would exceed
    ``budget``, naming the count and step reached, and SchemaError for a
    negative horizon, a horizon the kernel cannot drive, or an encoder input
    outside the alphabet.  Every prefix has at least one child (every row
    sums to 1), so level sizes never shrink and the check at each level
    fails exactly when the final count would.
    """
    from fbound.channel_model import SchemaError, _over_budget

    def _check_budget(count, t, horizon, budget):
        if count > budget:
            raise _over_budget(count, t, horizon, budget)

    spec, kernel = ch.spec, ch.kernel
    if horizon < 0:
        raise SchemaError(f"horizon must be >= 0, got {horizon}")
    cap = kernel.horizon_cap()
    if cap is not None and horizon > cap:
        raise SchemaError(f"state kernel only defines {cap} steps, horizon={horizon}")
    if policy.horizon < horizon:
        raise SchemaError("policy horizon shorter than requested law horizon")
    if policy.x_size != spec.x_size or policy.y_size != spec.y_size:
        raise SchemaError("policy alphabet sizes do not match the channel")
    encoder = policy.is_message_form
    m = policy.messages if encoder else 1
    xn, sn, yn = spec.x_size, spec.s_size, spec.y_size
    q = spec.q.transpose(1, 0, 2)  # (x, s, y), the children's order
    q_live = q != 0.0
    single = [(a,) for a in range(max(xn, sn, yn))]

    # the live prefixes of one level: message, probability and histories;
    # level 0 is one empty prefix per message
    msg = list(range(m))
    prob = np.array([1.0 / m] * m)
    xh = sh = yh = [()] * m
    s_mem = x_mem = np.zeros(m, dtype=np.intp)  # state- and input-history indices
    # per step, each child's parent and its (output node, x, y); output
    # nodes are numbered level after level, within a level in order of first
    # appearance, and y_keys holds each level's output histories in that order
    steps, y_keys, first = [], [[()]], 1
    _check_budget(m, 0, horizon, budget)
    for t in range(1, horizon + 1):
        table = kernel.use_table(t)
        s_mem, x_mem = s_mem % table.shape[0], x_mem % table.shape[1]
        ps = table[s_mem, x_mem]
        # head[k, x, s] = (p * px) * ps and the channel rows it multiplies,
        # both over (prefix, x, s, y); a message-form prefix has one input,
        # with px = 1.0, and p * 1.0 == p
        if encoder:
            xl = [encoder_input(policy, t, w, h) for w, h in zip(msg, yh)]
            xs = np.array(xl)
            if xs.dtype.kind not in "iu" or min(xl) < 0 or max(xl) >= xn:
                raise SchemaError(f"encoder input outside 0..{xn - 1} at t={t}")
            head = prob[:, None, None, None] * ps[:, None, :, None]
            rows, live = q.take(xs, 0)[:, None], q_live.take(xs, 0)[:, None]
        else:
            px = np.array([behavioral_row(policy, t, a, b) for a, b in zip(xh, yh)])
            head = (prob[:, None, None, None] * px[:, :, None, None]) * ps[:, None, :, None]
            rows, live = q, (px > 0.0)[:, :, None, None] & q_live
        if np.count_nonzero(ps) < ps.size:
            live = live & (ps != 0.0)[:, None, :, None]
        kids = live.ravel().nonzero()[0]
        _check_budget(kids.size, t, horizon, budget)
        prob = (head * rows).ravel().take(kids)
        par, x, s, y = np.unravel_index(kids, live.shape)
        if encoder:
            x = xs.take(par)
        s_mem, x_mem = s_mem.take(par) * sn + s, x_mem.take(par) * xn + x
        pl, xl, sl, yl = par.tolist(), x.tolist(), s.tolist(), y.tolist()
        msg = [msg[a] for a in pl]
        xh = [xh[a] + single[b] for a, b in zip(pl, xl)]
        sh = [sh[a] + single[b] for a, b in zip(pl, sl)]
        yh = [yh[a] + single[b] for a, b in zip(pl, yl)]
        # each child's output node, numbered in order of first appearance;
        # children on one node share its history tuple
        ids: dict = {}
        node = [ids.setdefault(h, first + len(ids)) for h in yh]
        keys = list(ids)
        yh = [keys[i - first] for i in node]
        y_keys.append(keys)
        first += len(keys)
        steps.append((par, np.array((node, xl, yl), dtype=np.intp)))
        # the last level's temporaries are the largest: free them before
        # the level tables are counted
        del par, x, s, y, pl, xl, sl, yl, node, kids, head, rows, live

    trajectories = dict(zip(zip(msg, xh, sh, yh), prob.tolist()))
    del xh, sh, yh
    tables = dict_level_tables(prob, np.array(msg, dtype=np.intp), steps, y_keys, m, xn, yn)
    return DictLaw(
        channel=ch,
        policy=policy,
        horizon=horizon,
        messages=m,
        trajectories=trajectories,
        node_prob=tables[0],
        w_post=tables[1],
        xy_node=tables[2],
        wy_node=tables[3],
    )


def dict_level_tables(prob, msg, steps, y_keys, m, xn, yn):
    """(node_prob, w_post, xy_node, wy_node) from the level arrays of
    ``forward_joint``.

    Each table is an ``np.bincount`` over every full trajectory at every
    level, with the output nodes of all levels numbered in one sequence.
    bincount adds the weights of a bin in input order from 0.0, so each
    entry is the same running sum, over trajectories in order, as a
    per-node accumulation; the keys of each level are its output histories
    in order of first appearance.  Every node has a trajectory through it,
    so no row divides 0 by 0 unless its probability underflows.

    A bin belongs to one level, so the levels can be counted in passes,
    from the horizon down, without changing a sum; a pass covers at most
    ``_PASS_SIZE`` trajectory-levels, which bounds the index arrays of a
    large law.  A small law takes one pass.
    """
    from fbound.channel_model import _PASS_SIZE

    horizon = len(steps)
    count = prob.size
    offsets = list(itertools.accumulate([len(k) for k in y_keys], initial=0))
    nodes, inner = offsets[-1], offsets[-2]  # levels 0..N, and 0..N-1
    span = max(1, _PASS_SIZE // count)
    up = np.arange(count)  # each trajectory's prefix at the level being read
    above = None  # (x, y) of the level above the pass
    parts = []
    for hi in range(horizon, -1, -span):
        lo = max(hi - span + 1, 0)
        k, ks = hi - lo + 1, min(hi, horizon - 1) - lo + 1
        # cols[:, j] = (output node, x, y) of every trajectory at level
        # lo + j; column k is the level above, which only needs (x, y)
        cols = np.empty((3, k + 1, count), dtype=np.intp)
        for t in range(hi, max(lo, 1) - 1, -1):
            par, info = steps[t - 1]
            cols[:, t - lo] = info.take(up, axis=1)
            up = par.take(up)
        if lo == 0:
            cols[0, 0] = 0
        if above is not None:
            cols[1:, k] = above
        above = cols[1:, 0].copy()
        node, x, y = cols[0, :k], cols[1, 1 : ks + 1], cols[2, 1 : ks + 1]
        if offsets[lo]:
            node -= offsets[lo]
        prev = node[:ks]
        weights = np.concatenate((prob,) * k)
        size, size_inner = offsets[hi + 1] - offsets[lo], offsets[lo + ks] - offsets[lo]
        parts.append((
            np.bincount(node.ravel(), weights, size),
            np.bincount((node * m + msg).ravel(), weights, size * m),
            np.bincount(((prev * xn + x) * yn + y).ravel(), weights[: ks * count],
                        size_inner * xn * yn),
            np.bincount(((prev * m + msg) * yn + y).ravel(), weights[: ks * count],
                        size_inner * m * yn),
        ))
    node_mass, w_mass, xy_mass, wy_mass = (
        part[0] if len(parts) == 1 else np.concatenate(part[::-1]) for part in zip(*parts)
    )
    w_post = list(w_mass.reshape(nodes, m) / node_mass[:, None])
    xy_node = list(xy_mass.reshape(inner, xn, yn) / node_mass[:inner, None, None])
    wy_node = list(wy_mass.reshape(inner, m, yn) / node_mass[:inner, None, None])
    node_mass = node_mass.tolist()

    def levels(values, keys):
        return tuple(
            dict(zip(k, values[lo:hi])) for k, lo, hi in zip(keys, offsets, offsets[1:])
        )

    return (
        levels(node_mass, y_keys),
        levels(w_post, y_keys),
        ({},) + levels(xy_node, y_keys[:-1]),
        ({},) + levels(wy_node, y_keys[:-1]),
    )


@dataclass(frozen=True)
class PosteriorTables:
    """Message posteriors along output histories for a message-form law.

    - prior[t][y^t]: posterior over messages after y^t (t = 0..N)
    - step[t][y^{t-1}][w]: per-message output law P(Y_t | W=w, y^{t-1})
      as an array (M, y_size); rows for zero-posterior messages are NaN.
    """

    horizon: int
    messages: int
    prior: tuple[dict[tuple[int, ...], np.ndarray], ...]
    step: tuple[dict[tuple[int, ...], np.ndarray], ...]

    def map_message(self, t: int, node: tuple[int, ...]) -> int:
        """Most likely message after y^t; ties resolve to the lowest index."""
        return int(np.argmax(self.prior[t][node]))


def posteriors(law: DictLaw) -> PosteriorTables:
    """Exact message posteriors and one-step predictive laws.

    Raises SchemaError on behavioral laws (no message to infer).
    """
    from fbound.channel_model import SchemaError

    if not law.is_message_form:
        raise SchemaError("posteriors need a message-form law")
    step = tuple({} for _ in range(law.horizon + 1))
    for t in range(1, law.horizon + 1):
        for prev, wy in law.wy_node[t].items():
            mu = law.w_post[t - 1][prev]
            rows = np.full_like(wy, np.nan)
            pos = mu > 0.0
            rows[pos] = wy[pos] / mu[pos, None]
            step[t][prev] = rows
    return PosteriorTables(
        horizon=law.horizon,
        messages=law.messages,
        prior=law.w_post,
        step=step,
    )


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
        from fbound.info_measures import log_ratio_bound

        return log_ratio_bound(self.channel)


def position_links(law):
    """``NodeTable.children`` and ``path_nodes`` through an inverse map over
    the full output tree, from flat output-tree index to history position,
    as the table built them before it read the law's parent links."""
    from fbound.channel_model import _level_offsets
    from fbound.info_measures import node_table

    table = node_table(law)
    y, n = law.channel.spec.y_size, law.horizon
    offsets = _level_offsets(y, n + 1)
    flat = np.concatenate((table.node, offsets[n] + table.leaf))
    position = np.full(offsets[n + 1], -1, dtype=np.int64)
    position[flat] = np.arange(flat.size)
    off = np.array(offsets)
    first = (table.node - off[table.level]) * y + off[table.level + 1]
    children = position[first[:, None] + np.arange(y)]
    path_nodes = np.stack(
        [position[offsets[t] + table.leaf // y ** (n - t)] for t in range(n + 1)], axis=1)
    return children, path_nodes


def dict_law(law) -> DictLaw:
    """The dict tables of a law: the dict engine's law for the library
    law's (channel, policy, horizon), built once and kept with the law; a
    ``DictLaw`` is its own."""
    if isinstance(law, DictLaw):
        return law
    old = law.__dict__.get("_dict_law")
    if old is None:
        old = dict_forward_joint(law.channel, law.policy, law.horizon)
        object.__setattr__(law, "_dict_law", old)
    return old


def loop_drift_terms(law) -> DriftTerms:
    """``drift_terms`` from the per-history loops: the level dicts of
    ``loop_drift_levels`` and the largest row divergence."""
    from fbound.channel_model import SchemaError
    from fbound.info_measures import max_pairwise_row_kl

    if not law.is_message_form:
        raise SchemaError("drift terms need a message-form law")
    mi_levels, kl_levels = loop_drift_levels(law)
    return DriftTerms(
        horizon=law.horizon,
        mi_drift=mi_levels,
        kl_drift=kl_levels,
        max_pairwise_kl=max_pairwise_row_kl(law.channel),
        channel=law.channel,
    )
