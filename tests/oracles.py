"""Independent brute-force reference implementations used only by tests.

Everything here recomputes quantities from first principles with flat
cartesian-product loops and explicit probability formulas, sharing no code
with the library beyond numpy.  Deliberately slow and simple.  The
exceptions are the last two sections: the per-rule loops that the
stopping-rule and node tables replaced, and the recursive joint-law
enumeration and memo-free capacity search that the level arrays replaced,
kept as references for bit-identity.
"""

from __future__ import annotations

import itertools
import math

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


def oracle_directed_kl(joint, a, b, x_size, y_size, variant):
    """Double loop over (step, history, input) per the two max orders."""
    total = 0.0
    for t in range(a, b + 1):
        prevs = marginal_y(joint, t - 1)
        if variant == "per_history_max":
            for prev, pprev in prevs.items():
                x_star, rows = oracle_effective_rows(joint, t, prev, x_size, y_size)
                base = rows[x_star]
                total += pprev * max(kl_bits(base, r) for r in rows.values())
        else:
            per_x = {}
            for prev, pprev in prevs.items():
                x_star, rows = oracle_effective_rows(joint, t, prev, x_size, y_size)
                base = rows[x_star]
                for x, r in rows.items():
                    per_x[x] = per_x.get(x, 0.0) + pprev * kl_bits(base, r)
            total += max(per_x.values()) if per_x else 0.0
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
# ``rule`` argument) as the reference for bit-identity tests.  Unlike the
# oracles above they call the library's per-history terms
# (``mutual_information`` and the worst-row divergence), which are not what
# these references check: the tests compare sums, orders and rule logic with
# ``==``.


def _step_kl_per_history(law, t, prev):
    """max_x D(row(x*) || row(x)) over realizable inputs at one history."""
    from fbound.info_measures import _worst_row_kl

    return _worst_row_kl(law.xy_node[t][prev])


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


def loop_directed_mi_stopped(law, rule):
    from fbound.channel_model import SchemaError
    from fbound.info_measures import mutual_information

    if rule.horizon > law.horizon:
        raise SchemaError("stopping rule runs past the law horizon")
    total = 0.0
    for t in range(1, rule.horizon + 1):
        for prev, xy in law.xy_node[t].items():
            if loop_is_stopped(rule, prev):
                continue
            total += law.node_prob[t - 1][prev] * mutual_information(xy)
    return total


def loop_expected_stop_time(law, rule):
    total = 0.0
    for path, p in law.node_prob[law.horizon].items():
        total += p * loop_stop_time(rule, path[: rule.horizon])
    return total


def loop_directed_kl_stopped(law, first, last):
    from fbound.channel_model import SchemaError

    if not loop_dominates(first, last):
        raise SchemaError("window start must stop no later than window end")
    total = 0.0
    for t in range(1, last.horizon + 1):
        for prev, _ in law.xy_node[t].items():
            # live in the window iff T1 < t <= T, i.e. the start rule already
            # stopped strictly before t and the end rule has not
            if not loop_is_stopped(first, prev):
                continue
            if loop_is_stopped(last, prev):
                continue
            total += law.node_prob[t - 1][prev] * _step_kl_per_history(law, t, prev)
    return total


def loop_step_aggregates(law):
    """E over histories of the per-step information and divergence terms."""
    import numpy as np

    from fbound.info_measures import mutual_information

    n = law.horizon
    ej = np.zeros(n + 1)
    ed = np.zeros(n + 1)
    for t in range(1, n + 1):
        for prev, xy in law.xy_node[t].items():
            p = law.node_prob[t - 1][prev]
            ej[t] += p * mutual_information(xy)
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


def loop_directed_mi_fixed(law, n):
    from fbound.info_measures import mutual_information

    total = 0.0
    for t in range(1, n + 1):
        for prev, xy in law.xy_node[t].items():
            total += law.node_prob[t - 1][prev] * mutual_information(xy)
    return total


def loop_directed_kl_per_history_max(law, a, b):
    total = 0.0
    for t in range(a, b + 1):
        for prev in law.xy_node[t]:
            total += law.node_prob[t - 1][prev] * _step_kl_per_history(law, t, prev)
    return total


def loop_drift_levels(law):
    """(mi_drift, kl_drift) level dicts of ``drift_terms``."""
    from fbound.info_measures import mutual_information

    mi_levels = []
    kl_levels = []
    for t in range(law.horizon + 1):
        mi_lvl = {}
        kl_lvl = {}
        if t >= 1:
            for prev in law.xy_node[t]:
                mi_lvl[prev] = mutual_information(law.xy_node[t][prev])
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


def loop_forward_joint(ch, policy, horizon, budget=10**7):
    """Enumerate the exact joint law over all positive-probability
    trajectories of length ``horizon``.

    The trajectory probability is the product, over steps, of the policy
    factor, the state-kernel factor, and the channel factor; zero branches
    are pruned.  Raises BudgetExceededError when the live trajectory count
    would exceed ``budget`` and SchemaError when the kernel cannot drive the
    requested horizon.
    """
    from fbound.channel_model import BudgetExceededError, JointLaw, SchemaError

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
            x_choices = [(policy.encoder(t, w, y_hist), 1.0)]
        else:
            row = policy.input_distribution(t, x_hist, y_hist)
            x_choices = [(x, float(row[x])) for x in range(spec.x_size) if row[x] > 0.0]
        s_row = kernel.distribution(t, s_hist, x_hist)
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
    return JointLaw(
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


def loop_capacity_bound(ch, horizon, cfg):
    """Best found value of stopped directed information per expected stop
    time, over behavioral policies (simplex-grid coordinate ascent with
    restarts) and stopping rules.

    The returned maximizer records the policy rows and the stop set, so the
    value can be recomputed exactly; diagnostics report the largest
    improvement available one grid step away from the chosen policy.
    """
    from fbound.bound_engine import (
        BoundResult, _capacity_objective, _capacity_rules, _policy_row_keys, _simplex_grid,
    )
    from fbound.channel_model import SchemaError
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
