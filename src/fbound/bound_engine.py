"""Upper bounds on feedback rate and feedback error exponent.

Three bound families:

- ``burnashev``: the classical memoryless-channel exponent C1 * (1 - R/C),
  with capacity certified by an alternating-maximization upper/lower gap;
- ``capacity_bound``: sup over behavioral input policies and bounded
  stopping rules of stopped directed information per expected stop time;
- ``exponent_bound``: sup over message-form deterministic encoders and
  nested stopping-rule pairs of D * (1 - R/I), where I is the per-step
  information accumulated up to the first rule and D the per-step
  worst-case effective-channel divergence accumulated between the rules.

Searches are exact enumerations over finite families (encoders, stopping
rules) combined with seeded coordinate ascent on a simplex grid for
behavioral policies, so every reported value is the exact evaluation of a
stored maximizer; ``reevaluate`` recomputes it from that record.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .channel_model import (
    BudgetExceededError,
    Channel,
    DEFAULT_TRAJECTORY_BUDGET,
    InputPolicy,
    JointLaw,
    SchemaError,
    StoppingRule,
    _PASS_SIZE,
    _SeededIntegers,
    _policy_row_keys,
    check_seed,
    encoder_tables,
    enumerate_stopping_rules,
    forward_joint,
    policy_tables,
    uniform_behavioral_policy,
)
from .info_measures import (
    NodeTable,
    _fano_ceiling,
    _sum_in_place,
    _v_term,
    map_error,
    max_pairwise_row_kl,
    node_table,
    rule_stack,
    stopped_values,
    window_divergence,
)

__all__ = [
    "SearchConfig",
    "BoundResult",
    "BurnashevResult",
    "dmc_capacity",
    "burnashev",
    "capacity_bound",
    "exponent_bound",
    "exponent_candidates",
    "Candidates",
    "dmc_consistency",
    "ConsistencyReport",
    "ResidualTerms",
    "residual_terms",
    "reevaluate",
]

# ``dmc_capacity`` stops below this certified gap, on an update this small
# (with a gap below 1e-6), or after this many updates
CAPACITY_CERT_GAP = 1e-9
CAPACITY_UPDATE_TOL = 1e-10
CAPACITY_MAX_ITER = 200_000


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for the bound searches; defaults match the documented
    acceptance setups."""

    grid_denominator: int = 16  # simplex grid resolution per coordinate
    sweeps: int = 50            # coordinate-ascent passes (early exit on no change)
    restarts: int = 8           # random restarts beyond the uniform start
    seed: int = 0
    stopping: str = "fixed"     # "fixed" (deterministic times) or "all" (prefix rules)
    rule_cap: int = 10**5
    budget: int = DEFAULT_TRAJECTORY_BUDGET
    fixed_t: int | None = None  # pin the capacity stopping time to one value
    messages: tuple[int, ...] = (2, 4)
    encoder_cap: int = 10**5    # max encoders enumerated per message count

    def __post_init__(self) -> None:
        if not isinstance(self.messages, (tuple, list)):
            raise SchemaError(f"messages must be a list of message counts, got {self.messages!r}")
        counts = {name: getattr(self, name) for name in (
            "grid_denominator", "sweeps", "restarts", "rule_cap", "budget", "encoder_cap")}
        counts.update((f"messages[{i}]", m) for i, m in enumerate(self.messages))
        if self.fixed_t is not None:
            counts["fixed_t"] = self.fixed_t
        for name, value in counts.items():
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise SchemaError(f"{name} must be an integer, got {value!r}")
        if self.grid_denominator < 1:
            raise SchemaError("grid denominator must be >= 1")
        if self.sweeps < 0 or self.restarts < 0:
            raise SchemaError("sweeps and restarts must be >= 0")
        if self.stopping not in ("fixed", "all"):
            raise SchemaError(f"unknown stopping family {self.stopping!r}")
        if not self.messages or min(self.messages) < 1:
            raise SchemaError("message counts must be a non-empty list of values >= 1")
        if min(self.rule_cap, self.budget, self.encoder_cap) < 1:
            raise SchemaError("rule, encoder and enumeration caps must be >= 1")
        check_seed(self.seed, "seed")


@dataclass(frozen=True)
class BoundResult:
    """A bound value together with the maximizer that produced it and
    enough detail to re-evaluate it from scratch."""

    kind: str                  # "capacity" or "exponent"
    value: float
    horizon: int
    rate: float | None = None
    maximizer: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)
    flags: tuple[str, ...] = ()

    def to_json(self) -> str:
        def clean(obj):
            if isinstance(obj, dict):
                return {str(k): clean(v) for k, v in obj.items()}
            if isinstance(obj, (list, tuple)):
                return [clean(v) for v in obj]
            if isinstance(obj, float) and math.isinf(obj):
                return "inf" if obj > 0 else "-inf"
            if isinstance(obj, np.floating):
                return float(obj)
            if isinstance(obj, np.integer):
                return int(obj)
            return obj

        payload = {
            "kind": self.kind,
            "value": clean(self.value),
            "horizon": self.horizon,
            "rate": clean(self.rate),
            "maximizer": clean(self.maximizer),
            "diagnostics": clean(self.diagnostics),
            "flags": list(self.flags),
        }
        return json.dumps(payload, sort_keys=True, indent=2)


# ---------------------------------------------------------------------------
# memoryless capacity and the classical exponent
# ---------------------------------------------------------------------------


def dmc_capacity(rows: np.ndarray) -> tuple[float, np.ndarray, float]:
    """Capacity of a memoryless channel in bits by alternating maximization.

    Returns (capacity, input distribution, certified gap): the true capacity
    lies within ``gap`` of the returned value, by the standard sandwich
    between the achieved information and the worst-row divergence from the
    output marginal.
    """
    q = np.asarray(rows, dtype=float)
    x_size = q.shape[0]
    r = np.full(x_size, 1.0 / x_size)
    gap = math.inf
    lower = 0.0
    for _ in range(CAPACITY_MAX_ITER):
        py = r @ q
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(q > 0, q / np.where(py > 0, py, 1.0), 1.0)
            d = np.where(q > 0, q * np.log2(ratio), 0.0).sum(axis=1)
        lower = float(r @ d)
        upper = float(d.max())
        gap = upper - lower
        if gap < CAPACITY_CERT_GAP:
            break
        r_new = r * np.exp2(d)
        r_new /= r_new.sum()
        if np.max(np.abs(r_new - r)) < CAPACITY_UPDATE_TOL and gap < 1e-6:
            r = r_new
            break
        r = r_new
    mid = lower + 0.5 * max(gap, 0.0)
    return mid, r, max(gap, 0.0)


@dataclass(frozen=True)
class BurnashevResult:
    capacity: float
    max_kl: float
    rate: float
    exponent: float
    infinite: bool
    gap: float

    def line(self) -> str:
        e = "inf" if self.infinite else f"{self.exponent:.9f}"
        return (
            f"C={self.capacity:.9f} C1={self.max_kl:.9f} "
            f"R={self.rate:.9f} E={e}"
        )


def burnashev(ch: Channel, rate: float) -> BurnashevResult:
    """Classical feedback error-exponent line C1 * (1 - R/C) for a
    memoryless channel.

    The divergence C1 is the largest pairwise divergence between channel
    rows; when some row pair has a support mismatch the exponent is
    explicitly infinite.  Rates above capacity are rejected.
    """
    if not ch.spec.is_dmc():
        raise SchemaError("the classical exponent needs a single-state channel")
    if not rate >= 0:  # also rejects NaN
        raise SchemaError(f"rate must be a nonnegative number, got {rate!r}")
    rows = ch.spec.q[0]
    cap, _, gap = dmc_capacity(rows)
    c1 = max_pairwise_row_kl(ch)
    if rate > cap + 1e-9:
        raise SchemaError(f"rate {rate} exceeds capacity {cap:.9f}")
    if math.isinf(c1):
        return BurnashevResult(cap, c1, rate, math.inf, True, gap)
    if rate == 0.0:
        return BurnashevResult(cap, c1, rate, c1, False, gap)
    exponent = c1 * (1.0 - rate / cap)
    return BurnashevResult(cap, c1, rate, exponent, False, gap)


# ---------------------------------------------------------------------------
# capacity bound: behavioral policy x stopping rule search
# ---------------------------------------------------------------------------


def _simplex_grid(x_size: int, denom: int) -> list[tuple[float, ...]]:
    """The points c / denom, integer counts c summing to denom, in ascending
    order: one per composition of denom, read off its bar positions (stars
    and bars), which ``combinations`` yields in the counts' order."""
    out = []
    for bars in itertools.combinations(range(denom + x_size - 1), x_size - 1):
        ends = (-1, *bars, denom + x_size - 1)
        out.append(tuple((ends[i + 1] - ends[i] - 1) / denom for i in range(x_size)))
    return out


def _enumerated_rules(cfg: SearchConfig, flags: list[str], enumerate_all):
    """The rule-family step of both searches: ``enumerate_all()`` for
    ``stopping="all"``, else None for fixed times; None also when it exceeds
    the rule cap, which raises the fallback flag."""
    if cfg.stopping == "all":
        try:
            return enumerate_all()
        except BudgetExceededError:
            flags.append("rule_cap_exceeded_fell_back_to_fixed")
    return None


def _capacity_rules(ch: Channel, horizon: int, cfg: SearchConfig):
    flags: list[str] = []
    y = ch.spec.y_size
    if cfg.fixed_t is not None:
        return [StoppingRule.fixed(cfg.fixed_t, horizon, y)], flags
    rules = _enumerated_rules(
        cfg, flags, lambda: enumerate_stopping_rules(horizon, y, cap=cfg.rule_cap))
    return rules or [StoppingRule.fixed(t, horizon, y) for t in range(1, horizon + 1)], flags


def _capacity_values(ch: Channel, horizon: int, budget: int, px, rules, stack):
    """The best stopped information per expected stop time, and its rule,
    of every policy ``px[g]`` over all rules at once, their laws built
    together (``policy_tables``); ``stack`` is ``rule_stack(rules,
    horizon)``.  Ties go to the earliest rule."""
    table = NodeTable.of(policy_tables(ch, px, horizon, budget), ch.spec.y_size)
    et, mi = stopped_values(table, *stack)
    vals = mi / et
    best = vals.argmax(axis=1)
    return [(v, rules[b]) for v, b in zip(vals[np.arange(best.size), best].tolist(), best.tolist())]


def capacity_bound(ch: Channel, horizon: int, cfg: SearchConfig = SearchConfig()) -> BoundResult:
    """Best found value of stopped directed information per expected stop
    time, over behavioral policies (simplex-grid coordinate ascent with
    restarts) and stopping rules.

    The returned maximizer records the policy rows and the stop set, so the
    value can be recomputed exactly; diagnostics report the largest
    improvement available one grid step away from the chosen policy.

    The search builds the uniform policy's law, where restart 0 starts.
    Every policy's support lies inside it, so it is also the largest law
    the search can reach: the trajectory budget is checked on it, then on
    the grid's point count per row, and it sizes the batches.  Each batch
    of policies has its laws built together, in the one trajectory loop
    (``policy_tables``), bit-identical to building each policy's own law,
    and every policy is valued once per search: values are memoized on the
    tuple of rows in ``InputPolicy.rows`` order.  The
    restarts advance in lockstep: their starts are valued together, and at
    each row key a sweep values every grid move of that row for every
    restart still improving, in batches, then scans each restart's moves in
    grid order and accepts one that beats its value by more than 1e-12.
    Only that row changes in the scan, so each move is the policy a
    one-move-at-a-time loop would form; a restart leaves after a sweep
    without a change, and the best restart wins ties in restart order.
    A value does not depend on its batch, so the result is that of running
    the restarts one after another.  The gap loop reads the same move values
    around the maximizer and stores none.
    """
    if horizon < 1:
        raise SchemaError("horizon must be >= 1")
    rules, flags = _capacity_rules(ch, horizon, cfg)
    stack = rule_stack(rules, horizon)
    law = forward_joint(ch, uniform_behavioral_policy(ch, horizon), horizon, budget=cfg.budget)
    x_size, denom = ch.spec.x_size, cfg.grid_denominator
    points = math.comb(denom + x_size - 1, x_size - 1)
    if points > cfg.budget:
        raise BudgetExceededError(f"the policy grid has {points} points per row, over the "
                                  f"budget {cfg.budget}")
    grid = _simplex_grid(x_size, denom)
    # policies per batch: a batch holds about six arrays over its
    # trajectory-levels (``_grow``'s products and live masks,
    # ``_level_tables``' weights and bincount indices) and four over its
    # rule-by-node cells (``stopped_values``' masks, terms and running sums)
    # at once, within ``_PASS_SIZE`` entries together
    per_policy = 6 * law.prob.size * (horizon + 1) + 4 * len(rules) * law.node_prob.size
    batch = max(1, _PASS_SIZE // per_policy)
    memo: dict = {}

    def values(policies, store):  # store: the memo, or a dict of values not to keep
        new = [p for p in dict.fromkeys(policies) if p not in memo]
        for lo in range(0, len(new), batch):
            part = new[lo : lo + batch]
            store.update(zip(part, _capacity_values(ch, horizon, cfg.budget, np.array(part),
                                                    rules, stack)))
        return [memo[p] if p in memo else store[p] for p in policies]

    def moves(rows, i, store):  # (grid point, (value, rule)) of each move of row i
        return zip(grid, values([rows[:i] + (cand,) + rows[i + 1 :] for cand in grid], store))

    rng = _SeededIntegers(cfg.seed)
    starts = [tuple(map(tuple, law.policy.rows.tolist()))]
    starts += [tuple(grid[rng.integers(0, len(grid))] for _ in law.policy.rows)
               for _ in range(cfg.restarts)]
    # one [rows, value, rule] per restart; each (sweep, row) step values
    # that row's moves of every restart still improving as one ask
    runs = [[rows, *found] for rows, found in zip(starts, values(starts, memo))]
    active, n = runs, len(grid)
    for _ in range(cfg.sweeps):
        if not active:
            break
        changed = set()
        for i in range(len(law.policy.rows)):
            asked = values([rows[:i] + (cand,) + rows[i + 1 :]
                            for rows, _, _ in active for cand in grid], memo)
            for k, run in enumerate(active):
                rows, val, rule = run
                cur = rows[i]
                for cand, (v, ru) in zip(grid, asked[k * n : (k + 1) * n]):
                    if cand != cur and v > val + 1e-12:
                        cur, val, rule = cand, v, ru
                        changed.add(k)
                run[:] = rows[:i] + (cur,) + rows[i + 1 :], val, rule
        active = [run for k, run in enumerate(active) if k in changed]
    best_val, best_rows, best_rule = -math.inf, None, None
    for rows, val, rule in runs:
        if val > best_val:
            best_val, best_rows, best_rule = val, rows, rule

    # one-grid-step optimality gap around the maximizer: its moves are
    # read from the memo, and each row's new values are dropped after it
    gap = 0.0
    for i, cur in enumerate(best_rows):
        for cand, (v, _) in moves(best_rows, i, {}):
            if cand != cur:
                gap = max(gap, v - best_val)

    maximizer = {
        "policy_rows": {
            f"{t}|{','.join(map(str, xh))}|{','.join(map(str, yh))}": list(row)
            for (t, xh, yh), row in zip(_policy_row_keys(ch, horizon), best_rows)
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


def _rows_from_maximizer(payload: dict, ch: Channel, horizon: int) -> InputPolicy:
    """The stored policy rows as a behavioral policy, rows in
    ``_policy_row_keys`` order; a stored row off those keys is not read."""
    stored = payload.get("policy_rows")
    if not isinstance(stored, dict):
        raise SchemaError(f"stored policy rows {stored!r} are not a mapping")
    rows = {}
    for key, row in stored.items():
        try:
            t_s, xh_s, yh_s = key.split("|")
            xh = tuple(int(v) for v in xh_s.split(",") if v != "")
            yh = tuple(int(v) for v in yh_s.split(",") if v != "")
            rows[(int(t_s), xh, yh)] = tuple(float(v) for v in row)
        except (AttributeError, TypeError, ValueError) as e:
            raise SchemaError(f"stored policy row {key!r}: {row!r} is not a 't|x,..|y,..' key "
                              f"with a list of input probabilities") from e
    keys = _policy_row_keys(ch, horizon)
    for t, xh, yh in keys:
        if (t, xh, yh) not in rows:
            raise SchemaError(f"behavioral policy lacks row (t={t}, {xh}, {yh})")
    return InputPolicy(horizon=horizon, x_size=ch.spec.x_size, y_size=ch.spec.y_size,
                       rows=[rows[k] for k in keys])


def _tables_from_maximizer(payload: dict, x_size: int, y_size: int, horizon: int):
    """The stored encoder as ``encoder_tables``' step arrays of a batch of
    one, refused unless step t holds m rows of y_size**(t-1) integer inputs,
    for t = 1..horizon.  An input outside the alphabet is read as -1, which
    the law refuses where it reads it and which fits the index array however
    large the stored number is."""
    m, tables = payload.get("m"), payload.get("encoder_tables")

    def is_step(step, t):
        return (isinstance(step, (list, tuple)) and len(step) == m
                and all(isinstance(row, (list, tuple)) and len(row) == y_size ** (t - 1)
                        and all(isinstance(x, (int, np.integer)) and not isinstance(x, bool)
                                for x in row)
                        for row in step))

    if not (type(m) is int and m >= 1 and isinstance(tables, (list, tuple))
            and len(tables) == horizon
            and all(is_step(step, t) for t, step in enumerate(tables, start=1))):
        raise SchemaError(f"stored encoder tables are not, for m = {m!r} messages, {horizon} "
                          f"steps of m rows of {y_size}**(t-1) integer inputs")
    return [np.array([[[x if 0 <= x < x_size else -1 for x in row] for row in step]],
                     dtype=np.intp) for step in tables]


# ---------------------------------------------------------------------------
# exponent bound: encoder x stopping-pair search
# ---------------------------------------------------------------------------


def _encoder_family(m, x_size, y_size, horizon, cap):
    """(kind, count) of the encoders searched for m messages: all of them
    ("full") when there are at most ``cap``, else those whose input depends
    on the step and message alone ("per_step")."""
    kind, count = "full", 1
    for t in range(1, horizon + 1):
        count *= x_size ** (m * y_size ** (t - 1))
        if count > cap:
            kind, count = "per_step", (x_size**m) ** horizon
            break
    if count > cap:
        raise BudgetExceededError(f"even the per-step encoder family for m={m} exceeds cap {cap}")
    if count > np.iinfo(np.int64).max:
        raise BudgetExceededError(f"the {kind} encoder family for m={m} has {count} encoders, "
                                  f"over the int64 index cap {np.iinfo(np.int64).max}")
    return kind, count


def _encoder_steps(kind, ks, m, x_size, y_size, horizon):
    """``encoder_tables``' step arrays ``steps[t - 1][g, w, i]`` of the
    encoders ``ks[g]``, a range of indices into a ``_encoder_family``.
    Encoder k is k written in base x_size over the family's cells, first
    cell most significant: (t, w, i) for "full", the step, message and
    output-history index; (t, w) for "per_step", whose steps are width-1
    tables, one input for every history."""
    widths = [y_size ** (t - 1) if kind == "full" else 1 for t in range(1, horizon + 1)]
    k = np.arange(ks.start, ks.stop, dtype=np.int64)
    digits = np.empty((k.size, m * sum(widths)), dtype=np.intp)
    for cell in reversed(range(digits.shape[1])):
        k, digits[:, cell] = np.divmod(k, x_size)
    cuts = np.cumsum([m * width for width in widths])[:-1]
    return [step.reshape(len(ks), m, width)
            for step, width in zip(np.split(digits, cuts, axis=1), widths)]


def _step_aggregates(table: NodeTable, horizon: int):
    """E over histories of the per-step information and divergence terms of
    every law of ``table``: ej[g, t] and ed[g, t] sum the node-table terms of
    level t - 1, in node order."""
    at_level = table.level == np.arange(horizon)[:, None]
    zero = np.zeros((table.prob.shape[0], 1))
    ej = np.concatenate((zero, _sum_in_place(np.where(at_level, table.mi[:, None], 0.0))), axis=1)
    ed = np.concatenate((zero, _sum_in_place(np.where(at_level, table.kl[:, None], 0.0))), axis=1)
    return ej, ed


def _window_sums(terms: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """``terms[g, lo:hi].sum()`` of every row g, each as that 1-D sum."""
    return np.ascontiguousarray(terms[:, lo:hi]).sum(axis=1)


def _pair_rates(table: NodeTable, first: np.ndarray, last: np.ndarray, stack, horizon: int):
    """Rates of the stopping pairs (first[k], last[k]) of every law of
    ``table`` whose second phase has positive expected length: rows of
    ``stack``, a ``rule_stack``, or, when it is None, the deterministic
    times T1 = first[k], T = last[k].

    Returns (keep, i_rate, d_rate, et, et1): the mask of the kept pairs,
    laws x pairs, and the columns over the kept (law, pair) cells in
    law-major, then pair, order.
    """
    if stack is None:
        ej, ed = _step_aggregates(table, horizon)
        pairs = list(zip(first.tolist(), last.tolist()))
        i_rate = np.stack([_window_sums(ej, 1, t1 + 1) / t1 for t1, _ in pairs], axis=1)
        d_rate = np.stack([_window_sums(ed, t1 + 1, t + 1) / (t - t1) for t1, t in pairs], axis=1)
        keep = np.ones(i_rate.shape, dtype=bool)
        et, et1 = (np.broadcast_to(1.0 * v, i_rate.shape) for v in (last, first))
        return keep, i_rate.ravel(), d_rate.ravel(), et.ravel(), et1.ravel()
    stopped, times = stack
    et, mi = stopped_values(table, stopped, times)
    et1, et2 = et[:, first], et[:, last]
    keep = ~(et2 - et1 <= 1e-12)
    i_rate = (mi / et)[:, first][keep]
    div = window_divergence(table, stopped, first, last)[keep]
    return keep, i_rate, div / (et2[keep] - et1[keep]), et2[keep], et1[keep]


def _stopping_pairs(ch: Channel, horizon: int, cfg: SearchConfig):
    """(first, last, rules, flags): for ``stopping="all"``, every pair of
    distinct rules with first stopping no later than last, as index arrays
    into ``rules``, first-major; otherwise the times t1 < t, with ``rules``
    None."""
    flags: list[str] = []

    def rule_pairs():
        rules = enumerate_stopping_rules(horizon, ch.spec.y_size, cap=cfg.rule_cap)
        stime = np.stack([rule.stop_times for rule in rules])
        first, last, count = [], [], 0
        for a in range(len(rules)):
            dominated = np.all(stime[a] <= stime, axis=1)
            dominated[a] = False
            later = np.flatnonzero(dominated)
            first.append(np.full(later.size, a))
            last.append(later)
            count += later.size
            if count > cfg.rule_cap:
                raise BudgetExceededError("pair count over cap")
        return np.concatenate(first), np.concatenate(last), rules

    pairs = _enumerated_rules(cfg, flags, rule_pairs)
    if pairs is None:
        times = [(t1, t) for t1 in range(1, horizon) for t in range(t1 + 1, horizon + 1)]
        pairs = (*np.array(times).T, None)
    return (*pairs, flags)


def _candidate_values(i_rate: np.ndarray, d_rate: np.ndarray, rate: float) -> np.ndarray:
    """D * (1 - R/I) of each candidate at one rate: -inf where the first
    phase is numerically uninformative (I <= 1e-12), and for an infinite D,
    +inf when R < I and -inf otherwise.  One array of the candidates' size
    is formed, and each step writes over it."""
    value = np.empty(i_rate.shape)
    with np.errstate(all="ignore"):
        np.divide(rate, i_rate, out=value)
        np.subtract(1.0, value, out=value)
        np.multiply(d_rate, value, out=value)
    infinite = np.isinf(d_rate)
    value[infinite] = np.where(rate < i_rate[infinite], np.inf, -np.inf)
    value[i_rate <= 1e-12] = -np.inf
    return value


@dataclass(frozen=True, eq=False)
class Candidates:
    """Exponent candidates as columns, one entry per (encoder, stopping
    pair) whose second phase has positive expected length, encoder-major in
    enumeration order, then in pair order, however the search batched the
    encoders: ``m``, ``encoder`` (the encoder's index in the family of m
    messages, whose kind ``kinds[m]`` holds, see ``_encoder_steps``),
    ``pair`` (index into ``first`` and ``last``, indices into ``rules`` or,
    when it is None, times), ``i_rate`` (information per expected
    first-phase step), ``d_rate`` (divergence per expected second-phase
    step), ``et`` and ``et1`` (E[T] and E[T1]); ``sizes`` is (x_size,
    y_size, horizon)."""

    m: np.ndarray
    encoder: np.ndarray
    pair: np.ndarray
    i_rate: np.ndarray
    d_rate: np.ndarray
    et: np.ndarray
    et1: np.ndarray
    kinds: dict[int, str]
    sizes: tuple[int, int, int]
    first: np.ndarray
    last: np.ndarray
    rules: list[StoppingRule] | None

    def __len__(self) -> int:
        return self.i_rate.size

    def best(self, rate: float) -> tuple[int, float]:
        """(k, value) of the candidate that ``max`` over the candidates in
        order picks at ``rate``: the earliest of equal values, and a NaN
        value only as the first candidate."""
        values = _candidate_values(self.i_rate, self.d_rate, rate)
        if np.isnan(values[0]):
            return 0, float(values[0])
        # values[0] is a number, so a NaN that fmax turns into -inf is never
        # argmax's first maximum: the value at k is the one scored
        k = int(np.argmax(np.fmax(values, -np.inf, out=values)))
        return k, float(values[k])

    def maximizer(self, k: int) -> dict:
        """Candidate k's record: message count, encoder tables
        (``encoder_tables[t - 1][w][i]``, the input for message w at step t
        after the output history of lexicographic index i) and stopping
        pair, as (t1, t) or as the two rules' sorted stop sets."""
        a, b = int(self.first[self.pair[k]]), int(self.last[self.pair[k]])
        pair = (a, b) if self.rules is None else tuple(
            sorted(list(s) for s in self.rules[r].stops) for r in (a, b))
        m, e = int(self.m[k]), int(self.encoder[k])
        steps = _encoder_steps(self.kinds[m], range(e, e + 1), m, *self.sizes)
        tables = [np.broadcast_to(step[0], (m, self.sizes[1] ** t)).tolist()
                  for t, step in enumerate(steps)]
        return {"m": m, "encoder_tables": tables, "pair": pair}


def exponent_candidates(
    ch: Channel, horizon: int, cfg: SearchConfig = SearchConfig()
) -> tuple[Candidates, tuple[str, ...]]:
    """Enumerate (encoder, stopping-pair) candidates with their per-phase
    information and divergence, independent of the target rate.

    The candidates are ``Candidates`` columns, and ``len`` of them is their
    count.  An encoder is kept as its index in its family; its tables and
    stop sets are formed only for a reported maximizer.  The encoders of one
    message count are evaluated in batches of consecutive indices: a
    batch's step arrays (``_encoder_steps``) give its laws, built together
    (``encoder_tables``), and every pair of every law of the batch
    is evaluated in one array pass (``_pair_rates``), bit for bit the values
    of each encoder's own law.  Each batch's kept cells are written straight
    into the columns, allocated once at the first batch for every (encoder,
    pair) cell the search can reach, and the columns returned are views of
    their filled prefix.
    Under a trajectory budget, the first encoder whose law exceeds it raises
    ``forward_joint``'s error; a message count over the encoder cap raises
    ``_encoder_family``'s error when the search reaches it.  Flags are
    listed in the order they were raised.
    """
    if horizon < 2:
        raise SchemaError("exponent search needs horizon >= 2")
    first, last, rules, flags = _stopping_pairs(ch, horizon, cfg)
    stack = None if rules is None else rule_stack(rules, horizon)
    spec = ch.spec
    nodes = sum(spec.y_size**t for t in range(horizon + 1))
    per_node = first.size + (0 if rules is None else len(rules))
    # the cells of the families the search reaches: those before the first
    # that ``_encoder_family`` refuses, which the loop refuses in turn
    cells = 0
    for m in cfg.messages:
        try:
            cells += first.size * _encoder_family(m, spec.x_size, spec.y_size, horizon,
                                                  cfg.encoder_cap)[1]
        except BudgetExceededError:
            break
    kinds, columns, filled = {}, None, 0
    for m in cfg.messages:
        kind, count = _encoder_family(m, spec.x_size, spec.y_size, horizon, cfg.encoder_cap)
        kinds[m] = kind
        restricted = f"m{m}_encoders_restricted_to_per_step_maps"
        if kind == "per_step" and restricted not in flags:
            flags.append(restricted)
        # the shared trajectories of a law number at most m (S Y)^N; a
        # batch holds about six arrays over its trajectory-levels
        # (``_level_tables``' step rows, weights and bincount indices) and,
        # over its pair- and rule-by-node cells, ``_pair_rates``' boolean
        # stop masks and one float array of terms, summed in place: under
        # two arrays, counted as four.  All of it within ``_PASS_SIZE``
        # entries together
        per_encoder = (6 * m * (spec.s_size * spec.y_size) ** horizon * (horizon + 1)
                       + 4 * per_node * nodes)
        batch = max(1, _PASS_SIZE // per_encoder)
        for start in range(0, count, batch):
            steps = _encoder_steps(kind, range(start, min(start + batch, count)), m,
                                   spec.x_size, spec.y_size, horizon)
            table = NodeTable.of(encoder_tables(ch, steps, horizon, cfg.budget), spec.y_size)
            keep, *rates = _pair_rates(table, first, last, stack, horizon)
            encoder, pair = keep.nonzero()
            if columns is None:
                # pages past the cells kept are never touched, so never resident
                columns = [np.empty(cells, dtype=np.int64) for _ in range(3)]
                columns += [np.empty(cells) for _ in rates]
            end = filled + encoder.size
            for column, values in zip(columns, (m, encoder + start, pair, *rates)):
                column[filled:end] = values
            filled = end
    sizes = (spec.x_size, spec.y_size, horizon)
    return (Candidates(*(column[:filled] for column in columns), kinds, sizes, first, last,
                       rules), tuple(flags))


def exponent_bound(
    ch: Channel,
    rate: float,
    horizon: int,
    cfg: SearchConfig = SearchConfig(),
    _candidates: tuple[Candidates, tuple[str, ...]] | None = None,
) -> BoundResult:
    """Best candidate value of D * (1 - R/I) at the given rate.

    Every candidate is scored at the rate in one array pass, and the
    maximizer record is formed for the winner alone.  Candidates whose
    searched information rate does not exceed R give non-positive values;
    they are reported only when nothing positive exists, with an
    explanatory flag.
    """
    if not rate >= 0:  # also rejects NaN
        raise SchemaError(f"rate must be a nonnegative number, got {rate!r}")
    if math.isinf(rate):
        raise SchemaError(f"rate must be finite, got {rate!r}")
    cands, flags = _candidates if _candidates is not None else exponent_candidates(
        ch, horizon, cfg)
    flags = tuple(flags)
    if not len(cands):
        return BoundResult(
            kind="exponent", value=-math.inf, horizon=horizon, rate=rate,
            flags=flags + ("no_candidates",),
        )
    k, value = cands.best(rate)
    if value <= 0.0:
        flags = flags + ("rate_exceeds_searched_information",)
    if math.isinf(value) and value > 0:
        flags = flags + ("infinite_divergence",)
    diagnostics = {c: float(getattr(cands, c)[k]) for c in ("i_rate", "d_rate", "et", "et1")}
    diagnostics["candidates"] = len(cands)
    return BoundResult(
        kind="exponent", value=value, horizon=horizon, rate=rate,
        maximizer=cands.maximizer(k), diagnostics=diagnostics, flags=flags,
    )


def reevaluate(result: BoundResult, ch: Channel, cfg: SearchConfig = SearchConfig()) -> float:
    """Recompute a bound value from its stored maximizer (no search), by
    the evaluation the search used, with a batch of one: an exponent's
    stored tables as the step arrays of ``encoder_tables``, a capacity's
    policy rows through ``policy_tables`` (``_capacity_values``).  So it
    refuses what the search refused, the trajectory budget included: that
    is checked on the uniform policy's law, as the search checks it."""
    if result.kind == "capacity":
        horizon = result.horizon
        policy = _rows_from_maximizer(result.maximizer, ch, horizon)
        if "stop_set" not in result.maximizer:
            raise SchemaError("stored capacity maximizer has no stop set")
        rule = StoppingRule(horizon, ch.spec.y_size, result.maximizer["stop_set"])
        forward_joint(ch, uniform_behavioral_policy(ch, horizon), horizon, budget=cfg.budget)
        ((value, _),) = _capacity_values(ch, horizon, cfg.budget, policy.rows[None], [rule],
                                         rule_stack([rule], horizon))
        return value
    if result.kind == "exponent":
        steps = _tables_from_maximizer(result.maximizer, ch.spec.x_size, ch.spec.y_size,
                                       result.horizon)
        table = NodeTable.of(encoder_tables(ch, steps, result.horizon, cfg.budget),
                             ch.spec.y_size)
        pair = result.maximizer["pair"]
        if not isinstance(pair, (list, tuple)) or not pair:
            raise SchemaError(f"stored stopping pair {pair!r} is not a non-empty list")
        if isinstance(pair[0], (int, float)):
            if not (len(pair) == 2 and all(type(t) is int for t in pair)
                    and 1 <= pair[0] < pair[1] <= result.horizon):
                raise SchemaError(f"stored fixed stopping pair {list(pair)} is not two "
                                  f"integers 1 <= t1 < t <= {result.horizon}")
            first, last, stack = pair[0], pair[1], None
        else:
            if len(pair) != 2:
                raise SchemaError(f"stored rule pair has {len(pair)} stop sets, not 2")
            rules = [StoppingRule(result.horizon, ch.spec.y_size, stops) for stops in pair]
            if not rules[0].dominates(rules[1]):
                raise SchemaError("window start must stop no later than window end")
            first, last, stack = 0, 1, rule_stack(rules, result.horizon)
        keep, i_rate, d_rate, _, _ = _pair_rates(
            table, np.array([first]), np.array([last]), stack, result.horizon)
        if not keep.any():
            raise SchemaError("stored stopping pair has an empty divergence phase")
        return float(_candidate_values(i_rate, d_rate, result.rate)[0])
    raise SchemaError(f"unknown bound kind {result.kind!r}")


# ---------------------------------------------------------------------------
# consistency against the classical line
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConsistencyReport:
    capacity: float
    max_kl: float
    rows: tuple[dict, ...]
    max_deviation: float
    degenerate: bool
    flags: tuple[str, ...]

    def to_text(self) -> str:
        if self.degenerate:
            return "degenerate rate grid: capacity is zero\n"
        lines = [
            f"capacity {self.capacity:.9f} bits, worst-pair divergence {self.max_kl:.9f} bits",
            "R,searched,classical,deviation",
        ]
        for row in self.rows:
            lines.append(
                f"{row['rate']:.9f},{row['searched']:.9f},"
                f"{row['classical']:.9f},{row['deviation']:.3e}"
            )
        lines.append(f"max deviation {self.max_deviation:.3e}")
        return "\n".join(lines) + "\n"


def dmc_consistency(
    ch: Channel,
    horizon: int = 3,
    cfg: SearchConfig = SearchConfig(),
    n_rates: int = 5,
) -> ConsistencyReport:
    """Compare the searched exponent bound against the classical line on a
    memoryless channel over an interior rate grid.

    A zero-capacity channel yields a flagged degenerate report instead of a
    rate grid.
    """
    if isinstance(n_rates, bool) or not isinstance(n_rates, (int, np.integer)) or n_rates < 1:
        raise SchemaError(f"n_rates must be an integer >= 1, got {n_rates!r}")
    if not ch.spec.is_dmc():
        raise SchemaError("consistency check needs a single-state channel")
    rows_q = ch.spec.q[0]
    cap, _, _ = dmc_capacity(rows_q)
    c1 = max_pairwise_row_kl(ch)
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
        # equal values, both infinite included, deviate by 0.0, not inf - inf
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


# ---------------------------------------------------------------------------
# residual terms of the assembled finite-length statement
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ResidualTerms:
    """All pieces of the assembled finite-length exponent statement for one
    law and one nested stopping pair, exposed so tests can recompute the
    assembly independently."""

    messages: int
    horizon: int
    pe: float
    et: float
    et1: float
    rate: float
    i_rate: float
    d_rate: float
    eps: float
    lam: float
    fano_ceiling: float   # h(pe) + pe log2 M
    u_term: float
    delta_term: float
    v_term: float
    assembled: float
    flags: tuple[str, ...]


def residual_terms(
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
    if not law.is_message_form:
        raise SchemaError("residual terms need a message-form law")
    if not first.dominates(last):
        raise SchemaError("the first rule must stop no later than the last")
    n = law.horizon
    if eps is None:
        eps = float(n) ** -3
    logm = math.log2(law.messages)
    flags: list[str] = []

    table, (stopped, times) = node_table(law), rule_stack([first, last], n)
    pe = max(map_error(table, times[1, table.leaf]), 0.0)
    (et1, et), (mi1, _) = (v.tolist() for v in stopped_values(table, stopped, times))
    i_rate = mi1 / et1
    den = et - et1
    d_rate = (float(window_divergence(table, stopped, np.array([0]), np.array([1]))[0]) / den
              if den > 1e-12 else math.nan)
    if den <= 1e-12:
        flags.append("empty_divergence_phase")
    rate = logm / et

    fano = _fano_ceiling(pe, logm)
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
        v = _v_term(rate, i_rate, eps, n, et)
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
