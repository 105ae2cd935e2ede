"""Differential tests of the table-driven stopping rules and stopped sums
against the per-rule loops they replaced (``oracles.loop_*``).

Every comparison is exact (``==``): the tables keep the loops' summation
order, so any difference is a defect, not rounding.
"""

from __future__ import annotations

import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest

import oracles
from fbound import bound_engine
from fbound.bound_engine import (
    Candidates,
    SearchConfig,
    _encoder_family,
    _encoder_steps,
    _step_aggregates,
    exponent_bound,
    exponent_candidates,
    reevaluate,
)
from fbound.channel_model import (
    BudgetExceededError,
    InputPolicy,
    SchemaError,
    StoppingRule,
    encoder_tables,
    enumerate_stopping_rules,
    forward_joint,
    load_channel,
    policy_tables,
    repetition_encoder,
    rotating_encoder,
    uniform_behavioral_policy,
)
from fbound.info_measures import (
    PolicyTable,
    _sum_in_place,
    directed_kl_stopped,
    directed_mi_stopped,
    expected_stop_time,
    node_table,
    ordered_sum,
    rule_stack,
    stopped_values,
    window_divergence,
)
from conftest import REPO

CASES = [
    ("bsc01", 3), ("bsc02", 3), ("z01", 3), ("flip2", 3), ("perfect2", 3), ("histk2", 2),
    ("bsc01", 4), ("flip2", 4),
]
CASE_IDS = [f"{name}-H{h}" for name, h in CASES]


@functools.lru_cache(maxsize=None)
def _channel(name):
    return load_channel(str(REPO / "channels" / f"{name}.json"))


@functools.lru_cache(maxsize=None)
def _laws(name, horizon):
    """A behavioral law and message-form laws of fixed, rotating and
    output-dependent encoders."""
    ch = _channel(name)
    x, y = ch.spec.x_size, ch.spec.y_size
    policies = [
        uniform_behavioral_policy(ch, horizon),
        repetition_encoder(2, x, horizon, y),
        rotating_encoder(4, x, horizon, y),
    ]
    rng = np.random.default_rng(7)
    for _ in range(2):
        tables = tuple(
            tuple(tuple(int(v) for v in rng.integers(x, size=y ** (t - 1))) for _ in range(2))
            for t in range(1, horizon + 1)
        )
        policies.append(InputPolicy(horizon=horizon, x_size=x, y_size=y, messages=2,
                                    tables=tables))
    return tuple(forward_joint(ch, pol, horizon) for pol in policies)


def _tables_of(policy):
    """A message-form policy's step tables, as a maximizer record holds
    them: per step t, per message, the input after each y-history in
    lexicographic order, a width-1 table repeated over the histories."""
    return tuple(np.broadcast_to(step, (policy.messages, policy.y_size ** t))
                 for t, step in enumerate(policy.tables))


@functools.lru_cache(maxsize=None)
def _batched(name, horizon):
    """The ``PolicyTable`` lane of every law of ``_laws``: the behavioral
    law's policy as a batch of one, and the message-form laws built
    together, one batch per message count, in ``_laws`` order."""
    ch, laws = _channel(name), _laws(name, horizon)
    out = {}
    for m in sorted({law.messages for law in laws if law.is_message_form}):
        group = [i for i, law in enumerate(laws) if law.is_message_form and law.messages == m]
        tables = [_tables_of(laws[i].policy) for i in group]
        steps = [np.array([enc[t] for enc in tables]) for t in range(horizon)]
        table = PolicyTable.of(encoder_tables(ch, steps, horizon, 10**7), ch.spec.y_size)
        out.update((i, (table, g)) for g, i in enumerate(group))
    for i, law in enumerate(laws):
        if not law.is_message_form:
            tables = policy_tables(ch, law.policy.rows[None], horizon, 10**7)
            out[i] = (PolicyTable.of(tables, ch.spec.y_size), 0)
    return [out[i] for i in range(len(laws))]


def _rules(ch, horizon):
    """Every rule up to horizon 3; at horizon 4 every 29th of the 677."""
    return enumerate_stopping_rules(horizon, ch.spec.y_size)[:: 1 if horizon <= 3 else 29]


def _outcome(fn, *args):
    """fn's value, or the SchemaError type when it raises one."""
    try:
        return fn(*args)
    except SchemaError:
        return SchemaError


# ---------------------------------------------------------------------------
# rule tables
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("horizon,y_size", [(1, 2), (2, 2), (3, 2), (4, 2), (2, 3)])
def test_rule_lookups_match_loops(horizon, y_size):
    rules = enumerate_stopping_rules(horizon, y_size, cap=10**4)
    rules += [StoppingRule.fixed(t, horizon, y_size) for t in range(1, horizon + 1)]
    paths = list(itertools.product(range(y_size), repeat=horizon))
    # every history of length 0..horizon-1, in the ``stopped_nodes`` layout
    hists = [p for n in range(horizon) for p in itertools.product(range(y_size), repeat=n)]
    for rule in rules:
        assert rule.stop_times.tolist() == [oracles.loop_stop_time(rule, p) for p in paths]
        assert rule.stopped_nodes.tolist() == [oracles.loop_is_stopped(rule, h) for h in hists]
    if horizon <= 3:
        for a, b in itertools.product(rules, repeat=2):
            assert a.dominates(b) == oracles.loop_dominates(a, b)


def test_dominance_across_horizons():
    short = enumerate_stopping_rules(2, 2)
    long = enumerate_stopping_rules(3, 2)
    for a, b in itertools.chain(itertools.product(short, long), itertools.product(long, short)):
        assert _outcome(a.dominates, b) == _outcome(oracles.loop_dominates, a, b)


def test_rule_tables_layout():
    rule = StoppingRule(horizon=2, y_size=2, stops=frozenset({(0,), (1, 0), (1, 1)}))
    assert rule.stop_times.tolist() == [1, 1, 2, 2]
    # levels 0 and 1: (), (0,), (1,)
    assert rule.stopped_nodes.tolist() == [False, True, False]
    with pytest.raises(ValueError):
        rule.stop_times[0] = 2


def test_rule_validation_names_the_offending_node():
    with pytest.raises(SchemaError, match=r"prefix-minimal at \(0, 1\)"):
        StoppingRule(horizon=2, y_size=2, stops=frozenset({(0,), (0, 1), (1,)}))
    with pytest.raises(SchemaError, match=r"never stops along \(1, 0\)"):
        StoppingRule(horizon=2, y_size=2, stops=frozenset({(0,), (1, 1)}))
    with pytest.raises(SchemaError, match="outside"):
        StoppingRule(horizon=2, y_size=2, stops=frozenset({(0,), (1,), (2,)}))


def _random_stops(rng, horizon, y_size, p_stop):
    """A prefix-minimal stop set that stops by the horizon: each history
    below it stops with probability p_stop, else branches on every symbol."""
    stops = []

    def grow(node):
        if len(node) == horizon or (node and rng.random() < p_stop):
            stops.append(node)
        else:
            for sym in range(y_size):
                grow(node + (sym,))

    grow(())
    return stops


def _tables(stops, horizon, y_size):
    """(stop_times, stopped_nodes) as lists, or the error message, of the
    rule, of the per-node fill and of the block fill.  All see one
    frozenset: where several nodes are at fault, the one named depends on
    its iteration order."""
    stops = frozenset(stops)

    def rule():
        built = StoppingRule(horizon=horizon, y_size=y_size, stops=stops)
        return built.stop_times, built.stopped_nodes

    out = []
    for build in (rule, lambda: oracles.loop_rule_tables(stops, horizon, y_size),
                  lambda: oracles.block_rule_tables(stops, horizon, y_size)):
        try:
            times, stopped = build()
        except SchemaError as e:
            out.append(("error", str(e)))
        else:
            out.append((times.tolist(), stopped.tolist()))
    return out


@pytest.mark.parametrize("horizon,y_size", [(1, 3), (5, 2), (9, 2), (4, 3), (3, 5)])
def test_rule_construction_matches_the_per_node_fill(horizon, y_size):
    for t in range(1, horizon + 1):
        built, looped, block = _tables(StoppingRule.fixed(t, horizon, y_size).stops,
                                       horizon, y_size)
        assert built == looped == block and built[0] != "error"
    rng = np.random.default_rng(horizon * 10 + y_size)
    for k in range(40):
        stops = _random_stops(rng, horizon, y_size, p_stop=(0.1, 0.3, 0.6)[k % 3])
        built, looped, block = _tables(stops, horizon, y_size)
        assert built == looped == block and built[0] != "error"
        if k % 4 == 0:
            rule = StoppingRule(horizon=horizon, y_size=y_size, stops=frozenset(stops))
            paths = itertools.product(range(y_size), repeat=horizon)
            assert rule.stop_times.tolist() == [oracles.loop_stop_time(rule, p) for p in paths]
        # each way of breaking the set fails with the per-node fill's message
        node = stops[rng.integers(len(stops))]
        broken = [
            stops[:-1],  # a path never stops
            stops + [node + (0,)],  # a node below a stop node
            stops + [node[:-1]],  # a node above one (the empty history at length 1)
            stops + [node[:-1] + (y_size,)],  # a symbol outside the alphabet
            stops + [node[:-1] + (-1,)],
            stops + [node[:-1] + (2**64,)],
            stops + [(0,) * (horizon + 1)],  # a node past the horizon
        ]
        for bad in broken:
            built, looped, block = _tables(bad, horizon, y_size)
            assert built == looped == block and built[0] == "error", bad
        # a last symbol 1 of another type: bool and numpy integers are
        # accepted, np.bool_ and floats refused
        one = next(s for s in stops if s[-1] == 1)
        for sym, ok in ((True, True), (np.uint64(1), True), (np.True_, False), (1.0, False)):
            other = [s[:-1] + (sym,) if s == one else s for s in stops]
            built, looped, block = _tables(other, horizon, y_size)
            assert built == looped == block and (built[0] != "error") == ok, other


ENUMERATED = [(h, 2) for h in range(1, 5)] + [(h, 3) for h in range(1, 4)]


@pytest.mark.parametrize("horizon,y_size", ENUMERATED)
def test_enumeration_matches_the_frozenset_recursion(horizon, y_size):
    rules = enumerate_stopping_rules(horizon, y_size)
    want = oracles.loop_enumerate_stopping_rules(horizon, y_size)
    assert len(rules) == len(want)
    for rule, ref in zip(rules, want):
        assert rule.stop_times.tolist() == ref.stop_times.tolist()
        assert rule.stopped_nodes.tolist() == ref.stopped_nodes.tolist()
        assert rule.stops == ref.stops
        assert {type(sym) for node in rule.stops for sym in node} == {int}
        assert not rule.stop_times.flags.writeable and not rule.stopped_nodes.flags.writeable
    count = len(want)
    for enumerate_all in (enumerate_stopping_rules, oracles.loop_enumerate_stopping_rules):
        with pytest.raises(BudgetExceededError,
                           match=f"exceeds cap {count - 1} at horizon {horizon}$"):
            enumerate_all(horizon, y_size, cap=count - 1)
    assert len(enumerate_stopping_rules(horizon, y_size, cap=count)) == count


@pytest.mark.parametrize("t,horizon,y_size", [(1, 1, 2), (2, 4, 2), (4, 4, 2), (2, 3, 3),
                                              (1, 2, 5), (9, 9, 2)])
def test_fixed_rule_stops_at_every_history_of_its_time(t, horizon, y_size):
    rule = StoppingRule.fixed(t, horizon, y_size)
    assert rule.stops == set(itertools.product(range(y_size), repeat=t))


def test_fixed_rule_at_horizon_20_is_a_constant_table():
    rule = StoppingRule.fixed(20, 20, 2)
    assert rule.stop_times.size == 2**20 and (rule.stop_times == 20).all()
    assert rule.stopped_nodes.size == 2**20 - 1 and not rule.stopped_nodes.any()


# ---------------------------------------------------------------------------
# stopped sums over the node table
# ---------------------------------------------------------------------------


def _loop_totals(terms):
    """``total = 0.0; total += term`` over the last axis, for each index of
    the leading ones."""
    totals = np.empty(terms.shape[:-1])
    for index in np.ndindex(totals.shape):
        total = 0.0
        for term in terms[index].tolist():
            total += term
        totals[index] = total
    return totals


_RNG = np.random.default_rng(27)
NAN, INF = float("nan"), float("inf")
SUM_TERMS = {
    "leading-axes": _RNG.standard_normal((3, 4, 9)) * 10.0 ** _RNG.integers(-8, 8, (3, 4, 9)),
    "one-row": _RNG.random(40),
    "empty-last-axis": np.zeros((3, 2, 0)),
    "all-minus-zero": np.full((2, 5), -0.0),
    "minus-zero-first": np.array([[-0.0, 1e-300, -1e-300], [-0.0, -0.0, 2.5], [-0.0, 0.0, -0.0]]),
    "nan-and-inf": np.array([[1.0, NAN, 2.0], [INF, 1.0, -1.0], [-INF, 3.0, 0.0],
                             [INF, -INF, 1.0], [-0.0, INF, -0.0]]),
}


@pytest.mark.parametrize("terms", SUM_TERMS.values(), ids=SUM_TERMS)
def test_ordered_sums_are_the_loop_totals_bit_for_bit(terms):
    # the running sums start at the first term, not at 0.0 + term; the
    # trailing + 0.0 gives the loop's 0.0 for a row of -0.0 terms
    want = _loop_totals(terms)
    before = terms.copy()
    with np.errstate(invalid="ignore"):  # inf + -inf
        sums = ordered_sum(terms), _sum_in_place(terms.copy())
    for got in sums:
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    assert terms.tobytes() == before.tobytes()  # ordered_sum leaves its input as it was


def test_the_in_place_sum_makes_no_copy_and_ordered_sum_makes_one():
    # 1,000 rows of 256 terms: 2 MB of terms, whose totals take 8 kB; the
    # sums that padded the terms with a zero column held two copies
    terms = _RNG.random((1000, 256))
    own = terms.copy()
    peaks = []
    for summed in (lambda: _sum_in_place(own), lambda: ordered_sum(terms)):
        tracemalloc.start()
        try:
            summed()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] < terms.nbytes / 100
    assert peaks[1] < 1.1 * terms.nbytes


def test_window_divergence_sums_its_terms_where_it_forms_them():
    # bsc01 at H = 3: 171 rule pairs of the 64 per-step encoders of M = 2,
    # over 7 nodes, are 0.6 MB of float terms.  The traced peak is 1.3x
    # that (the terms and the boolean stop masks); summed in a padded copy,
    # as before, it was 3.6x
    ch = _channel("bsc01")
    first, last, rules, _ = bound_engine._stopping_pairs(ch, 3, SearchConfig(stopping="all"))
    steps = _encoder_steps("per_step", range(64), 2, 2, 2, 3)
    table = PolicyTable.of(encoder_tables(ch, steps, 3, 10**7), 2)
    stopped = rule_stack(rules, 3)[0]
    tracemalloc.start()
    try:
        window_divergence(table, stopped, first, last)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.6 * (first.size * table.kl.size * 8)


@pytest.mark.parametrize("name,horizon", CASES, ids=CASE_IDS)
def test_stopped_sums_match_loops(name, horizon):
    rules = _rules(_channel(name), horizon)
    pairs = oracles.loop_rule_pairs(rules)
    index = {id(rule): i for i, rule in enumerate(rules)}
    first = np.array([index[id(a)] for a, _ in pairs])
    last = np.array([index[id(b)] for _, b in pairs])
    stack = rule_stack(rules, horizon)
    for law, (table, g) in zip(_laws(name, horizon), _batched(name, horizon)):
        want_et = [oracles.loop_expected_stop_time(law, r) for r in rules]
        want_mi = [oracles.loop_directed_mi_stopped(law, r) for r in rules]
        assert [expected_stop_time(law, r) for r in rules] == want_et
        assert [directed_mi_stopped(law, r) for r in rules] == want_mi
        one_law = node_table(law).one_law
        (et,), (mi,) = stopped_values(one_law, *stack)
        assert et.tolist() == want_et and mi.tolist() == want_mi
        batch_et, batch_mi = stopped_values(table, *stack)
        assert batch_et[g].tolist() == want_et and batch_mi[g].tolist() == want_mi

        want_kl = [oracles.loop_directed_kl_stopped(law, a, b) for a, b in pairs]
        assert [directed_kl_stopped(law, a, b) for a, b in pairs] == want_kl
        assert window_divergence(one_law, stack[0], first, last)[0].tolist() == want_kl
        assert window_divergence(table, stack[0], first, last)[g].tolist() == want_kl

        ej, ed = _step_aggregates(table, horizon)
        want_ej, want_ed = oracles.loop_step_aggregates(law)
        assert ej[g].tolist() == want_ej.tolist() and ed[g].tolist() == want_ed.tolist()

        best = int(np.argmax(mi / et))
        want_val, want_rule = oracles.loop_capacity_objective(law, rules)
        assert (float(mi[best] / et[best]), rules[best]) == (want_val, want_rule)


@pytest.mark.parametrize("name,horizon", CASES, ids=CASE_IDS)
def test_fixed_windows_and_drift_terms_match_loops(name, horizon):
    for law in _laws(name, horizon):
        table = node_table(law)
        fixed = [StoppingRule.fixed(t, horizon, law.channel.spec.y_size)
                 for t in range(1, horizon + 1)]
        for rule in fixed:
            assert directed_mi_stopped(law, rule) == oracles.loop_directed_mi_stopped(law, rule)
        for a in range(1, horizon + 1):
            for b in range(a, horizon + 1):
                want = oracles.loop_directed_kl_per_history_max(law, a, b)
                if a == 1:  # no rule has T1 = 0: read the kl column
                    got = float(ordered_sum(np.where(table.level < b, table.kl, 0.0)))
                else:
                    got = directed_kl_stopped(law, fixed[a - 2], fixed[b - 1])
                assert got == want
        if law.is_message_form:
            want_mi, want_kl = oracles.loop_drift_levels(law)
            # the table's entries, keyed by (t, y^{t-1}), against the item lists
            keys = [(t, table.history(e)) for e, t in enumerate((table.level + 1).tolist())]
            assert list(zip(keys, table.node_mi.tolist())) == [
                ((t, k), v) for t, d in enumerate(want_mi) for k, v in d.items()]
            assert list(zip(keys, table.node_kl.tolist())) == [
                ((t, k), v) for t, d in enumerate(want_kl) for k, v in d.items()]


@pytest.mark.parametrize("name", ["bsc01", "z01", "flip2"])
def test_rules_shorter_than_the_law(name):
    ch = _channel(name)
    short = enumerate_stopping_rules(2, ch.spec.y_size)
    full = enumerate_stopping_rules(3, ch.spec.y_size)
    for law in _laws(name, 3):
        for rule in short:
            assert directed_mi_stopped(law, rule) == oracles.loop_directed_mi_stopped(law, rule)
            assert expected_stop_time(law, rule) == oracles.loop_expected_stop_time(law, rule)
            for last in full:
                assert _outcome(directed_kl_stopped, law, rule, last) == (
                    _outcome(oracles.loop_directed_kl_stopped, law, rule, last)
                )
    # and a rule longer than the law
    law = _laws(name, 2)[1]
    for rule in full:
        assert _outcome(expected_stop_time, law, rule) == (
            _outcome(oracles.loop_expected_stop_time, law, rule)
        )
        with pytest.raises(SchemaError):
            directed_mi_stopped(law, rule)


# ---------------------------------------------------------------------------
# the exponent search and re-evaluation
# ---------------------------------------------------------------------------


def _loop_candidates(ch, horizon, cfg):
    """The candidate search with the encoder enumeration and the per-pair
    loop body of ``oracles``: every encoder when there are at most
    ``cfg.encoder_cap``, else the per-step ones."""
    if cfg.stopping == "all":
        pairs = oracles.loop_rule_pairs(enumerate_stopping_rules(horizon, ch.spec.y_size))
        kind = "rules"
    else:
        pairs = [(t1, t) for t1 in range(1, horizon) for t in range(t1 + 1, horizon + 1)]
        kind = "fixed"
    out = []
    x, y = ch.spec.x_size, ch.spec.y_size
    for m in cfg.messages:
        full = x ** (m * sum(y**t for t in range(horizon))) <= cfg.encoder_cap
        family = (oracles.full_encoder_tables if full else oracles.blockwise_encoder_tables)
        for tables in family(m, x, y, horizon):
            policy = InputPolicy(horizon=horizon, x_size=ch.spec.x_size,
                                 y_size=ch.spec.y_size, messages=m, tables=tables)
            law = forward_joint(ch, policy, horizon, budget=cfg.budget)
            out += oracles.loop_pair_candidates(law, m, tables, pairs, kind)
    return out


CANDIDATE_CASES = [
    ("bsc01", 3, "all", (2,), 1000), ("bsc02", 2, "all", (2,), 1000),
    ("z01", 2, "all", (2,), 1000), ("flip2", 2, "all", (2,), 1000),
    ("perfect2", 2, "all", (2,), 1000), ("histk2", 2, "all", (2,), 1000),
    ("z01", 3, "fixed", (2,), 1000), ("flip2", 3, "fixed", (2,), 1000),
    # full tables: 64 and 512 encoders, then 4,096
    ("bsc01", 2, "all", (2, 3), 1000), ("bsc01", 2, "fixed", (4,), 4096),
    ("histk2", 2, "all", (3,), 1000),
    # per-step tables: 256 encoders at H = 2, 512 and 4,096 at H = 3
    ("z01", 2, "all", (4,), 1000), ("flip2", 3, "fixed", (3,), 1000),
    ("perfect2", 3, "fixed", (4,), 4096),
]


def _case_id(case):
    name, horizon, stopping, messages, _ = case
    more = "" if messages == (2,) else "-m" + "+".join(map(str, messages))
    return f"{name}-{horizon}-{stopping}{more}"


@pytest.mark.parametrize("name,horizon,stopping,messages,encoder_cap", CANDIDATE_CASES,
                         ids=map(_case_id, CANDIDATE_CASES))
def test_exponent_candidates_match_pair_loop(name, horizon, stopping, messages, encoder_cap):
    ch = _channel(name)
    cfg = SearchConfig(stopping=stopping, messages=messages, encoder_cap=encoder_cap)
    cands, flags = exponent_candidates(ch, horizon, cfg)
    want = _loop_candidates(ch, horizon, cfg)
    assert len(cands) == len(want)
    for column in ("m", "i_rate", "d_rate", "et", "et1"):
        assert getattr(cands, column).tolist() == [c[column] for c in want]
    assert [cands.maximizer(k) for k in range(len(cands))] == [_record(c) for c in want]
    for rate in (0.0, 0.1, 0.3, 0.6, 1.5):
        best = oracles.loop_best_candidate(want, rate)
        res = exponent_bound(ch, rate, horizon, cfg, _candidates=(cands, flags))
        assert res.value == oracles.loop_candidate_value(best, rate)
        assert res.maximizer == _record(best)
        assert [res.diagnostics[k] for k in ("i_rate", "d_rate", "et", "et1")] == [
            best[k] for k in ("i_rate", "d_rate", "et", "et1")]


@pytest.mark.parametrize("name,horizon,stopping,messages", [
    ("z01", 2, "all", (2, 4)), ("flip2", 3, "fixed", (2,)), ("bsc01", 3, "all", (2,)),
], ids=["z01-2-all-m2+4", "flip2-3-fixed", "bsc01-3-all"])
def test_exponent_candidates_in_several_batches_match_one_batch(
        name, horizon, stopping, messages, monkeypatch):
    # a pass size that leaves a few encoders per batch, against one batch
    ch = _channel(name)
    cfg = SearchConfig(stopping=stopping, messages=messages, encoder_cap=1000)
    whole, flags = exponent_candidates(ch, horizon, cfg)
    monkeypatch.setattr(bound_engine, "_PASS_SIZE", 50_000)
    split, split_flags = exponent_candidates(ch, horizon, cfg)
    assert split_flags == flags and split.kinds == whole.kinds
    for column in ("m", "encoder", "pair", "i_rate", "d_rate", "et", "et1", "first", "last"):
        got, want = getattr(split, column), getattr(whole, column)
        assert got.dtype == want.dtype and got.tolist() == want.tolist(), column


def test_the_candidate_columns_are_held_once():
    # the benchmark's exponent_rules_s search: 64 per-step encoders x 171
    # rule pairs, all kept, in 0.6 MB of columns.  With each batch's
    # columns kept and joined at the end, and the stopped sums summed in a
    # padded copy, the traced peak was 4.5x the columns; written in place,
    # 2.2x
    cfg = SearchConfig(stopping="all", messages=(2,), encoder_cap=1000)
    tracemalloc.start()
    try:
        cands, _ = exponent_candidates(_channel("bsc01"), 3, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    columns = ("m", "encoder", "pair", "i_rate", "d_rate", "et", "et1")
    assert len(cands) == 64 * 171
    assert peak <= 3 * sum(getattr(cands, column).nbytes for column in columns)


@pytest.mark.parametrize("m,x,y,horizon", [
    (1, 2, 2, 2), (2, 2, 2, 2), (3, 2, 2, 2), (1, 2, 2, 3), (1, 3, 2, 2), (1, 2, 3, 2),
    (2, 3, 3, 2), (2, 3, 2, 3),
])
def test_encoder_steps_enumerate_the_reference_order(m, x, y, horizon):
    # encoder k is k in base x over the family's cells, first most significant;
    # the full family of (2, 3, 2, 3) has 3**14 encoders, of which the first
    # 20,000 are compared
    for kind, family in (("full", oracles.full_encoder_tables),
                         ("per_step", oracles.blockwise_encoder_tables)):
        want = list(itertools.islice(family(m, x, y, horizon), 20_000))
        for ks in (range(len(want)), range(5, min(len(want), 17))):
            steps = _encoder_steps(kind, ks, m, x, y, horizon)
            # a per-step encoder's tables have width 1: one input for every history
            widths = [y**t if kind == "full" else 1 for t in range(horizon)]
            assert [step.shape for step in steps] == [(len(ks), m, w) for w in widths]
            steps = [np.broadcast_to(step, (len(ks), m, y**t)) for t, step in enumerate(steps)]
            got = [tuple(tuple(map(tuple, step[g].tolist())) for step in steps)
                   for g in range(len(ks))]
            assert got == want[ks.start:ks.stop], (kind, ks)
        if len(want) < 20_000:
            assert _encoder_family(m, x, y, horizon, len(want)) == (kind, len(want))


@pytest.mark.parametrize("m,horizon,kind,count", [
    (1, 6, "full", 2**63), (32, 2, "per_step", 2**64),
])
def test_an_encoder_family_past_the_int64_index_is_refused(m, horizon, kind, count):
    # binary alphabets under a cap of 2**64: the count fits the cap, but the
    # last index, count - 1, does not fit an int64
    with pytest.raises(BudgetExceededError, match=(
            f"^the {kind} encoder family for m={m} has {count} encoders, "
            f"over the int64 index cap {2**63 - 1}$")):
        _encoder_family(m, 2, 2, horizon, 2**64)
    assert _encoder_family(m, 2, 2, horizon - 1, 2**64)[1] < 2**63


def _record(cand):
    """The maximizer record of a candidate dict."""
    tables = [[list(row) for row in step] for step in cand["tables"]]
    return {"m": cand["m"], "encoder_tables": tables, "pair": cand["pair"]}


def _columns(i_rate, d_rate):
    n = len(i_rate)
    return Candidates(
        m=np.full(n, 2), encoder=np.ones(n, dtype=int), pair=np.zeros(n, dtype=int),
        i_rate=np.array(i_rate), d_rate=np.array(d_rate), et=np.full(n, 2.0),
        et1=np.ones(n), kinds={2: "full"}, sizes=(2, 2, 1), first=np.array([1]),
        last=np.array([2]), rules=None,
    )


@pytest.mark.parametrize("i_rate,d_rate", [
    ([0.5, 0.5, 0.5], [1.0, 2.0, 2.0]),        # an exact tie: the earliest wins
    ([0.5, 0.4, 0.5], [2.0, 2.0, 2.0]),
    ([0.5, 0.5, 0.5], [1.0, NAN, 3.0]),        # max passes over a later NaN
    ([0.5, 0.5, 0.5], [NAN, 1.0, 3.0]),        # and keeps a NaN it starts from
    ([0.5, 0.5], [NAN, NAN]),
    ([NAN, 0.5], [1.0, 1.0]),
    ([1e-13, 0.5, 0.2, 0.5], [INF, 0.0, INF, 0.0]),
    ([0.1, 0.1], [INF, INF]),
    ([0.0, 0.0], [1.0, 1.0]),                  # every value -inf: the first
])
@pytest.mark.parametrize("rate", [0.0, 0.25])
def test_best_candidate_is_the_one_max_picks(i_rate, d_rate, rate):
    cands = _columns(i_rate, d_rate)
    dicts = [{"i_rate": i, "d_rate": d} for i, d in zip(i_rate, d_rate)]
    values = [oracles.loop_candidate_value(c, rate) for c in dicts]
    want = max(range(len(dicts)), key=values.__getitem__)
    k, value = cands.best(rate)
    assert k == want
    assert type(value) is float
    assert value == values[want] or (math.isnan(value) and math.isnan(values[want]))


@pytest.mark.parametrize("name,rate", [("bsc01", 0.25), ("z01", 0.1), ("flip2", 0.05)])
def test_reevaluate_rule_pair_maximizer_exactly(name, rate):
    ch = _channel(name)
    cfg = SearchConfig(stopping="all", messages=(2,))
    res = exponent_bound(ch, rate, 2, cfg)
    assert isinstance(res.maximizer["pair"][0], list)
    assert reevaluate(res, ch, cfg) == res.value
