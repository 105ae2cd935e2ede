"""Differential tests of the node-table drift checks, residual terms and row
divergences against the per-history and per-path loops they replaced
(``oracles.loop_*``).

Every comparison is exact: results are compared by ``repr``, which tells
every float bit apart, including NaN and the sign of zero, and errors by
type and message.  The tables keep the loops' arithmetic and summation
order, so any difference is a defect, not rounding.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import REPO
from fbound import drift_verify as dv
from fbound import info_measures as im
from fbound.info_measures import node_table
from fbound.bound_engine import SearchConfig, burnashev, dmc_consistency, residual_terms
from fbound.channel_model import (
    Channel,
    ChannelSpec,
    DistributionError,
    FboundError,
    InputPolicy,
    StateKernel,
    StoppingRule,
    enumerate_stopping_rules,
    forward_joint,
    load_channel,
    repetition_encoder,
    rotating_encoder,
    uniform_behavioral_policy,
)
from fbound.cli import main
from fbound.vlc_sim import _confirm_pair, _metric_matrix

CHANNELS = ("bsc01", "bsc02", "bsc05", "flip2", "histk2", "perfect2", "uniform22", "z01")
EPS = (0.05, 0.3, 0.9)


@functools.lru_cache(maxsize=None)
def _channel(name):
    if name == "faint":
        # probabilities underflow to 0.0 from horizon 4 on
        q = np.array([[[1 - 1e-200, 1e-200], [1e-200, 1 - 1e-200]]])
        kernel = StateKernel("memoryless", 1, 2, table=np.array([1.0]))
        return Channel(ChannelSpec(2, 2, 1, q, name="faint"), kernel)
    return load_channel(str(REPO / "channels" / f"{name}.json"))


def _horizons(name):
    cap = _channel(name).kernel.horizon_cap() or 6
    return range(1, min(cap, 4 if name == "faint" else 6) + 1)


def _laws(name):
    """Repetition and rotating encoder laws with M = 2, 3, 4 at H = 1..6
    (fewer where the kernel or the underflow stops earlier)."""
    ch = _channel(name)
    x, y = ch.spec.x_size, ch.spec.y_size
    for m in (2, 3, 4):
        makers = [rotating_encoder] + ([repetition_encoder] if m <= x else [])
        for make, h in itertools.product(makers, _horizons(name)):
            yield forward_joint(ch, make(m, x, h, y), h)


def outcome(fn, *args, **kwargs):
    try:
        return "ok", repr(fn(*args, **kwargs))
    except Exception as e:  # noqa: BLE001 - the error itself is compared
        return "error", type(e).__name__, str(e)


def assert_same(new, old, *args, **kwargs):
    assert outcome(new, *args, **kwargs) == outcome(old, *args, **kwargs)


def assert_same_or_typed(new, old, *args, **kwargs):
    """As ``assert_same``, except that where the loop divided by zero the
    tables raise a typed error (``FboundError``), which the CLI reports."""
    want = outcome(old, *args, **kwargs)
    if want[:2] == ("error", "ZeroDivisionError"):
        with pytest.raises(FboundError):
            new(*args, **kwargs)
    else:
        assert outcome(new, *args, **kwargs) == want


def _zero_stop(law, rule):
    """True when some full path stops at a history of probability 0.0."""
    if rule is None:
        rule = StoppingRule.fixed(law.horizon, law.horizon, law.channel.spec.y_size)
    node_prob = oracles.dict_law(law).node_prob
    for path in node_prob[law.horizon]:
        t = oracles.loop_stop_time(rule, path)
        if node_prob[t][path[:t]] == 0.0:
            return True
    return False


def assert_zero_stop_is_typed(new, old, law, *args, **kwargs):
    """At a stop history of probability 0.0 the loops read its 0/0
    posterior and failed untyped (``nanargmax`` over an all-NaN row, or a
    NaN binary-entropy argument); the tables raise a ``DistributionError``
    naming the history, which the CLI reports."""
    assert outcome(old, law, *args, **kwargs) in (
        ("error", "ValueError", "All-NaN slice encountered"),
        ("error", "DistributionError", "binary entropy argument nan outside [0, 1]"),
    )
    with pytest.raises(DistributionError,
                       match=r"stop history \(.*\) at time \d+ has probability 0\.0"):
        new(law, *args, **kwargs)


quiet = pytest.mark.filterwarnings("ignore::RuntimeWarning")


def _loop_log_drift(law, *args, **kwargs):
    """``oracles.loop_verify_log_drift`` with the one intended change: a
    run whose constant c is infinite says that its pass is vacuous."""
    v = oracles.loop_verify_log_drift(law, *args, **kwargs)
    if v.count and math.isinf(v.constants["c"]):
        return dataclasses.replace(v, details=(dv._INFINITE_C,))
    return v


def _h_levels(law):
    """``NodeTable.h`` as the level dicts of ``oracles.loop_h_process``."""
    table = node_table(law)
    levels = tuple({} for _ in range(law.horizon + 1))
    for i, (p, h) in enumerate(zip(law.node_prob.tolist(), table.h.tolist())):
        hist = table.history(i)
        levels[len(hist)][hist] = (p, h)
    return oracles.EntropyProcess(horizon=law.horizon, messages=law.messages, levels=levels)


# --- the law-based checks -------------------------------------------------


@quiet
@pytest.mark.parametrize("name", CHANNELS + ("faint",))
def test_entropy_drift_and_decoder_checks_match_the_loops(name):
    for law in _laws(name):
        assert_same(dv.verify_linear_drift, oracles.loop_verify_linear_drift, law)
        if _zero_stop(law, None):
            assert_zero_stop_is_typed(dv.verify_fano, oracles.loop_verify_fano, law)
        else:
            assert_same(dv.verify_fano, oracles.loop_verify_fano, law)
        assert_same(_h_levels, oracles.loop_h_process, law)
        for eps, mutate in itertools.product(EPS + (1.5,), (None, "halve_kl_drift")):
            assert_same(dv.verify_log_drift, _loop_log_drift, law, eps,
                        mutate=mutate)
            assert_same(dv.verify_lemma5_kl_transfer, oracles.loop_verify_lemma5_kl_transfer,
                        law, eps, mutate=mutate)
        assert_same(dv.verify_maximal_inequality, oracles.loop_verify_maximal_inequality,
                    law, trials=300, seed=law.horizon)


@quiet
@pytest.mark.parametrize("name", CHANNELS + ("faint",))
def test_compensator_budget_and_stopped_decoders_match_the_loops(name):
    y = _channel(name).spec.y_size
    for law in _laws(name):
        rules = [None, StoppingRule.fixed(1, law.horizon, y)]
        if law.horizon <= 2:
            rules += enumerate_stopping_rules(law.horizon, y)
        for rule in rules:
            if _zero_stop(law, rule):
                assert_zero_stop_is_typed(dv.verify_fano, oracles.loop_verify_fano, law, rule)
                for eps in EPS + (1.5,):
                    assert_zero_stop_is_typed(dv.verify_lemma4_budget,
                                              oracles.loop_verify_lemma4_budget, law, eps, rule)
                continue
            assert_same(dv.verify_fano, oracles.loop_verify_fano, law, rule)
            for eps in EPS + (1.5,):
                assert_same_or_typed(dv.verify_lemma4_budget,
                                     oracles.loop_verify_lemma4_budget, law, eps, rule)
    # a rule longer than the law is refused
    law = forward_joint(_channel(name), rotating_encoder(2, 2, 2, y), 1)
    longer = StoppingRule.fixed(2, 2, y)
    assert_same(dv.verify_fano, oracles.loop_verify_fano, law, longer)
    assert_same(dv.verify_lemma4_budget, oracles.loop_verify_lemma4_budget, law, 1.5, longer)


@quiet
@pytest.mark.parametrize("name", [n for n in CHANNELS if _channel(n).spec.strictly_positive])
def test_pruned_submartingale_matches_the_loop(name):
    for law in _laws(name):
        # near log2 M most of the process sits in Z's exponential branch, so
        # a last-bit change of exp reaches the reported margins
        for eps, mutate in itertools.product((0.05, 0.3, 0.99), (None, "halve_kl_drift")):
            assert_same(dv.verify_submartingale_L, oracles.loop_verify_submartingale_L,
                        law, eps, mutate=mutate)
        for grid, consts in (((0.25,), {}), ((1e3, 0.5, 0.25), {}), ((1e-3,), {}),
                             ((0.25,), {"i_const": 0.4, "d_const": 1.1})):
            assert_same(dv.verify_submartingale_L, oracles.loop_verify_submartingale_L,
                        law, 0.3, lam_grid=grid, mutate="halve_kl_drift", **consts)


@pytest.mark.parametrize("name", ["perfect2", "z01", "bsc01"])
def test_submartingale_errors_match_the_loop(name):
    ch = _channel(name)
    law = forward_joint(ch, repetition_encoder(2, 2, 3), 3)
    for eps in (0.0, 0.3, 1.0, 2.0):
        assert_same(dv.verify_submartingale_L, oracles.loop_verify_submartingale_L, law, eps)
    assert_same(dv.verify_submartingale_L, oracles.loop_verify_submartingale_L, law, 0.3,
                mutate="bogus")
    one = forward_joint(ch, repetition_encoder(1, 2, 3), 3)
    assert_same(dv.verify_submartingale_L, oracles.loop_verify_submartingale_L, one, 0.3)


def test_behavioral_laws_raise_the_same_errors(bsc01):
    law = forward_joint(bsc01, uniform_behavioral_policy(bsc01, 2), 2)
    for new, old, args in (
        (dv.verify_linear_drift, oracles.loop_verify_linear_drift, ()),
        (dv.verify_log_drift, oracles.loop_verify_log_drift, (0.3,)),
        (dv.verify_lemma5_kl_transfer, oracles.loop_verify_lemma5_kl_transfer, (0.3,)),
        (dv.verify_fano, oracles.loop_verify_fano, ()),
        (dv.verify_lemma4_budget, oracles.loop_verify_lemma4_budget, (0.3,)),
        (dv.verify_submartingale_L, oracles.loop_verify_submartingale_L, (0.3,)),
        (dv.verify_maximal_inequality, oracles.loop_verify_maximal_inequality, ()),
        (_h_levels, oracles.loop_h_process, ()),
    ):
        assert outcome(new, law, *args)[0] == "error"
        assert_same(new, old, law, *args)


@quiet
def test_a_history_of_probability_zero_is_a_typed_error():
    # at horizon 5 a level-4 history underflows to probability 0.0; its
    # one-step law is 0/0.  The loops divided by it (ZeroDivisionError).
    law = forward_joint(_channel("faint"), repetition_encoder(2, 2, 5), 5)
    assert outcome(oracles.loop_verify_linear_drift, law)[1] == "ZeroDivisionError"
    for check in (dv.verify_linear_drift, dv.verify_maximal_inequality):
        with pytest.raises(DistributionError,
                           match=r"history \(0, 0, 1, 1\) at step 5 has probability 0.0"):
            check(law)
    # the log drift never conditions on it, as before
    assert_same(dv.verify_log_drift, _loop_log_drift, law, 0.3)


@quiet
def test_a_stop_history_of_probability_zero_is_a_typed_error():
    # at horizon 4 a full path underflows to probability 0.0; its posterior
    # is 0/0.  The decoder checks read it and failed untyped; stop_error
    # returned a NaN error probability, which residual_terms reported as a
    # binary-entropy argument.
    law = forward_joint(_channel("faint"), repetition_encoder(2, 2, 4), 4)
    last, early = StoppingRule.fixed(4, 4, 2), StoppingRule.fixed(3, 4, 2)
    for check, args in ((dv.verify_fano, ()), (dv.verify_lemma4_budget, (0.9,)),
                        (im.stop_error, (last,)), (residual_terms, (last, early))):
        with pytest.raises(DistributionError,
                           match=r"stop history \(0, 0, 1, 1\) at time 4 has probability 0.0"):
            check(law, *args)
    # a rule that stops before the underflow is checked as before
    assert not _zero_stop(law, early)
    assert_same(dv.verify_fano, oracles.loop_verify_fano, law, early)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.floats(min_value=0.0, max_value=2.0), min_size=1, max_size=9),
    st.sampled_from([0.05, 0.2, 0.5, 1.0]),
)
def test_pruned_times_match_the_loop(vals, eps):
    def arrays():
        hit, last = dv._pruned_times(np.array([vals]), eps)
        n = len(vals) - 1
        return (int(hit[0]), int(last[0]),
                dv._pruned_index(np.arange(n + 3), hit[0], last[0], n).tolist())

    def loop():
        pt = oracles.LoopPrunedTimes.from_path(vals, eps)
        return pt.tau_hit, pt.tau_last, [pt.pruned_index(n) for n in range(len(vals) + 2)]

    assert_same(arrays, loop)


# --- residual terms, directed divergence, row divergences -----------------


@quiet
@pytest.mark.parametrize("name", CHANNELS + ("faint",))
def test_residual_terms_match_the_loop(name):
    y = _channel(name).spec.y_size
    for law in _laws(name):
        n = law.horizon
        rules = [StoppingRule.fixed(t, n, y) for t in range(1, n + 1)]
        if n <= 2:
            rules += enumerate_stopping_rules(n, y)
        for first, last in itertools.product(rules, repeat=2):
            same = (assert_zero_stop_is_typed if first.dominates(last) and _zero_stop(law, last)
                    else assert_same)
            for eps in (None, 0.01):
                same(residual_terms, oracles.loop_residual_terms, law, last, first, eps=eps)


@quiet
@pytest.mark.parametrize("name", CHANNELS + ("faint",))
def test_directed_kl_matches_the_loop_in_both_variants(name):
    # both window forms: (T1, T] between two fixed rules, and steps 1..b,
    # which no rule starts (T1 = 0), read off the node table's kl column
    y = _channel(name).spec.y_size
    for law in _laws(name):
        n = law.horizon
        fixed = [StoppingRule.fixed(t, n, y) for t in range(1, n + 1)]
        for first, last in itertools.product(fixed, repeat=2):
            assert_same(im.directed_kl_stopped, oracles.loop_directed_kl_stopped, law, first, last)
        table = node_table(law)
        for b in range(1, n + 1):
            assert_same(lambda: float(im.ordered_sum(np.where(table.level < b, table.kl, 0.0))),
                        lambda: float(oracles.loop_directed_kl_per_history_max(law, 1, b)))


@pytest.mark.parametrize("name", CHANNELS + ("faint",))
def test_channel_row_divergences_match_the_loops(name):
    ch = _channel(name)
    assert_same(im.max_pairwise_row_kl, oracles.loop_max_pairwise_row_kl, ch)
    assert_same(_confirm_pair, oracles._loop_confirm_pair, _metric_matrix(ch))
    for rate in (0.0, 0.05, 0.25, 0.5, 2.0, math.nan):
        assert_same(burnashev, oracles.loop_burnashev, ch, rate)


@pytest.mark.parametrize("name", ["bsc01", "z01", "uniform22", "perfect2", "faint", "flip2"])
def test_dmc_consistency_matches_the_loop(name):
    cfg = SearchConfig(messages=(2,))
    assert_same(dmc_consistency, oracles.loop_dmc_consistency, _channel(name), 1, cfg, 3)


def test_confirm_pair_matches_the_loop_on_ties_and_infinite_divergences():
    rng = np.random.default_rng(7)
    cases = [np.array([[0.5, 0.5]]), np.full((3, 2), 0.5),
             np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]]),
             np.array([[0.9, 0.1], [0.1, 0.9], [0.9, 0.1], [0.1, 0.9]])]
    for k, y in itertools.product((2, 3, 4), (2, 3)):
        rows = rng.dirichlet(np.ones(y), size=k) * (rng.random((k, y)) > 0.2)
        rows[rows.sum(axis=1) == 0, 0] = 1.0
        rows /= rows.sum(axis=1, keepdims=True)
        cases += [rows, np.vstack((rows, rows))]
    for qbar in cases:
        assert_same(_confirm_pair, oracles._loop_confirm_pair, qbar)


def test_effective_rows_of_absent_inputs_are_skipped():
    ch = _channel("bsc01")
    q = ch.spec.q[0]
    # memoryless channel: the effective rows are the physical rows
    law = forward_joint(ch, repetition_encoder(2, 2, 2), 2)
    assert im.node_table(law).x_kl[0].tolist() == [0.0, im.kl(q[0], q[1])]
    # an encoder that never uses input 1 leaves that row, and its divergence, absent
    law1 = forward_joint(ch, repetition_encoder(1, 2, 1), 1)
    x_kl = im.node_table(law1).x_kl
    assert x_kl[0, 0] == 0.0 and np.isnan(x_kl[0, 1])
    assert im.node_table(law1).node_kl.tolist() == [0.0]


# --- behavioral row validation --------------------------------------------


def _rows_check(rows):
    """(outcome of the array pass, outcome of the per-row loop) on the rows
    of a horizon-2 policy over two inputs and outputs, in
    ``_policy_row_keys`` order; a passing validation is ("ok",) on both
    sides."""
    new = outcome(InputPolicy, horizon=2, x_size=2, y_size=2, rows=rows)
    old = outcome(oracles.loop_check_behavioral_rows, rows, 2, 2, 2)
    return tuple(o[:1] if o[0] == "ok" else o for o in (new, old))


@pytest.mark.parametrize("bad,kind,message", [
    ((0.5, 0.25, 0.25), "SchemaError", "behavioral rows are not a numeric array"),
    ((1.5, -0.5), "DistributionError",
     "behavioral row (2, (0,), (1,)) has a negative entry"),
    ((0.5, 0.6), "DistributionError",
     "behavioral row (2, (0,), (1,)) sums to 1.1, not 1 within 1e-09"),
    (("a", 1.0), "SchemaError", "behavioral rows are not a numeric array"),
    (((0.5,), 0.5), "SchemaError", "behavioral rows are not a numeric array"),
    ({"a": 1.0}, "SchemaError", "behavioral rows are not a numeric array"),
    ([(0.5, 0.25, 0.25)] * 5, "SchemaError", "behavioral rows have shape (5, 3), not (5, 2)"),
    ([(0.5, 0.5)] * 4, "SchemaError", "behavioral rows have shape (4, 2), not (5, 2)"),
])
def test_behavioral_rows_name_the_first_bad_row(bad, kind, message):
    # rows (1, (), ()), (2, (0,), (0,)), (2, (0,), (1,)), (2, (1,), (0,)),
    # (2, (1,), (1,)); the bad row is the third, and the last is bad too
    rows = bad if isinstance(bad, list) else [
        (0.5, 0.5), (0.25, 0.75), bad, (0.5, 0.5), (0.1, 0.2)]
    new, old = _rows_check(rows)
    assert new == old == ("error", kind, message)


def test_behavioral_rows_that_are_distributions_pass():
    rows = [(0.5, 0.5), (0.25, 0.75), (1.0, 0.0), (0.5, 0.5), (0.0, 1.0)]
    assert _rows_check(rows) == (("ok",), ("ok",))


def test_behavioral_row_validation_matches_the_loop():
    rng = np.random.default_rng(3)
    keys = [(t, (a,) * (t - 1), (b,) * (t - 1)) for t in (1, 2, 3) for a in (0, 1) for b in (0, 1)]
    for _ in range(300):
        rows = {k: tuple(rng.dirichlet((1, 1))) for k in keys}
        k = keys[rng.integers(len(keys))]
        pick = rng.integers(6)
        if pick == 0:
            rows[k] = (rows[k][0], rows[k][1] + rng.choice([1e-10, 2e-9, -2e-9]))
        elif pick == 1:
            rows[k] = (-1e-300, 1.0)
        elif pick == 2:
            rows[k] = (1.0,)
        elif pick == 3:
            rows[k] = (math.nan, 1.0)
        elif pick == 4:
            rows[k] = ("a", 1.0)
        new, old = _rows_check(rows)
        assert new == old


# --- each per-law quantity is computed once -------------------------------


def test_verify_all_builds_the_entropy_column_once_per_law(monkeypatch, capsys):
    calls = {"tables": 0, "entropy_columns": 0, "entropy_rows": 0, "entropy_scalar": 0}
    table_of, row_entropy = im.NodeTable.of, im._row_entropy

    def counting_of(*args):
        calls["tables"] += 1
        return table_of(*args)

    def counting_row_entropy(mu):
        # a one-row call is a scalar ``entropy``; the node table's is a column
        if len(mu) == 1:
            calls["entropy_scalar"] += 1
        else:
            calls["entropy_columns"] += 1
            calls["entropy_rows"] += len(mu)
        return row_entropy(mu)

    monkeypatch.setattr(im.NodeTable, "of", counting_of)
    monkeypatch.setattr(im, "_row_entropy", counting_row_entropy)
    assert main(["verify", "--channel", str(REPO / "channels" / "bsc02.json"), "--suite",
                 "all", "--horizon", "6", "--epsilon", "0.5", "--trials", "200"]) == 0
    capsys.readouterr()
    # one column of every history's entropy, built once, and no per-history
    # call: the one-row calls are the proposition's four adversarial laws
    assert calls == {"tables": 1, "entropy_columns": 1, "entropy_rows": 2**7 - 1,
                     "entropy_scalar": 4}


def test_submartingale_computes_lambda_free_work_once_per_call(bsc01, monkeypatch):
    law = forward_joint(bsc01, rotating_encoder(4, 2, 6), 6)
    want = repr(oracles.loop_verify_submartingale_L(law, 0.3))
    calls = {}

    def counting(name):
        fn = getattr(dv, name)

        def wrapped(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapped

    for name in ("_pruned_index", "_s_values", "_atoms", "_z_value", "_pruned_times"):
        monkeypatch.setattr(dv, name, counting(name))
    got = dv.verify_submartingale_L(law, 0.3)
    assert repr(got) == want
    lambdas = len(dv.default_lambda_grid())
    histories = 2**7 - 1
    assert calls["_pruned_index"] == calls["_s_values"] == calls["_atoms"] == 1
    assert calls["_pruned_times"] == 1
    assert calls["_z_value"] <= lambdas * histories
