"""Channel parsing, policies, stopping rules, and exact law enumeration."""

from __future__ import annotations

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import REPO
from fbound.info_measures import node_table
from fbound.channel_model import (
    BudgetExceededError,
    Channel,
    ChannelSpec,
    DistributionError,
    InputPolicy,
    SchemaError,
    StateKernel,
    StoppingRule,
    bsc,
    enumerate_stopping_rules,
    forward_joint,
    load_channel,
    parse_channel,
    repetition_encoder,
    rotating_encoder,
    two_state_flip_channel,
    uniform_behavioral_policy,
)


# ---------------------------------------------------------------------------
# parsing and round trip
# ---------------------------------------------------------------------------


def test_parse_rejects_bad_row_sum():
    obj = {
        "x_size": 2, "y_size": 2, "s_size": 1,
        "Q": [[[0.9, 0.2], [0.1, 0.9]]],
        "state_kernel": {"type": "memoryless", "table": [1.0]},
    }
    with pytest.raises(SchemaError):
        parse_channel(json.dumps(obj))


def test_parse_renormalizes_small_drift():
    obj = {
        "x_size": 2, "y_size": 2, "s_size": 1,
        "Q": [[[0.9 + 2e-10, 0.1], [0.1, 0.9]]],
        "state_kernel": {"type": "memoryless", "table": [1.0]},
    }
    ch = parse_channel(json.dumps(obj))
    assert abs(ch.spec.q[0, 0].sum() - 1.0) < 1e-12


def _with_kernel(name, edit):
    obj = json.loads((REPO / "channels" / f"{name}.json").read_text())
    edit(obj["state_kernel"])
    return json.dumps(obj)


@pytest.mark.parametrize("name, edit, message", [
    ("bsc01", lambda k: k.update(table=[-1.0]), "state distribution has a negative entry"),
    ("bsc01", lambda k: k.update(table=[2.0]), "state distribution sums to 2.0"),
    ("flip2", lambda k: k["table"][1].__setitem__(0, [0.3, 0.2]),
     r"state transition row \(s=1, x=0\) sums to 0.5"),
    ("flip2", lambda k: k.update(init=[0.2, 0.3]), "initial state distribution sums to 0.5"),
    ("histk2", lambda k: k["table"][1][0].__setitem__(0, [0.4, 0.2]),
     r"state row t=2, hist=\(0, 0\) sums to 0.6"),
], ids=["negative", "double", "markov1-row", "init", "history-level"])
def test_parse_refuses_a_state_kernel_that_is_no_distribution(name, edit, message):
    # such a row is refused, naming it, not rescaled into another channel
    with pytest.raises(DistributionError, match=message):
        parse_channel(_with_kernel(name, edit))


def test_parse_keeps_every_channel_files_arrays_bit_for_bit():
    # every row of the shipped files is within the storage invariant, so
    # parsing keeps the arrays exactly as json reads them
    for path in sorted((REPO / "channels").glob("*.json")):
        obj, ch = json.loads(path.read_text()), load_channel(str(path))
        kernel = obj["state_kernel"]
        assert ch.spec.q.tobytes() == np.array(obj["Q"], dtype=float).tobytes()
        if kernel["type"] == "history_table":
            for got, raw in zip(ch.kernel.levels, kernel["table"], strict=True):
                assert got.tobytes() == np.array(raw, dtype=float).tobytes()
        else:
            assert ch.kernel.table.tobytes() == np.array(kernel["table"], dtype=float).tobytes()
        if "init" in kernel:
            assert ch.kernel.init.tobytes() == np.array(kernel["init"], dtype=float).tobytes()


def test_parse_rejects_negative_and_shape_errors():
    base = {
        "x_size": 2, "y_size": 2, "s_size": 1,
        "Q": [[[1.1, -0.1], [0.1, 0.9]]],
        "state_kernel": {"type": "memoryless", "table": [1.0]},
    }
    with pytest.raises(SchemaError):
        parse_channel(json.dumps(base))
    with pytest.raises(SchemaError):
        parse_channel("not json at all {")
    missing = {"x_size": 2, "y_size": 2, "Q": []}
    with pytest.raises(SchemaError):
        parse_channel(json.dumps(missing))


def test_markov1_2d_shorthand_expands():
    obj = {
        "x_size": 2, "y_size": 2, "s_size": 2,
        "Q": [[[0.9, 0.1], [0.1, 0.9]], [[0.1, 0.9], [0.9, 0.1]]],
        "state_kernel": {"type": "markov1", "table": [[0.8, 0.2], [0.2, 0.8]]},
    }
    ch = parse_channel(json.dumps(obj))
    assert ch.kernel.table.shape == (2, 2, 2)
    assert np.allclose(ch.kernel.table[0, 0], [0.8, 0.2])
    assert np.allclose(ch.kernel.table[0, 1], [0.8, 0.2])
    # init defaults to uniform
    assert np.allclose(ch.kernel.init, [0.5, 0.5])


def test_strictly_positive_flag(channels_dir):
    assert bsc(0.1).spec.strictly_positive
    assert not load_channel(str(channels_dir / "perfect2.json")).spec.strictly_positive


# ---------------------------------------------------------------------------
# joint law against the brute-force oracle
# ---------------------------------------------------------------------------


def test_single_step_uniform_bsc_law():
    ch = bsc(0.1)
    pol = uniform_behavioral_policy(ch, 1)
    law = forward_joint(ch, pol, 1)
    expected = {
        (0, (0,), (0,), (0,)): 0.45,
        (0, (0,), (0,), (1,)): 0.05,
        (0, (1,), (0,), (0,)): 0.05,
        (0, (1,), (0,), (1,)): 0.45,
    }
    assert set(law.trajectories) == set(expected)
    for key, val in expected.items():
        assert law.trajectories[key] == pytest.approx(val, abs=1e-15)


def _flip2_oracle_args(ch: Channel):
    q = ch.spec.q.tolist()

    def kernel_fn(t, s_hist, x_hist):
        if t == 1:
            return ch.kernel.init.tolist()
        return ch.kernel.table[s_hist[-1], x_hist[-1]].tolist()

    return q, kernel_fn


def test_two_state_law_matches_oracle():
    ch = two_state_flip_channel()
    pol = uniform_behavioral_policy(ch, 2)
    law = forward_joint(ch, pol, 2)
    q, kernel_fn = _flip2_oracle_args(ch)

    def policy_fn(t, w, xh, yh):
        return [0.5, 0.5]

    ref = oracles.oracle_joint(q, kernel_fn, policy_fn, 1, 2)
    assert set(law.trajectories) == set(ref)
    for key, val in ref.items():
        assert law.trajectories[key] == pytest.approx(val, rel=0, abs=1e-14)
    assert law.total_mass() == pytest.approx(1.0, abs=1e-12)


def test_message_law_matches_oracle_and_marginals():
    ch = bsc(0.1)
    pol = repetition_encoder(2, 2, 3)
    law = forward_joint(ch, pol, 3)
    q = ch.spec.q.tolist()

    def kernel_fn(t, sh, xh):
        return [1.0]

    def policy_fn(t, w, xh, yh):
        row = [0.0, 0.0]
        row[w] = 1.0
        return row

    ref = oracles.oracle_joint(q, kernel_fn, policy_fn, 2, 3)
    assert set(law.trajectories) == set(ref)
    for key, val in ref.items():
        assert law.trajectories[key] == pytest.approx(val, abs=1e-14)
    # marginal consistency: summing trajectories over everything but y^t
    # reproduces node_prob at every level
    table = node_table(law)
    node_prob = {table.history(i): p for i, p in enumerate(law.node_prob.tolist())}
    for t in range(4):
        ref_marg = oracles.marginal_y(ref, t)
        for node, p in ref_marg.items():
            assert node_prob[node] == pytest.approx(p, abs=1e-13)


def test_budget_is_enforced():
    ch = bsc(0.1)
    pol = uniform_behavioral_policy(ch, 3)
    with pytest.raises(BudgetExceededError):
        forward_joint(ch, pol, 3, budget=10)


def test_history_kernel_horizon_cap(channels_dir):
    ch = load_channel(str(channels_dir / "histk2.json"))
    pol = uniform_behavioral_policy(ch, 3)
    with pytest.raises(SchemaError):
        forward_joint(ch, pol, 3)
    law = forward_joint(ch, pol, 2)
    assert law.total_mass() == pytest.approx(1.0, abs=1e-12)
    # a policy too short for the horizon as well: the kernel's cap is named
    short = uniform_behavioral_policy(ch, 2)
    for build in (forward_joint, oracles.loop_forward_joint, oracles.dict_forward_joint):
        with pytest.raises(SchemaError, match="state kernel only defines 2 steps, horizon=3"):
            build(ch, short, 3)


# ---------------------------------------------------------------------------
# posteriors
# ---------------------------------------------------------------------------


def _by_history(law, column):
    """A node-table column keyed by the output history of each row."""
    table = node_table(law)
    return {table.history(i): v for i, v in enumerate(column)}


def test_repetition_posterior_after_one_output():
    ch = bsc(0.1)
    law = forward_joint(ch, repetition_encoder(2, 2, 3), 3)
    mu = _by_history(law, node_table(law).posterior)[(0,)]
    assert mu[0] == pytest.approx(0.9, abs=1e-12)
    assert mu[1] == pytest.approx(0.1, abs=1e-12)


def test_posteriors_match_bayes_oracle():
    ch = two_state_flip_channel()
    law = forward_joint(ch, repetition_encoder(2, 2, 3), 3)
    post = _by_history(law, node_table(law).posterior)
    q, kernel_fn = _flip2_oracle_args(ch)

    def policy_fn(t, w, xh, yh):
        row = [0.0, 0.0]
        row[w] = 1.0
        return row

    ref = oracles.oracle_joint(q, kernel_fn, policy_fn, 2, 3)
    assert len(post) == 1 + 2 + 4 + 8
    for node, got in post.items():
        want = oracles.posterior_w(ref, node)
        for w, v in want.items():
            assert got[w] == pytest.approx(v, abs=1e-12)


def test_posterior_bayes_consistency_identity():
    # one-step update: mu(w | y^{t-1}, y) * P(y | y^{t-1}) = mu(w) * Q_w(y)
    ch = bsc(0.1)
    law = forward_joint(ch, rotating_encoder(4, 2, 3), 3)
    table = node_table(law)
    prior = _by_history(law, table.posterior)
    node_prob = _by_history(law, law.node_prob.tolist())
    for e, rows in enumerate(table.step):
        prev = table.history(e)
        mu = prior[prev]
        for y in range(2):
            node = prev + (y,)
            if node not in node_prob:
                continue
            py = node_prob[node] / node_prob[prev]
            mu_next = prior[node]
            for w in range(4):
                if mu[w] > 0:
                    lhs = mu_next[w] * py
                    rhs = mu[w] * rows[w, y]
                    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_posteriors_reject_behavioral_law():
    ch = bsc(0.1)
    law = forward_joint(ch, uniform_behavioral_policy(ch, 1), 1)
    with pytest.raises(SchemaError, match="needs a message-form law"):
        node_table(law).h


# ---------------------------------------------------------------------------
# stopping rules
# ---------------------------------------------------------------------------


def test_fixed_rule_and_threshold_rule():
    fixed = StoppingRule.fixed(2, 3, 2)
    assert fixed.stop_times.tolist() == [2] * 8
    rule = StoppingRule(horizon=2, y_size=2, stops=frozenset({(0,), (1, 0), (1, 1)}))
    # T on the paths 00, 01, 10, 11
    assert rule.stop_times.tolist() == [1, 1, 2, 2]
    # a time that is not an integer in 1..horizon is refused, not truncated
    for t in (0, 4, 2.5, True):
        with pytest.raises(SchemaError, match="fixed stopping time"):
            StoppingRule.fixed(t, 3, 2)
    with pytest.raises(SchemaError, match="non-empty output alphabet"):
        StoppingRule.fixed(1, 1, 0)


def test_rule_validation_rejects_bad_sets():
    with pytest.raises(SchemaError):
        StoppingRule(horizon=2, y_size=2, stops=frozenset({(0,), (0, 1), (1, 0), (1, 1)}))
    with pytest.raises(SchemaError):
        StoppingRule(horizon=2, y_size=2, stops=frozenset({(0,)}))


def test_enumerate_rules_count_small_horizons():
    # binary outputs: 4 rules at horizon 2, 25 at horizon 3
    assert len(enumerate_stopping_rules(2, 2)) == 4
    assert len(enumerate_stopping_rules(3, 2)) == 25
    with pytest.raises(BudgetExceededError):
        enumerate_stopping_rules(3, 2, cap=10)
    with pytest.raises(SchemaError, match="horizon >= 1"):
        enumerate_stopping_rules(0, 2)


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    horizon=st.integers(min_value=1, max_value=4),
)
def test_random_rule_hits_exactly_one_stop(data, horizon):
    rules = enumerate_stopping_rules(horizon, 2, cap=10**4)
    rule = data.draw(st.sampled_from(rules))
    path = tuple(data.draw(st.integers(0, 1)) for _ in range(horizon))
    t = rule.stop_times[np.ravel_multi_index(path, (2,) * horizon)]
    hits = [k for k in range(1, horizon + 1) if path[:k] in rule.stops]
    assert hits == [t]


def test_policy_validation():
    with pytest.raises(SchemaError):
        InputPolicy(horizon=1, x_size=2, y_size=2)  # neither form
    with pytest.raises(DistributionError):
        InputPolicy(horizon=1, x_size=2, y_size=2, rows=[(0.7, 0.7)])


def test_non_finite_entries_are_refused():
    # NaN compares false both ways, so a NaN entry once passed the
    # negativity and row-sum checks
    nan = float("nan")
    with pytest.raises(DistributionError, match=r"Q row \(s=0, x=0\) has a non-finite entry"):
        bsc(nan)
    with pytest.raises(DistributionError, match="state distribution has a non-finite entry"):
        StateKernel("memoryless", 1, 2, table=np.array([nan]))
    with pytest.raises(DistributionError, match="initial state distribution has a non-finite"):
        StateKernel("markov1", 2, 2, table=np.full((2, 2, 2), 0.5), init=np.array([nan, 1.0]))
    # rows (1, (), ()), (2, (0,), (0,)), (2, (0,), (1,)), ...
    rows = [(0.5, 0.5), (0.5, 0.5), (nan, 1.0), (0.5, 0.5), (0.5, 0.5)]
    with pytest.raises(DistributionError, match=r"behavioral row \(2, \(0,\), \(1,\)\) has a non"):
        InputPolicy(horizon=2, x_size=2, y_size=2, rows=rows)


def test_the_first_bad_row_of_a_table_is_named_with_its_first_failed_check():
    # one array pass per table names the row a row-by-row loop reaches
    # first, and that row's first failed check
    q = np.full((2, 2, 2), 0.5)
    q[1, 0] = (0.75, 0.75)  # sums to 1.5, then a later negative row
    q[1, 1] = (1.5, -0.5)
    with pytest.raises(DistributionError, match=r"^Q row \(s=1, x=0\) sums to 1\.5, not 1 "):
        ChannelSpec(2, 2, 2, q)
    table = np.full((2, 2, 2), 0.5)
    table[0, 1] = (-0.5, 1.5)
    table[1, 0] = (np.inf, 0.0)
    with pytest.raises(DistributionError,
                       match=r"^state transition row \(s=0, x=1\) has a negative entry$"):
        StateKernel("markov1", 2, 2, table=table)
    level2 = np.full((2, 2, 2), 0.5)
    level2[1, 0] = (np.nan, -1.0)  # non-finite is checked before negative
    with pytest.raises(DistributionError,
                       match=r"^state row t=2, hist=\(1, 0\) has a non-finite entry$"):
        StateKernel("history_table", 2, 2, levels=(np.full((1, 1, 2), 0.5), level2))
