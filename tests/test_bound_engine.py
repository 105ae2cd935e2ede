"""Bound-engine tests: certified capacity, the classical exponent line,
the two searched bounds, consistency on memoryless channels, and the
residual-term assembly."""

import itertools
import math
import subprocess
import sys

import numpy as np
import pytest

import oracles
from conftest import REPO, child_env
from fbound.channel_model import (
    BudgetExceededError,
    Channel,
    ChannelSpec,
    DistributionError,
    InputPolicy,
    SchemaError,
    StateKernel,
    StoppingRule,
    forward_joint,
    load_channel,
    repetition_encoder,
)
from fbound.bound_engine import (
    BurnashevResult,
    SearchConfig,
    _simplex_grid,
    burnashev,
    capacity_bound,
    dmc_capacity,
    dmc_consistency,
    exponent_bound,
    exponent_candidates,
    reevaluate,
    residual_terms,
)

HB01 = 0.4689955935892812
CAP01 = 0.5310044064107188
C1_01 = 2.5359400011538495
CAP02 = 0.2780719051126377
C1_02 = 1.2


@pytest.fixture(scope="module")
def z01(channels_dir):
    return load_channel(channels_dir / "z01.json")


@pytest.fixture(scope="module")
def uniform22(channels_dir):
    return load_channel(channels_dir / "uniform22.json")


@pytest.fixture(scope="module")
def perfect2(channels_dir):
    return load_channel(channels_dir / "perfect2.json")


@pytest.fixture(scope="module")
def bsc02_cands_n2(bsc02):
    return exponent_candidates(bsc02, 2, SearchConfig())


# --- certified memoryless capacity -------------------------------------


def test_dmc_capacity_bsc_closed_form(bsc01):
    cap, r, gap = dmc_capacity(bsc01.spec.q[0])
    assert abs(cap - CAP01) < 1e-9
    assert gap < 1e-9
    assert np.allclose(r, [0.5, 0.5], atol=1e-6)


def test_dmc_capacity_against_line_search(z01):
    # value frozen from the dense input-distribution line search in oracles
    cap_oracle = oracles.oracle_capacity_binary_input(z01.spec.q[0])
    cap, _, gap = dmc_capacity(z01.spec.q[0])
    assert gap < 1e-9
    assert abs(cap - cap_oracle) < 1e-6
    skew = np.array([[0.7, 0.2, 0.1], [0.05, 0.15, 0.8]])
    cap2, _, gap2 = dmc_capacity(skew)
    assert gap2 < 1e-9
    assert abs(cap2 - oracles.oracle_capacity_binary_input(skew)) < 1e-6


# --- classical exponent line --------------------------------------------


def test_burnashev_halfway_rate(bsc01):
    res = burnashev(bsc01, CAP01 / 2)
    assert isinstance(res, BurnashevResult)
    assert abs(res.capacity - CAP01) < 1e-9
    assert abs(res.max_kl - C1_01) < 1e-12
    assert abs(res.exponent - 1.2679700005769248) < 1e-9
    assert not res.infinite


def test_burnashev_zero_rate_gives_max_kl(bsc02):
    res = burnashev(bsc02, 0.0)
    assert res.exponent == res.max_kl
    assert abs(res.max_kl - C1_02) < 1e-12


def test_burnashev_rejects_rate_above_capacity(bsc01):
    with pytest.raises(SchemaError):
        burnashev(bsc01, CAP01 + 0.01)


def test_burnashev_infinite_on_support_mismatch(z01):
    res = burnashev(z01, 0.1)
    assert res.infinite
    assert math.isinf(res.exponent)


def test_burnashev_useless_channel(uniform22):
    res = burnashev(uniform22, 0.0)
    assert res.capacity < 1e-9
    assert res.exponent == 0.0
    with pytest.raises(SchemaError):
        burnashev(uniform22, 0.1)


def test_burnashev_rejects_state_channel(flip2):
    with pytest.raises(SchemaError):
        burnashev(flip2, 0.1)


# --- searched exponent bound --------------------------------------------


def test_exponent_candidate_counts(bsc02, bsc02_cands_n2):
    cands, flags = bsc02_cands_n2
    # horizon 2: full two-message family 4*16, full four-message 16*256,
    # one stopping pair
    assert len(cands) == 64 + 4096
    assert flags == ()
    cands3, flags3 = exponent_candidates(
        bsc02, 3, SearchConfig(messages=(4,), encoder_cap=5000)
    )
    assert "m4_encoders_restricted_to_per_step_maps" in flags3
    assert len(cands3) == 4096 * 3


def test_exponent_bound_matches_classical(bsc02, bsc02_cands_n2):
    prev = math.inf
    for frac in (0.2, 0.4, 0.6, 0.8):
        rate = CAP02 * frac
        res = exponent_bound(bsc02, rate, 2, _candidates=bsc02_cands_n2)
        classical = C1_02 * (1 - rate / CAP02)
        assert abs(res.value - classical) < 1e-9
        assert res.value <= prev + 1e-12  # nonincreasing in rate
        prev = res.value
        assert abs(reevaluate(res, bsc02) - res.value) < 1e-9


def test_exponent_bound_rate_above_family(uniform22):
    res = exponent_bound(uniform22, 0.25, 2)
    assert res.value == -math.inf
    assert "rate_exceeds_searched_information" in res.flags


def test_exponent_bound_infinite_divergence(z01):
    res = exponent_bound(z01, 0.1, 2, SearchConfig(messages=(2,)))
    assert math.isinf(res.value) and res.value > 0
    assert "infinite_divergence" in res.flags


def test_exponent_bound_rejects_short_horizon(bsc01):
    with pytest.raises(SchemaError):
        exponent_bound(bsc01, 0.1, 1)


@pytest.mark.parametrize("pair", [[2, 2], [0, 2], [2, 1], [-1, 2], [1, 5], [1.5, 2], [True, 2]])
def test_reevaluate_refuses_a_malformed_fixed_pair(bsc01, pair):
    # each once ended in a ZeroDivisionError, a -0.0 or -inf value, slices
    # past the horizon, or a truncation to [1, 2]
    res = exponent_bound(bsc01, 0.25, 2, SearchConfig(messages=(2,)))
    assert res.maximizer["pair"] == (1, 2)
    res.maximizer["pair"] = pair
    with pytest.raises(SchemaError, match="stored fixed stopping pair"):
        reevaluate(res, bsc01)


@pytest.mark.parametrize("pair,message", [
    ([], r"stored stopping pair \[\] is not a non-empty list"),
    ([[[0], [1]]], "stored rule pair has 1 stop sets, not 2"),
], ids=["empty", "one-stop-set"])
def test_reevaluate_refuses_a_malformed_pair_record(bsc01, pair, message):
    # each once ended in an IndexError
    res = exponent_bound(bsc01, 0.25, 2, SearchConfig(messages=(2,)))
    res.maximizer["pair"] = pair
    with pytest.raises(SchemaError, match=message):
        reevaluate(res, bsc01)


@pytest.mark.parametrize("stop_set", [[1, 2], None], ids=["integers", "null"])
def test_reevaluate_refuses_a_malformed_stop_set(bsc01, stop_set):
    # each once ended in a TypeError
    res = capacity_bound(bsc01, 2, SearchConfig(restarts=0))
    res.maximizer["stop_set"] = stop_set
    with pytest.raises(SchemaError, match="is not a set of output sequences"):
        reevaluate(res, bsc01)


@pytest.mark.parametrize("field,value", [
    ("encoder_tables", []),
    ("encoder_tables", [[[0, 1]]]),
    ("encoder_tables", [[[0], [1]], [[0, 1], [1]]]),
    ("encoder_tables", None),
    ("m", 3),
    ("m", "2"),
], ids=["no-steps", "one-step", "short-row", "null", "m-3", "m-string"])
def test_reevaluate_refuses_malformed_encoder_tables(bsc01, field, value):
    # each once ended in an IndexError or a TypeError
    res = exponent_bound(bsc01, 0.25, 2, SearchConfig(messages=(2,)))
    res.maximizer[field] = value
    with pytest.raises(SchemaError, match="stored encoder tables are not"):
        reevaluate(res, bsc01)


@pytest.mark.parametrize("x", [2, -1, 2**70], ids=["2", "-1", "2**70"])
def test_reevaluate_refuses_a_stored_input_outside_the_alphabet(bsc01, x):
    res = exponent_bound(bsc01, 0.25, 2, SearchConfig(messages=(2,)))
    res.maximizer["encoder_tables"][0][0][0] = x
    with pytest.raises(SchemaError, match=r"^encoder input outside 0\.\.1 at t=1$"):
        reevaluate(res, bsc01)


@pytest.mark.parametrize("rows,message", [
    ({"1|x|": [0.5, 0.5]}, r"stored policy row '1\|x\|'"),
    ({"1|": [0.5, 0.5]}, r"stored policy row '1\|'"),
    (None, "stored policy rows None are not a mapping"),
    ({"1||": "ab"}, r"stored policy row '1\|\|': 'ab'"),
], ids=["letter", "two-parts", "null", "string-row"])
def test_reevaluate_refuses_malformed_policy_rows(bsc01, rows, message):
    # each once ended in a ValueError or an AttributeError
    res = capacity_bound(bsc01, 2, SearchConfig(restarts=0))
    res.maximizer["policy_rows"] = rows
    with pytest.raises(SchemaError, match=message):
        reevaluate(res, bsc01)


def test_reevaluate_refuses_a_missing_stop_set(bsc01):
    # once a KeyError
    res = capacity_bound(bsc01, 2, SearchConfig(restarts=0))
    del res.maximizer["stop_set"]
    with pytest.raises(SchemaError, match="stored capacity maximizer has no stop set"):
        reevaluate(res, bsc01)


def test_reevaluate_refuses_a_missing_policy_row(bsc01):
    # the policy never sends 1 at t = 1, so no history reaches the missing
    # row; every stored row is read all the same, as the search reads them
    res = capacity_bound(bsc01, 2, SearchConfig(restarts=0))
    res.maximizer["policy_rows"]["1||"] = [1.0, 0.0]
    del res.maximizer["policy_rows"]["2|1|0"]
    missing = r"^behavioral policy lacks row \(t=2, \(1,\), \(0,\)\)$"
    with pytest.raises(SchemaError, match=missing):
        reevaluate(res, bsc01)


def test_reevaluate_refuses_a_stored_row_that_is_no_distribution(bsc01):
    res = capacity_bound(bsc01, 2, SearchConfig(restarts=0))
    res.maximizer["policy_rows"]["1||"] = [0.75, 0.75]
    with pytest.raises(DistributionError, match=r"behavioral row \(1, \(\), \(\)\) sums to 1.5"):
        reevaluate(res, bsc01)


def test_reevaluate_refuses_a_capacity_over_the_search_budget(bsc01):
    # the search values every policy over the uniform law, of (2 x 2)**2 =
    # 16 trajectories at H = 2, and so does ``reevaluate``, though this
    # policy, which always sends 0, has a law of 4
    res = capacity_bound(bsc01, 2, SearchConfig(restarts=0))
    res.maximizer["policy_rows"] = dict.fromkeys(res.maximizer["policy_rows"], [1.0, 0.0])
    assert reevaluate(res, bsc01, SearchConfig(budget=16)) == reevaluate(res, bsc01)
    with pytest.raises(BudgetExceededError, match="^16 live trajectories at step 2 of "
                       "horizon 2 exceed the trajectory budget 15$"):
        reevaluate(res, bsc01, SearchConfig(budget=15))
    with pytest.raises(BudgetExceededError, match="^16 live trajectories"):
        capacity_bound(bsc01, 2, SearchConfig(restarts=0, budget=15))


def test_exponent_bound_state_channel_reevaluates(flip2):
    # first-phase information tops out near 0.075 bits/use here, so pick a
    # rate safely inside the searched range
    res = exponent_bound(flip2, 0.05, 2, SearchConfig(messages=(2,)))
    assert res.value > 0
    assert res.diagnostics["i_rate"] > 0.05
    assert abs(reevaluate(res, flip2) - res.value) < 1e-9


@pytest.mark.parametrize("stopping", ["fixed", "all"])
@pytest.mark.parametrize("name", ["bsc01", "z01", "flip2"])
def test_a_stored_encoder_built_on_its_own_gives_the_searched_terms(channels_dir, name, stopping):
    # the stored tables, loaded as a message-form policy, go straight into
    # forward_joint; residual_terms on the stored pair then reads the
    # search's rates and stop times off that one law: bit for bit for rule
    # pairs, and within 1e-12 for fixed times, whose search sums per level
    ch = load_channel(str(channels_dir / f"{name}.json"))
    res = exponent_bound(ch, 0.1, 3, SearchConfig(stopping=stopping))
    record, y = res.maximizer, ch.spec.y_size
    policy = InputPolicy(horizon=3, x_size=ch.spec.x_size, y_size=y, messages=record["m"],
                         tables=record["encoder_tables"])
    law = forward_joint(ch, policy, 3)
    if stopping == "all":
        first, last = (StoppingRule(3, y, stops) for stops in record["pair"])
    else:
        first, last = (StoppingRule.fixed(t, 3, y) for t in record["pair"])
    terms = residual_terms(law, last, first)
    got = [terms.i_rate, terms.d_rate, terms.et, terms.et1]
    want = [res.diagnostics[c] for c in ("i_rate", "d_rate", "et", "et1")]
    if stopping == "all":
        assert got == want
    else:
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


# --- searched capacity bound --------------------------------------------


def test_capacity_bound_pinned_time_recovers_capacity(bsc01):
    cfg = SearchConfig(fixed_t=2, restarts=2, seed=1)
    res = capacity_bound(bsc01, 2, cfg)
    assert abs(res.value - CAP01) < 5e-3
    assert res.diagnostics["grid_neighbor_gap"] < 1e-9
    assert reevaluate(res, bsc01) == res.value


def test_capacity_bound_useless_channel_zero(uniform22):
    res = capacity_bound(uniform22, 2, SearchConfig(restarts=1))
    assert res.value == 0.0


def test_capacity_bound_perfect_channel_one(perfect2):
    res = capacity_bound(perfect2, 2, SearchConfig(restarts=1))
    assert res.value == 1.0


def test_capacity_bound_monotone_in_horizon(bsc01):
    cfg = SearchConfig(restarts=1)
    v1 = capacity_bound(bsc01, 1, cfg).value
    v2 = capacity_bound(bsc01, 2, cfg).value
    assert v2 >= v1 - 1e-9
    assert abs(v1 - CAP01) < 1e-9


def test_capacity_bound_stopping_family(bsc01):
    res = capacity_bound(bsc01, 2, SearchConfig(restarts=1, stopping="all"))
    assert res.diagnostics["rules_searched"] == 4
    assert abs(res.value - CAP01) < 1e-9


def test_capacity_bound_state_channel(flip2):
    cfg = SearchConfig(restarts=2, seed=3)
    res = capacity_bound(flip2, 2, cfg)
    from fbound.channel_model import StoppingRule, uniform_behavioral_policy
    from fbound.info_measures import directed_mi_stopped

    law = forward_joint(flip2, uniform_behavioral_policy(flip2, 2), 2)
    unif_best = max(directed_mi_stopped(law, StoppingRule.fixed(t, 2, 2)) / t for t in (1, 2))
    assert res.value >= unif_best - 1e-12
    assert reevaluate(res, flip2) == res.value
    assert res.maximizer["stop_set"]


def test_capacity_bound_json_round(bsc01):
    res = capacity_bound(bsc01, 1, SearchConfig(restarts=0))
    text = res.to_json()
    assert '"kind": "capacity"' in text
    assert text.endswith("}")


def _multiset_grid(x_size, denom):
    """The grid as first built: one point per multiset of ``denom`` symbols,
    deduplicated and sorted."""
    out = []
    for combo in itertools.combinations_with_replacement(range(x_size), denom):
        counts = [0] * x_size
        for c in combo:
            counts[c] += 1
        out.append(tuple(c / denom for c in counts))
    return sorted(set(out))


@pytest.mark.parametrize("x_size", [2, 3, 4])
def test_simplex_grid_equals_the_multiset_construction(x_size):
    for denom in range(1, 17):
        assert _simplex_grid(x_size, denom) == _multiset_grid(x_size, denom)


# --- consistency report ---------------------------------------------------


def test_dmc_consistency_tight_on_bsc(bsc02):
    rep = dmc_consistency(bsc02, horizon=2, n_rates=5)
    assert not rep.degenerate
    assert len(rep.rows) == 5
    assert rep.max_deviation < 1e-9
    txt = rep.to_text()
    assert "max deviation" in txt


def test_dmc_consistency_equal_infinite_values_deviate_by_zero(z01):
    # searched and classical are both inf on the Z channel; their difference
    # is NaN, which max() left out of the reported maximum
    rep = dmc_consistency(z01, horizon=2)
    assert [(r["searched"], r["classical"]) for r in rep.rows] == [(math.inf, math.inf)] * 5
    assert [r["deviation"] for r in rep.rows] == [0.0] * 5
    assert rep.max_deviation == 0.0
    assert "nan" not in rep.to_text()


def test_dmc_consistency_degenerate(uniform22):
    rep = dmc_consistency(uniform22, horizon=2)
    assert rep.degenerate
    assert "degenerate_rate_grid" in rep.flags
    assert rep.rows == ()


# --- residual terms -------------------------------------------------------


def test_residual_assembly_recomputed(bsc01):
    policy = repetition_encoder(2, 2, 3)
    law = forward_joint(bsc01, policy, 3)
    first = StoppingRule.fixed(1, 3, 2)
    last = StoppingRule.fixed(3, 3, 2)
    res = residual_terms(law, last, first, lam=0.25)

    # frozen phase quantities for two-message repetition on this channel
    assert abs(res.pe - 0.028) < 1e-12  # majority decode over three uses
    assert abs(res.et - 3.0) < 1e-12 and abs(res.et1 - 1.0) < 1e-12
    assert abs(res.rate - 1.0 / 3.0) < 1e-12
    assert abs(res.i_rate - CAP01) < 1e-12
    assert abs(res.d_rate - C1_01) < 1e-12
    assert abs(res.eps - 3.0**-3) < 1e-15

    # recompute every assembled piece from the reported raw quantities
    logm = 1.0
    fano = -(0.028 * math.log2(0.028) + 0.972 * math.log2(0.972)) + 0.028 * logm
    assert abs(res.fano_ceiling - fano) < 1e-12
    u = res.rate * (
        (fano + res.eps) / (res.i_rate * logm)
        + (-math.log2(res.eps)) / (res.d_rate * logm)
        + 1.0 / (res.lam * res.d_rate * logm)
    )
    assert abs(res.u_term - u) < 1e-12
    neg_log_pe = -math.log2(res.pe)
    delta = math.log2(neg_log_pe + 2.0 + logm) / neg_log_pe
    assert abs(res.delta_term - delta) < 1e-12
    v = (res.rate / res.i_rate) * math.sqrt(res.eps) * 3 + math.sqrt(res.eps) * 3 / (
        res.et * res.i_rate
    )
    assert abs(res.v_term - v) < 1e-12
    assembled = res.d_rate / (1.0 - delta) * (1.0 - res.rate / res.i_rate + u + v)
    assert abs(res.assembled - assembled) < 1e-12
    assert res.assembled > 0


def test_residual_terms_degenerate_window(bsc01):
    policy = repetition_encoder(2, 2, 2)
    law = forward_joint(bsc01, policy, 2)
    rule = StoppingRule.fixed(2, 2, 2)
    res = residual_terms(law, rule, rule)
    assert "empty_divergence_phase" in res.flags
    assert math.isnan(res.assembled)


def test_residual_terms_rejects_behavioral(bsc01):
    from fbound.channel_model import uniform_behavioral_policy

    law = forward_joint(bsc01, uniform_behavioral_policy(bsc01, 2), 2)
    with pytest.raises(SchemaError):
        residual_terms(law, StoppingRule.fixed(2, 2, 2), StoppingRule.fixed(1, 2, 2))


def test_residual_terms_rejects_bad_nesting(bsc01):
    policy = repetition_encoder(2, 2, 2)
    law = forward_joint(bsc01, policy, 2)
    with pytest.raises(SchemaError):
        residual_terms(law, StoppingRule.fixed(1, 2, 2), StoppingRule.fixed(2, 2, 2))


def test_flag_order_is_independent_of_the_hash_seed():
    # both flags are raised; they must come in the order raised, whatever
    # the string hash of each.  The capacity search's restarts share one
    # memo and advance in lockstep; its result must not depend on the hash
    # either
    code = (
        "from fbound.bound_engine import SearchConfig, capacity_bound, exponent_candidates\n"
        "from fbound.channel_model import load_channel\n"
        f"ch = load_channel({str(REPO / 'channels' / 'bsc01.json')!r})\n"
        "cfg = SearchConfig(stopping='all', rule_cap=10, messages=(4,))\n"
        "print(exponent_candidates(ch, 3, cfg)[1])\n"
        f"histk2 = load_channel({str(REPO / 'channels' / 'histk2.json')!r})\n"
        "print(capacity_bound(histk2, 2, SearchConfig(stopping='all')).to_json())\n"
    )
    children = [
        subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE, text=True,
                         env=child_env(PYTHONHASHSEED=seed))
        for seed in ("1", "2")
    ]
    outs = [child.communicate(timeout=300)[0].strip() for child in children]
    assert [child.returncode for child in children] == [0, 0]
    want = ("('rule_cap_exceeded_fell_back_to_fixed', "
            "'m4_encoders_restricted_to_per_step_maps')")
    flags, capacity = zip(*(out.split("\n", 1) for out in outs))
    assert flags == (want, want)
    assert capacity[0] == capacity[1]
    assert '"kind": "capacity"' in capacity[0]


NON_INTEGER_COUNTS = [
    ("grid_denominator", 2.5), ("grid_denominator", True), ("sweeps", 1.5),
    ("restarts", 1.5), ("restarts", "a"), ("rule_cap", None), ("budget", 2.5),
    ("encoder_cap", None), ("encoder_cap", 1.5), ("fixed_t", 1.5), ("fixed_t", True),
    ("messages", (2, "a")), ("messages", (True,)), ("messages", (2.5,)), ("messages", 2),
]


@pytest.mark.parametrize("field, value", NON_INTEGER_COUNTS,
                         ids=[f"{field}={value!r}" for field, value in NON_INTEGER_COUNTS])
def test_search_config_refuses_a_non_integer_count_naming_its_field(field, value):
    with pytest.raises(SchemaError, match=rf"^{field}(\[\d+\])? must be"):
        SearchConfig(**{field: value})


def test_search_config_rejects_bad_fields():
    for bad in (
        dict(grid_denominator=0), dict(sweeps=-1), dict(restarts=-1),
        dict(stopping="sometimes"), dict(messages=()), dict(messages=(2, 0)),
        dict(rule_cap=0), dict(budget=0), dict(encoder_cap=0),
    ):
        with pytest.raises(SchemaError):
            SearchConfig(**bad)
    SearchConfig(sweeps=0, restarts=0, messages=(1,))
