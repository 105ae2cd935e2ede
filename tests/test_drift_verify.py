"""Tests for the mechanical lemma checks: pruned-time conventions, the
drift and submartingale verdicts (including deliberate mutations that must
fail), and the random-instance inequalities."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbound.channel_model import (
    SchemaError,
    StoppingRule,
    forward_joint,
    load_channel,
    repetition_encoder,
    rotating_encoder,
    uniform_behavioral_policy,
)
from fbound.cli import main
from fbound.info_measures import LogRatioUnboundedError, node_table
from fbound.drift_verify import (
    Verdict,
    _low_entropy_rows,
    _pruned_index,
    _pruned_times,
    verify_entropy_proposition,
    verify_fano,
    verify_lemma4_budget,
    verify_lemma5_kl_transfer,
    verify_lemma7,
    verify_linear_drift,
    verify_log_drift,
    verify_maximal_inequality,
    verify_submartingale_L,
)


@pytest.fixture(scope="module")
def law2(bsc01):
    return forward_joint(bsc01, repetition_encoder(2, 2, 3), 3)


@pytest.fixture(scope="module")
def law4(bsc01):
    return forward_joint(bsc01, rotating_encoder(4, 2, 3), 3)


@pytest.fixture(scope="module")
def lawf(flip2):
    return forward_joint(flip2, repetition_encoder(2, 2, 3), 3)


# --- pruned times ---------------------------------------------------------


def _pruned(h, eps):
    """(tau_hit, tau_last, [t_0, ..., t_N]) of one entropy path H_0..H_N."""
    hit, last = _pruned_times(np.array([h], dtype=float), eps)
    n = len(h) - 1
    return int(hit[0]), int(last[0]), _pruned_index(np.arange(n + 1), hit[0], last[0], n).tolist()


def test_pruned_times_rebound_path():
    # entropy dips under the threshold at step 2 and rebounds above it;
    # the last crossing is capped at the horizon
    assert _pruned([1.0, 0.469, 0.095, 0.469], 0.2) == (2, 3, [0, 1, 3, 3])


def test_pruned_times_monotone_path():
    assert _pruned([1.0, 0.5, 0.1, 0.05], 0.2) == (2, 2, [0, 1, 2, 3])


def test_pruned_times_no_hit():
    assert _pruned([1.0, 0.9, 0.8, 0.7], 0.2)[:2] == (3, 3)


def test_pruned_times_rejects_low_start():
    with pytest.raises(SchemaError):
        _pruned([0.1, 0.5], 0.2)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=2, max_size=8),
    st.floats(min_value=0.01, max_value=0.5),
)
def test_pruned_times_ordering_property(vals, eps):
    h = [max(1.0, eps)] + vals  # start at or above the threshold
    tau_hit, tau_last, idx = _pruned(h, eps)
    n = len(h) - 1
    assert 1 <= tau_hit <= n
    assert tau_hit <= tau_last <= n
    assert all(b >= a for a, b in zip(idx, idx[1:]))
    assert idx[0] == 0 and idx[-1] == n


# --- linear drift ---------------------------------------------------------


def test_linear_drift_exact_on_dmc(law2, law4):
    for law in (law2, law4):
        v = verify_linear_drift(law)
        assert v.passed
        assert v.count == 7  # realizable histories over three steps
        assert v.constants["max_abs_gap"] < 1e-10


def test_linear_drift_exact_on_state_channel(lawf):
    v = verify_linear_drift(lawf)
    assert v.passed
    assert v.constants["max_abs_gap"] < 1e-10


def test_linear_drift_rejects_behavioral(bsc01):
    law = forward_joint(bsc01, uniform_behavioral_policy(bsc01, 2), 2)
    with pytest.raises(SchemaError):
        verify_linear_drift(law)


# --- log drift ------------------------------------------------------------


def test_log_drift_clean_pass(law2):
    v = verify_log_drift(law2, 0.2)
    assert v.passed and v.count == 2
    assert abs(v.worst - 0.779514) < 1e-5
    assert v.constants["c_minimal_passing"] == 0.0
    assert abs(v.constants["c"] - (3 * 2.5359400011538495 + 4)) < 1e-9


def test_log_drift_mutated_fails(law2):
    v = verify_log_drift(law2, 0.2, mutate="halve_kl_drift")
    assert not v.passed
    assert abs(v.worst - (-0.488456)) < 1e-5
    assert v.constants["c_minimal_passing"] > v.constants["c"]


def test_log_drift_vacuous(law4):
    v = verify_log_drift(law4, 0.2)
    assert v.passed and v.count == 0
    assert math.isinf(v.worst)
    assert any("vacuous" in d for d in v.details)


@pytest.fixture(scope="module")
def z01_law(channels_dir):
    # repetition M=2 at H=4, the law of ``verify --channel z01.json
    # --horizon 4``: a received 1 rules out message 0, so low-entropy
    # histories have a child of zero entropy (a -inf drift), and two Z rows
    # have an infinite divergence, so the default c is infinite
    law = forward_joint(load_channel(str(channels_dir / "z01.json")),
                        repetition_encoder(2, 2, 4), 4)
    table = node_table(law)
    kids = table.children[_low_entropy_rows(law, 0.3)]
    assert ((kids >= 0) & (table.h[kids] <= 0.0)).any()
    return law


def test_log_drift_with_an_infinite_constant_is_a_vacuous_pass(z01_law, capsys, channels_dir):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v = verify_log_drift(z01_law, 0.3)
    assert math.isinf(v.constants["c"]) and v.count == 2
    assert v.passed and v.worst == math.inf
    assert v.details == ("c is infinite, so the slack c * hb_inv(eps) bounds nothing: "
                         "vacuous pass",)
    assert main(["verify", "--channel", str(channels_dir / "z01.json"), "--suite", "drift",
                 "--horizon", "4"]) == 0
    captured = capsys.readouterr()
    assert "bounds nothing: vacuous pass" in captured.out and captured.err == ""


def test_log_drift_with_a_finite_constant_fails_on_a_dead_child(z01_law):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v = verify_log_drift(z01_law, 0.3, c=5.0)
    assert not v.passed and v.worst == -math.inf
    assert v.details == ()
    assert v.constants["c_minimal_passing"] == math.inf


def test_log_drift_domain_errors(law2):
    with pytest.raises(SchemaError):
        verify_log_drift(law2, 1.5)
    with pytest.raises(SchemaError):
        verify_log_drift(law2, 0.2, mutate="no_such_mutation")


# --- pruned submartingale ---------------------------------------------------


def test_submartingale_clean_certificate(law2):
    v = verify_submartingale_L(law2, 0.2)
    assert v.passed
    assert v.constants["lambda_best"] == 0.25
    assert v.count == 9
    assert v.worst >= -1e-10
    assert abs(v.constants["i_const"] - 0.384251) < 1e-5
    assert abs(v.constants["d_const"] - 2.5359400011538495) < 1e-9
    assert any("lambda=1:" in d and "precondition" in d for d in v.details)


def test_submartingale_mutated_fails_at_pinned_lambda(law2):
    clean = verify_submartingale_L(law2, 0.2)
    lam = clean.constants["lambda_best"]
    v = verify_submartingale_L(law2, 0.2, lam_grid=(lam,), mutate="halve_kl_drift")
    assert not v.passed
    assert math.isnan(v.constants["lambda_best"])


def test_submartingale_wild_lambda_fails(law2):
    v = verify_submartingale_L(law2, 0.2, lam_grid=(1000.0,))
    assert not v.passed
    assert any("precondition violated" in d for d in v.details)


def test_submartingale_explicit_constants(law2):
    v = verify_submartingale_L(law2, 0.2, i_const=0.384251, d_const=2.53594)
    assert v.passed
    assert v.constants["i_const"] == 0.384251


def test_submartingale_domain_errors(bsc01, law2, channels_dir):
    with pytest.raises(SchemaError):
        verify_submartingale_L(law2, 1.5)  # eps must stay below log2 M
    z = load_channel(str(channels_dir / "z01.json"))
    zlaw = forward_joint(z, repetition_encoder(2, 2, 2), 2)
    with pytest.raises(LogRatioUnboundedError):
        verify_submartingale_L(zlaw, 0.2)
    blaw = forward_joint(bsc01, uniform_behavioral_policy(bsc01, 2), 2)
    with pytest.raises(SchemaError):
        verify_submartingale_L(blaw, 0.2)


# --- decoder entropy ceiling -----------------------------------------------


def test_fano_map_and_constant(law2):
    v = verify_fano(law2)
    assert v.passed
    assert v.worst >= -1e-9
    assert any("map decoder: avg error 0.028" in d for d in v.details)
    assert any("constant decoder: avg error 0.5" in d for d in v.details)


def test_fano_stopped_rule(law4):
    v = verify_fano(law4, rule=StoppingRule.fixed(2, 3, 2))
    assert v.passed


# --- compensator budget ------------------------------------------------------


def test_lemma4_budget_holds(law2):
    v = verify_lemma4_budget(law2, 0.3)
    assert v.passed
    assert abs(v.worst - 4.36629) < 1e-4
    assert abs(v.constants["expected_stop"] - 3.0) < 1e-12
    assert abs(v.constants["entropy_ceiling"] - 0.212261) < 1e-5


def test_lemma4_budget_needs_eps_above_ceiling(law2):
    with pytest.raises(SchemaError):
        verify_lemma4_budget(law2, 0.2)  # ceiling is ~0.2123 here


def test_lemma4_budget_refuses_a_nan_eps_in_its_own_check(law2):
    with pytest.raises(SchemaError, match="eps=nan must exceed the decoder entropy ceiling"):
        verify_lemma4_budget(law2, math.nan)


# --- divergence transfer ------------------------------------------------------


def test_lemma5_clean_pass(law2):
    v = verify_lemma5_kl_transfer(law2, 0.2)
    assert v.passed and v.count == 2
    assert abs(v.worst - 0.440217) < 1e-5
    assert abs(v.constants["cprime"] - 4 * (1 + 2.5359400011538495)) < 1e-9


def test_lemma5_mutated_fails_with_minimal_constant(law2):
    v = verify_lemma5_kl_transfer(law2, 0.2, mutate="halve_kl_drift")
    assert not v.passed
    assert v.constants["cprime_minimal_passing"] > v.constants["cprime"]


def test_lemma5_vacuous(law4):
    v = verify_lemma5_kl_transfer(law4, 0.2)
    assert v.passed and v.count == 0


# --- random-instance inequalities -------------------------------------------


def test_lemma7_random_instances():
    v = verify_lemma7(trials=5000, seed=3)
    assert v.passed and v.count >= 5000
    assert v.worst > 0
    again = verify_lemma7(trials=5000, seed=3)
    assert again.worst == v.worst  # seeded determinism


def test_entropy_proposition_boundary_tight():
    v = verify_entropy_proposition(trials=2000, seed=1)
    assert v.passed
    # the exact half-half distribution sits on the boundary with one bit
    assert abs(v.worst) <= 1e-12


def test_maximal_inequality_generators():
    v = verify_maximal_inequality(trials=4000, seed=2)
    assert v.passed
    assert v.count == 6
    assert len(v.details) == 6
    again = verify_maximal_inequality(trials=4000, seed=2)
    assert again.worst == v.worst


# --- verdict formatting -------------------------------------------------------


def test_verdict_text_format():
    v = Verdict(
        check="demo", instance="x", count=3, worst=-0.5, passed=False,
        constants={"tol": 1e-9}, details=("line",),
    )
    txt = v.to_text()
    assert txt.startswith("[FAIL] demo")
    assert "cases=3" in txt and "line" in txt
    good = Verdict(check="demo", instance="x", count=1, worst=0.1, passed=True)
    assert good.to_text().startswith("[PASS] demo")
