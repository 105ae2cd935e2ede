"""Information measures: frozen closed forms, oracle comparisons, and the
structural identities the drift analysis depends on."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from fbound.channel_model import (
    DistributionError,
    LogRatioUnboundedError,
    StoppingRule,
    bsc,
    forward_joint,
    perfect_binary_channel,
    repetition_encoder,
    rotating_encoder,
    two_state_flip_channel,
    uniform_behavioral_policy,
)
from fbound.info_measures import (
    binary_entropy,
    binary_entropy_inv,
    directed_kl,
    directed_kl_stopped,
    directed_mi_fixed,
    directed_mi_stopped,
    entropy,
    expected_stop_time,
    kl,
    log_ratio_bound,
    max_pairwise_row_kl,
    message_information,
    node_table,
)

# frozen closed forms for bsc(0.1), bits
HB01 = 0.4689955935892812
CAP01 = 0.5310044064107188
C1_01 = 2.5359400011538495
ETA01 = 3.169925001442312


def test_entropy_and_kl_closed_forms():
    assert entropy([0.5, 0.5]) == pytest.approx(1.0, abs=1e-15)
    assert entropy([1.0, 0.0]) == 0.0
    assert binary_entropy(0.1) == pytest.approx(HB01, abs=1e-15)
    assert kl([0.9, 0.1], [0.1, 0.9]) == pytest.approx(C1_01, abs=1e-12)
    assert kl([0.5, 0.5], [0.5, 0.5]) == 0.0
    assert math.isinf(kl([0.5, 0.5], [1.0, 0.0]))
    with pytest.raises(DistributionError):
        entropy([0.5, 0.6])
    with pytest.raises(DistributionError):
        kl([0.5, 0.5], [0.7, 0.7])


def test_binary_entropy_inverse_endpoints_and_roundtrip():
    assert binary_entropy_inv(0.0) == 0.0
    assert binary_entropy_inv(1.0) == 0.5
    for v in (0.05, 0.2, 0.5, 0.9):
        p = binary_entropy_inv(v)
        assert 0.0 <= p <= 0.5
        assert binary_entropy(p) == pytest.approx(v, abs=1e-11)


@settings(max_examples=80, deadline=None)
@given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_binary_entropy_inverse_is_lower_inverse(v):
    p = binary_entropy_inv(v)
    assert 0.0 <= p <= 0.5
    assert binary_entropy(p) == pytest.approx(v, abs=1e-10)


# ---------------------------------------------------------------------------
# directed information
# ---------------------------------------------------------------------------


def test_directed_mi_iid_uniform_bsc():
    ch = bsc(0.1)
    pol = uniform_behavioral_policy(ch, 3)
    law = forward_joint(ch, pol, 3)
    want = 3 * CAP01
    assert directed_mi_fixed(law, 3) == pytest.approx(want, abs=1e-12)


def test_directed_mi_matches_oracle_on_state_channel():
    ch = two_state_flip_channel()
    pol = uniform_behavioral_policy(ch, 2)
    law = forward_joint(ch, pol, 2)
    q = ch.spec.q.tolist()

    def kernel_fn(t, sh, xh):
        if t == 1:
            return ch.kernel.init.tolist()
        return ch.kernel.table[sh[-1], xh[-1]].tolist()

    def policy_fn(t, w, xh, yh):
        return [0.5, 0.5]

    ref = oracles.oracle_joint(q, kernel_fn, policy_fn, 1, 2)
    want = oracles.oracle_directed_mi(ref, 2, 2, 2)
    assert directed_mi_fixed(law, 2) == pytest.approx(want, abs=1e-11)


def test_directed_mi_equals_message_information():
    # message-form law on a memoryless channel: the directed sum telescopes
    # to the plain information between the message and the outputs
    ch = bsc(0.1)
    for pol in (repetition_encoder(2, 2, 3), rotating_encoder(4, 2, 3)):
        law = forward_joint(ch, pol, 3)
        for n in range(4):
            assert directed_mi_fixed(law, n) == pytest.approx(
                message_information(law, n), abs=1e-10
            )


def test_directed_mi_stopped_threshold_rule():
    # stop at 1 when the first output is 0, otherwise at 2
    ch = bsc(0.1)
    pol = uniform_behavioral_policy(ch, 2)
    law = forward_joint(ch, pol, 2)
    rule = StoppingRule(horizon=2, y_size=2, stops=frozenset({(0,), (1, 0), (1, 1)}))
    # oracle: J_1 + P(y1=1) * J_2(y1=1); all steps have J = capacity here
    want = CAP01 + 0.5 * CAP01
    assert directed_mi_stopped(law, rule) == pytest.approx(want, abs=1e-12)
    assert expected_stop_time(law, rule) == pytest.approx(1.5, abs=1e-15)


def test_directed_mi_stopped_fixed_equals_fixed_window():
    ch = two_state_flip_channel()
    law = forward_joint(ch, uniform_behavioral_policy(ch, 2), 2)
    rule = StoppingRule.fixed(2, 2, 2)
    assert directed_mi_stopped(law, rule) == pytest.approx(
        directed_mi_fixed(law, 2), abs=1e-13
    )


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_mutual_information_stays_finite_when_the_marginal_product_underflows():
    # after a 1e-200 crossover, P(x) P(y) of the unlikely cells is ~1e-400
    law = forward_joint(bsc(1e-200), repetition_encoder(2, 2, 3), 3)
    mi = node_table(law).node_mi
    assert np.isfinite(mi).all() and (mi >= 0.0).all() and (mi <= 1.0 + 1e-12).all()
    assert math.isfinite(directed_mi_fixed(law, 3))


# ---------------------------------------------------------------------------
# directed KL
# ---------------------------------------------------------------------------


def test_directed_kl_single_state_single_step():
    # one step, uniform prior over two messages: the most likely input ties
    # and resolves to index 0; both variants equal the single pairwise KL
    ch = bsc(0.1)
    law = forward_joint(ch, repetition_encoder(2, 2, 1), 1)
    for variant in ("per_history_max", "global_symbol_max"):
        assert directed_kl(law, 1, 1, variant) == pytest.approx(C1_01, abs=1e-12)


def test_directed_kl_matches_double_loop_oracle():
    ch = two_state_flip_channel()
    law = forward_joint(ch, repetition_encoder(2, 2, 2), 2)
    q = ch.spec.q.tolist()

    def kernel_fn(t, sh, xh):
        if t == 1:
            return ch.kernel.init.tolist()
        return ch.kernel.table[sh[-1], xh[-1]].tolist()

    def policy_fn(t, w, xh, yh):
        row = [0.0, 0.0]
        row[w] = 1.0
        return row

    ref = oracles.oracle_joint(q, kernel_fn, policy_fn, 2, 2)
    for variant in ("per_history_max", "global_symbol_max"):
        want = oracles.oracle_directed_kl(ref, 1, 2, 2, 2, variant)
        got = directed_kl(law, 1, 2, variant)
        assert got == pytest.approx(want, abs=1e-11)


def test_directed_kl_variant_order():
    # the per-history max dominates the global-sequence max
    for ch, pol in [
        (two_state_flip_channel(), repetition_encoder(2, 2, 3)),
        (bsc(0.2), rotating_encoder(4, 2, 3)),
    ]:
        law = forward_joint(ch, pol, 3)
        hi = directed_kl(law, 1, 3, "per_history_max")
        lo = directed_kl(law, 1, 3, "global_symbol_max")
        assert hi >= lo - 1e-12


def test_directed_kl_symmetric_rows_is_zero():
    # all effective rows identical: the divergence vanishes
    from fbound.channel_model import uniform_channel

    ch = uniform_channel()
    law = forward_joint(ch, repetition_encoder(2, 2, 2), 2)
    assert directed_kl(law, 1, 2) == 0.0


def test_directed_kl_infinite_on_zero_entries():
    ch = perfect_binary_channel()
    law = forward_joint(ch, repetition_encoder(2, 2, 1), 1)
    assert math.isinf(directed_kl(law, 1, 1))


def test_directed_kl_stopped_window():
    ch = bsc(0.1)
    law = forward_joint(ch, repetition_encoder(2, 2, 3), 3)
    first = StoppingRule.fixed(1, 3, 2)
    last = StoppingRule.fixed(3, 3, 2)
    want = directed_kl(law, 2, 3, "per_history_max")
    assert directed_kl_stopped(law, first, last) == pytest.approx(want, abs=1e-12)


# ---------------------------------------------------------------------------
# entropy process and drift terms
# ---------------------------------------------------------------------------


def _entropy_by_history(law):
    table = node_table(law)
    return {table.history(i): (p, h) for i, (p, h) in
            enumerate(zip(law.node_prob.tolist(), table.h.tolist()))}


def test_h_process_repetition_values():
    ch = bsc(0.1)
    law = forward_joint(ch, repetition_encoder(2, 2, 3), 3)
    proc = _entropy_by_history(law)
    assert proc[()][1] == pytest.approx(1.0, abs=1e-15)
    assert proc[(0,)][1] == pytest.approx(HB01, abs=1e-12)
    assert proc[(0, 0)][1] == pytest.approx(0.09501724567107636, abs=1e-12)
    assert proc[(0, 0, 1)][1] == pytest.approx(HB01, abs=1e-12)


def test_h_process_expected_is_nonincreasing():
    for ch, pol in [
        (bsc(0.1), repetition_encoder(2, 2, 3)),
        (two_state_flip_channel(), repetition_encoder(2, 2, 3)),
        (bsc(0.2), rotating_encoder(4, 2, 3)),
    ]:
        law = forward_joint(ch, pol, 3)
        proc = _entropy_by_history(law).items()
        vals = [sum(p * h for node, (p, h) in proc if len(node) == t) for t in range(4)]
        for a, b in zip(vals, vals[1:]):
            assert b <= a + 1e-12


def test_single_message_entropy_is_zero():
    ch = bsc(0.1)
    law = forward_joint(ch, repetition_encoder(1, 2, 2), 2)
    assert node_table(law).h.tolist() == [0.0] * law.node_prob.size


def test_drift_terms_bsc_first_step():
    ch = bsc(0.1)
    law = forward_joint(ch, repetition_encoder(2, 2, 3), 3)
    table = node_table(law)
    assert table.history(0) == ()
    assert table.node_mi[0] == pytest.approx(CAP01, abs=1e-12)
    assert table.node_kl[0] == pytest.approx(C1_01, abs=1e-12)
    assert max_pairwise_row_kl(ch) == pytest.approx(C1_01, abs=1e-12)
    assert log_ratio_bound(ch) == pytest.approx(ETA01, abs=1e-12)


def test_log_ratio_bound_needs_positive_channel():
    with pytest.raises(LogRatioUnboundedError):
        log_ratio_bound(perfect_binary_channel())


def test_log_ratio_bound_holds_pathwise():
    # every realized one-step move of log2 H is within the channel bound
    for ch, m in [(bsc(0.1), 2), (two_state_flip_channel(), 2)]:
        law = forward_joint(ch, repetition_encoder(m, 2, 3), 3)
        proc = _entropy_by_history(law)
        eta = log_ratio_bound(ch)
        for node, (p, h) in proc.items():
            if node:
                hprev = proc[node[:-1]][1]
                if h > 0.0 and hprev > 0.0:
                    assert abs(math.log2(h) - math.log2(hprev)) <= eta + 1e-9
