"""Send-and-confirm simulator: scheme plumbing, Monte Carlo reproducibility,
and the exact tree evaluation against an independent enumeration oracle."""

from __future__ import annotations

import math

import numpy as np
import pytest

import oracles
from fbound.channel_model import BudgetExceededError, SchemaError, load_channel
from fbound.vlc_sim import (
    CSV_COLUMNS,
    RunStats,
    SchemeSpec,
    build_repetition_confirm,
    build_yamamoto_itoh,
    csv_row,
    dump_scheme,
    exact_stats,
    exponent_sweep,
    load_scheme,
    parse_scheme,
    serialize_scheme,
    simulate,
)
from fbound.vlc_sim import _draw_uniforms


@pytest.fixture(scope="module")
def yi_bsc01(bsc01):
    return build_yamamoto_itoh(bsc01, 2, 3, 4, 2, seed=5)


@pytest.fixture(scope="session")
def z01(channels_dir):
    return load_channel(str(channels_dir / "z01.json"))


@pytest.fixture(scope="session")
def perfect2(channels_dir):
    return load_channel(str(channels_dir / "perfect2.json"))


@pytest.fixture(scope="session")
def histk2(channels_dir):
    return load_channel(str(channels_dir / "histk2.json"))


# --- scheme construction and serialization ---------------------------------


def test_builder_is_seeded_and_picks_most_separated_confirm(yi_bsc01, channels_dir):
    assert yi_bsc01.codebook == ((1, 1, 0), (1, 0, 1))
    assert yi_bsc01.confirm == (0, 1)
    assert yi_bsc01.name == "yi_m2_n3+4_cap2"
    assert yi_bsc01.block_len == 7 and yi_bsc01.max_uses == 14
    again = build_yamamoto_itoh(load_channel(str(channels_dir / "bsc01.json")), 2, 3, 4, 2, seed=5)
    assert again == yi_bsc01


def test_confirm_pair_prefers_one_way_infinite_divergence(z01):
    # the noiseless-zero row is unmistakable when it is the *reference* of
    # the divergence, so the ack symbol should be input 1's opposite order
    sc = build_yamamoto_itoh(z01, 2, 2, 3, 2, seed=0)
    assert sc.confirm == (1, 0)


def test_scheme_validation_errors():
    ok = dict(
        variant="user_table", m=2, n1=2, n2=1, cap=1, x_size=2,
        codebook=((0, 0), (1, 1)), confirm=(0, 1),
    )
    SchemeSpec(**ok)
    with pytest.raises(SchemaError):
        SchemeSpec(**{**ok, "variant": "nope"})
    with pytest.raises(SchemaError):
        SchemeSpec(**{**ok, "m": 1, "codebook": ((0, 0),)})
    with pytest.raises(SchemaError):
        SchemeSpec(**{**ok, "cap": 0})
    with pytest.raises(SchemaError):
        SchemeSpec(**{**ok, "codebook": ((0, 0),)})
    with pytest.raises(SchemaError):
        SchemeSpec(**{**ok, "codebook": ((0, 0, 1), (1, 1, 0))})
    with pytest.raises(SchemaError):
        SchemeSpec(**{**ok, "codebook": ((0, 2), (1, 1))})
    with pytest.raises(SchemaError):
        SchemeSpec(**{**ok, "codebook": ((0, 0), (0, 0))})
    with pytest.raises(SchemaError):
        SchemeSpec(**{**ok, "confirm": (1, 1)})
    with pytest.raises(SchemaError):
        SchemeSpec(**{**ok, "confirm": (0, 2)})


def test_builder_rejects_impossible_sizes(bsc01):
    with pytest.raises(SchemaError):
        build_yamamoto_itoh(bsc01, 5, 2, 1, 1)  # 2^2 < 5 distinct rows
    with pytest.raises(SchemaError):
        build_repetition_confirm(bsc01, 3, 2, 1, 1)  # needs m <= |X|


def test_scheme_json_round_trip(tmp_path, yi_bsc01):
    text = serialize_scheme(yi_bsc01)
    assert parse_scheme(text) == yi_bsc01
    assert serialize_scheme(parse_scheme(text)) == text  # canonical form
    path = tmp_path / "scheme.json"
    dump_scheme(yi_bsc01, path)
    assert load_scheme(path) == yi_bsc01


def test_scheme_parse_errors():
    with pytest.raises(SchemaError):
        parse_scheme("{not json")
    with pytest.raises(SchemaError):
        parse_scheme('{"variant": "user_table", "m": 2}')


# --- Monte Carlo reproducibility --------------------------------------------


def test_simulate_matches_the_per_trial_loop(yi_bsc01, bsc01):
    base = simulate(yi_bsc01, bsc01, 500, seed=1)
    # a single-state channel runs the one array pass, which must agree bit
    # for bit with running each trial alone, not just statistically
    counts = oracles.loop_simulate_generic(yi_bsc01, bsc01, 500, 1, 0)
    assert RunStats.from_counts(yi_bsc01.m, 500, *counts) == base


def _fresh_generator_draws(seed, start, count, width):
    return np.array([oracles.fresh_trial_uniforms(seed, t, width)
                     for t in range(start, start + count)])


def test_rekeyed_generator_draws_what_a_fresh_one_per_trial_draws():
    seeds = [0, 1, 11, 2**63 - 1, 2**63, 2**64 - 1]
    seeds += [int(v) for v in np.random.default_rng(3).integers(0, 2**64, size=4, dtype=np.uint64)]
    for seed in seeds:
        for start in (0, 1, 19_999, 20_000, 987_654):
            for width in range(1, 42):
                got = _draw_uniforms(seed, start, 3, width)
                assert got.tobytes() == _fresh_generator_draws(seed, start, 3, width).tobytes()


def test_seeds_below_2_63_keep_the_draws_of_a_list_key():
    # numpy reads a list key below 2**63 as int64, the same words
    for seed in (0, 11, 2**62 + 5, 2**63 - 1):
        want = np.random.Generator(np.random.Philox(key=[seed, 7])).random(9)
        assert _draw_uniforms(seed, 7, 1, 9)[0].tobytes() == want.tobytes()


def test_top_seeds_get_their_own_key(yi_bsc01, bsc01):
    # a list key casts these through float64: 2**64 - 1 became seed 0's key
    # and 2**64 - 2047 one shared with its neighbours
    for seed in (2**64 - 1, 2**64 - 2047):
        assert _draw_uniforms(seed, 0, 2, 5).tobytes() != _draw_uniforms(0, 0, 2, 5).tobytes()
        assert (_draw_uniforms(seed, 0, 2, 5).tobytes()
                != _draw_uniforms(seed - 1, 0, 2, 5).tobytes())
    top = simulate(yi_bsc01, bsc01, 500, seed=2**64 - 1)  # warnings are errors
    assert top != simulate(yi_bsc01, bsc01, 500, seed=0)


def test_simulate_refuses_a_seed_outside_the_key_range(yi_bsc01, bsc01):
    # -1 and 2**64 used to end in an OverflowError from the key array, and
    # 1.5 ran silently as seed 1
    for seed in (-1, 2**64, 1.5):
        with pytest.raises(SchemaError, match=r"^seed must be an integer in 0\.\.2\*\*64 - 1"):
            simulate(yi_bsc01, bsc01, 10, seed=seed)


def test_simulate_refuses_a_trial_count_that_is_not_an_integer(yi_bsc01, bsc01):
    # 2.5 and "3" used to end in a TypeError, and True ran one trial and
    # reported trials == True
    for trials in (2.5, "3", True, False, None):
        with pytest.raises(SchemaError, match=r"^trials must be an integer, got "):
            simulate(yi_bsc01, bsc01, trials)
    for trials in (0, -1):
        with pytest.raises(SchemaError, match=r"^need at least one trial$"):
            simulate(yi_bsc01, bsc01, trials)
    stats = simulate(yi_bsc01, bsc01, np.int64(3))
    assert type(stats.trials) is int and stats.trials == 3


def test_simulate_seed_changes_outcome(yi_bsc01, bsc01):
    a = simulate(yi_bsc01, bsc01, 500, seed=1)
    c = simulate(yi_bsc01, bsc01, 500, seed=2)
    assert (a.errors, a.et) != (c.errors, c.et)


def test_simulate_argument_errors(yi_bsc01, bsc01):
    with pytest.raises(SchemaError):
        simulate(yi_bsc01, bsc01, 0)
    wide = SchemeSpec(
        variant="user_table", m=2, n1=1, n2=1, cap=1, x_size=3,
        codebook=((0,), (2,)), confirm=(0, 2),
    )
    with pytest.raises(SchemaError):
        simulate(wide, bsc01, 10)


def test_generic_path_respects_kernel_horizon(histk2):
    tiny = build_repetition_confirm(histk2, 2, 1, 1, 1)  # 2 uses, defined
    stats = simulate(tiny, histk2, 200, seed=3)
    assert stats.et == 2.0
    over = build_repetition_confirm(histk2, 2, 1, 2, 1)  # 3 uses, undefined
    with pytest.raises(SchemaError):
        simulate(over, histk2, 10)


# --- exact evaluation vs the enumeration oracle ------------------------------


def test_exact_stats_matches_oracle_on_dmc(yi_bsc01, bsc01):
    pe, et = oracles.oracle_vlc(
        bsc01.spec.q.tolist(), lambda t, sh, xh: [1.0],
        yi_bsc01.codebook, yi_bsc01.confirm, yi_bsc01.threshold, 2, 3, 4, 2,
    )
    ex = exact_stats(yi_bsc01, bsc01)
    assert ex.pe == pytest.approx(pe, abs=1e-14)
    assert ex.et == pytest.approx(et, abs=1e-12)
    # frozen from the oracle run
    assert ex.pe == pytest.approx(0.021233584000000274, abs=1e-15)
    assert ex.et == pytest.approx(7.68669999999973, abs=1e-12)
    assert ex.leaves == 10416
    assert ex.rate == pytest.approx(math.log2(2) / ex.et, abs=0)
    assert ex.exponent == pytest.approx(-math.log2(ex.pe) / ex.et, abs=0)


def _flip2_kernel_fn(ch):
    init = ch.kernel.init.tolist()
    table = ch.kernel.table

    def kernel_fn(t, sh, xh):
        if t == 1:
            return init
        return table[sh[-1], xh[-1]].tolist()

    return kernel_fn


def test_exact_stats_matches_oracle_on_state_channel(flip2):
    small = build_repetition_confirm(flip2, 2, 1, 2, 2)
    pe, et = oracles.oracle_vlc(
        flip2.spec.q.tolist(), _flip2_kernel_fn(flip2),
        small.codebook, small.confirm, small.threshold, 2, 1, 2, 2,
    )
    ex = exact_stats(small, flip2)
    assert ex.pe == pytest.approx(pe, abs=1e-13)
    assert ex.et == pytest.approx(et, abs=1e-12)
    assert ex.pe == pytest.approx(0.36368, abs=1e-13)
    assert ex.leaves == 44


def test_exact_stats_within_monte_carlo_intervals(yi_bsc01, bsc01, flip2):
    ex = exact_stats(yi_bsc01, bsc01)
    st = simulate(yi_bsc01, bsc01, 4000, seed=11)
    assert st.pe_lo <= ex.pe <= st.pe_hi
    assert st.et_lo <= ex.et <= st.et_hi

    big = build_repetition_confirm(flip2, 2, 2, 3, 2)
    ex2 = exact_stats(big, flip2)
    # frozen from the full-size oracle run
    assert ex2.pe == pytest.approx(0.42358867456000027, abs=1e-13)
    assert ex2.et == pytest.approx(6.894815999999996, abs=1e-12)
    assert ex2.leaves == 1056
    st2 = simulate(big, flip2, 3000, seed=7)
    assert st2.pe_lo <= ex2.pe <= st2.pe_hi
    assert st2.et_lo <= ex2.et <= st2.et_hi


def test_exact_stats_perfect_channel_never_errs(perfect2):
    sc = build_repetition_confirm(perfect2, 2, 1, 1, 2)
    ex = exact_stats(sc, perfect2)
    assert ex.pe == 0.0 and ex.et == 2.0 and ex.exponent == math.inf
    assert ex.leaves == 2  # one accepting branch per message
    st = simulate(sc, perfect2, 300, seed=2)
    assert st.errors == 0 and st.pe_lo == 0.0 and st.et == 2.0
    assert st.exponent == math.inf and st.exp_hi == math.inf
    assert math.isfinite(st.exp_lo)


def test_unreachable_threshold_forces_every_repeat(yi_bsc01, bsc01):
    hard = SchemeSpec(
        variant="yamamoto_itoh", m=2, n1=3, n2=4, cap=2, x_size=2,
        codebook=yi_bsc01.codebook, confirm=yi_bsc01.confirm, threshold=1e9,
    )
    ex = exact_stats(hard, bsc01)
    assert ex.et == pytest.approx(14.0, abs=1e-11)


def test_exact_stats_guards(yi_bsc01, bsc01, histk2):
    with pytest.raises(BudgetExceededError):
        exact_stats(yi_bsc01, bsc01, budget=10)
    tiny = build_repetition_confirm(histk2, 2, 1, 1, 1)
    with pytest.raises(SchemaError):
        exact_stats(tiny, histk2)  # history-table kernels unsupported


def test_exact_exponent_sits_below_converse_line(yi_bsc01, bsc01):
    from fbound.bound_engine import burnashev

    ex = exact_stats(yi_bsc01, bsc01)
    line = burnashev(bsc01, ex.rate)
    assert ex.exponent < line.exponent


# --- run statistics ----------------------------------------------------------


def test_binomial_interval_closed_forms_at_the_edges():
    r0 = RunStats.from_counts(2, 50, 0, 300.0, 1800.0)
    assert r0.pe == 0.0 and r0.pe_lo == 0.0
    assert r0.pe_hi == pytest.approx(1.0 - 0.025 ** (1.0 / 50.0), abs=1e-12)
    assert r0.exponent == math.inf and r0.exp_hi == math.inf
    assert math.isfinite(r0.exp_lo) and r0.exp_lo > 0.0

    rn = RunStats.from_counts(2, 50, 50, 300.0, 1800.0)
    assert rn.pe == 1.0 and rn.pe_hi == 1.0
    assert rn.pe_lo == pytest.approx(0.025 ** (1.0 / 50.0), abs=1e-12)


def test_interval_corners_bracket_point_estimates(yi_bsc01, bsc01):
    st = simulate(yi_bsc01, bsc01, 2000, seed=4)
    assert st.pe_lo <= st.pe <= st.pe_hi
    assert st.et_lo <= st.et <= st.et_hi
    assert st.rate_lo <= st.rate <= st.rate_hi
    assert st.exp_lo <= st.exponent <= st.exp_hi


def test_csv_row_matches_column_order(yi_bsc01, bsc01):
    st = simulate(yi_bsc01, bsc01, 100, seed=0)
    row = csv_row(yi_bsc01, st)
    assert tuple(row) == CSV_COLUMNS
    assert row["M"] == 2 and row["trials"] == 100
    assert row["Pe"] == st.pe and row["ET"] == st.et


def test_exponent_sweep_reuses_seed_per_scheme(bsc01):
    schemes = [
        build_yamamoto_itoh(bsc01, 2, 3, 4, 2, seed=5),
        build_yamamoto_itoh(bsc01, 4, 5, 4, 2, seed=5),
    ]
    out = exponent_sweep(bsc01, schemes, 300, seed=9)
    assert [sc for sc, _ in out] == schemes
    for sc, st in out:
        assert st == simulate(sc, bsc01, 300, seed=9)


def test_clopper_pearson_equals_beta_quantiles():
    # the interval once came from scipy.stats.beta.ppf; betaincinv must give
    # the same bits, or simulate CSVs would change
    from scipy.stats import beta

    from fbound.vlc_sim import _clopper_pearson

    probes = 0
    for n in (1, 2, 3, 5, 10, 17, 50, 100, 999, 1000, 12345, 100000):
        for k in sorted({0, 1, 2, 3, n // 7, n // 3, n // 2, n - 2, n - 1, n}):
            if not 0 <= k <= n:
                continue
            for level in (0.9, 0.95, 0.99):
                a = (1.0 - level) / 2.0
                want_lo = 0.0 if k == 0 else float(beta.ppf(a, k, n - k + 1))
                want_hi = 1.0 if k == n else float(beta.ppf(1.0 - a, k + 1, n - k))
                assert _clopper_pearson(k, n, level) == (want_lo, want_hi), (k, n, level)
                probes += 1
    assert probes > 200
