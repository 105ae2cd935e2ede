"""Differential tests of the simulator's array passes against the loops they
replaced: the recursive stopped-tree walk (``oracles.loop_exact_stats``)
and the per-trial state path (``oracles.loop_simulate_generic``).

Every comparison is exact: Pe and E[T] by ``repr`` (every float bit), leaf
counts and simulator tuples with ``==``, errors by type.  The array passes
keep the loops' arithmetic and summation order, so any difference is a
defect, not rounding.
"""

from __future__ import annotations

import functools
import itertools
import tracemalloc

import numpy as np
import pytest

import oracles
from conftest import REPO
from fbound import vlc_sim
from fbound.channel_model import (
    BudgetExceededError,
    Channel,
    ChannelSpec,
    StateKernel,
    load_channel,
)
from fbound.vlc_sim import (
    RunStats,
    _simulate_generic,
    build_repetition_confirm,
    build_yamamoto_itoh,
    exact_stats,
    simulate,
)

FILES = ("bsc01", "bsc02", "bsc05", "flip2", "histk2", "perfect2", "uniform22", "z01")
RANDOM = ("markov_s3", "markov_s4", "markov_s4_y3")
SHAPES = ((2, 1, 1, 1), (2, 2, 2, 3), (3, 2, 1, 3), (4, 2, 2, 2), (4, 3, 1, 1))  # m, n1, n2, cap
# blocks of 8 and more uses, where numpy's pairwise ``sum`` no longer adds
# in position order
LONG_SHAPES = ((4, 8, 3, 3), (3, 9, 8, 2), (2, 8, 9, 1))
THRESHOLDS = (0.0, 1.5, 1e9)


def _random_markov1(s_size, x_size, y_size, seed):
    """A markov1 channel with a zero in every other Q row, in the initial
    law and in half the transition rows."""
    rng = np.random.default_rng(seed)
    q = rng.dirichlet(np.ones(y_size), size=(s_size, x_size))
    q[::2, :, 0] = 0.0
    trans = rng.dirichlet(np.ones(s_size), size=(s_size, x_size))
    trans[:, 1, -1] = 0.0
    init = rng.dirichlet(np.ones(s_size))
    init[1] = 0.0
    return Channel(
        ChannelSpec(x_size, y_size, s_size, q / q.sum(axis=2, keepdims=True), name=f"r{seed}"),
        StateKernel("markov1", s_size, x_size, table=trans / trans.sum(axis=2, keepdims=True),
                    init=init / init.sum()),
    )


@functools.lru_cache(maxsize=None)
def _channel(name):
    if name == "markov_s3":
        return _random_markov1(3, 2, 3, 1)
    if name == "markov_s4":
        return _random_markov1(4, 2, 2, 2)
    if name == "markov_s4_y3":
        return _random_markov1(4, 3, 3, 3)
    return load_channel(str(REPO / "channels" / f"{name}.json"))


def _schemes(ch, shapes=SHAPES):
    """Seeded random codebooks and, where |X| allows, repetition codebooks,
    at every threshold, sized to the kernel's horizon and to a tree small
    enough for the recursive walk."""
    cap_uses = ch.kernel.horizon_cap()
    for (m, n1, n2, cap), thr in itertools.product(shapes, THRESHOLDS):
        if cap_uses is not None and cap * (n1 + n2) > cap_uses:
            continue
        if ch.spec.y_size > 2 and cap * (n1 + n2) > 6:
            continue
        if ch.spec.x_size**n1 >= m:
            yield build_yamamoto_itoh(ch, m, n1, n2, cap, seed=m + cap, threshold=thr)
        if m <= ch.spec.x_size:
            yield build_repetition_confirm(ch, m, n1, n2, cap, threshold=thr)


def outcome(fn, *args, **kwargs):
    try:
        out = fn(*args, **kwargs)
    except Exception as e:  # noqa: BLE001 - the error type itself is compared
        return "error", type(e).__name__
    if isinstance(out, tuple):
        return "ok", out
    return "ok", repr(out.pe), repr(out.et), out.leaves


quiet = pytest.mark.filterwarnings("ignore::RuntimeWarning")


# --- the exact stopped-tree walk ----------------------------------------------


@quiet
@pytest.mark.parametrize("name", FILES + RANDOM)
def test_exact_walk_matches_the_recursion(name):
    ch = _channel(name)
    for sc in _schemes(ch):
        assert outcome(exact_stats, sc, ch) == outcome(oracles.loop_exact_stats, sc, ch), sc


def _node_count(sc, ch):
    """The smallest budget the walk runs under: its tree's node count."""
    lo, hi = 0, vlc_sim.EXACT_BUDGET
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            exact_stats(sc, ch, budget=mid)
            hi = mid
        except BudgetExceededError:
            lo = mid
    return hi


@quiet
@pytest.mark.parametrize("name", [n for n in FILES + RANDOM if n != "histk2"])
def test_budget_error_fires_at_the_same_node_count(name):
    ch = _channel(name)
    for sc in _schemes(ch, shapes=((3, 2, 1, 3), (4, 2, 2, 2))):
        if sc.threshold != 1.5:
            continue
        count = _node_count(sc, ch)
        assert outcome(exact_stats, sc, ch, budget=count) == outcome(
            oracles.loop_exact_stats, sc, ch, budget=count)
        assert outcome(exact_stats, sc, ch, budget=count - 1) == ("error", "BudgetExceededError")
        assert outcome(oracles.loop_exact_stats, sc, ch, budget=count - 1) == (
            "error", "BudgetExceededError")


def test_budget_error_says_how_far_the_walk_got(bsc01):
    sc = build_yamamoto_itoh(bsc01, 2, 3, 4, 2, seed=5)
    # 2 + 4 + 8 nodes by the third data use of message 1's first block
    with pytest.raises(BudgetExceededError, match=(
            r"^14 tree nodes by use 3 of block 1 of 2 \(message 1 of 2\) exceed the "
            r"exact-evaluation budget 10$")):
        exact_stats(sc, bsc01, budget=10)
    with pytest.raises(BudgetExceededError, match=(
            r"^20828 tree nodes by use 7 of block 2 of 2 \(message 2 of 2\) exceed the "
            r"exact-evaluation budget 20000$")):
        exact_stats(sc, bsc01, budget=20000)


def test_the_walks_memory_is_its_widest_level():
    # the bsc01 scheme of the benchmark's simulate command, 164,544 leaves.
    # Holding a message's level arrays through its leaf merge, and copying
    # the children of uses that drop none, peaked at 11.7 MB traced
    ch = _channel("bsc01")
    sc = build_yamamoto_itoh(ch, 2, 5, 4, 2)
    tracemalloc.start()
    try:
        ex = exact_stats(sc, ch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (repr(ex.pe), ex.leaves) == ("0.002581233054400338", 164544)
    assert peak < 9e6


def test_walk_raises_the_same_errors():
    histk2 = _channel("histk2")
    tiny = build_repetition_confirm(histk2, 2, 1, 1, 1)
    assert outcome(exact_stats, tiny, histk2) == ("error", "SchemaError")
    assert outcome(oracles.loop_exact_stats, tiny, histk2) == ("error", "SchemaError")
    wide = build_repetition_confirm(_channel("markov_s4_y3"), 3, 1, 1, 1)
    bsc01 = _channel("bsc01")
    assert outcome(exact_stats, wide, bsc01) == ("error", "SchemaError")
    assert outcome(oracles.loop_exact_stats, wide, bsc01) == ("error", "SchemaError")


# --- the state-path Monte Carlo -----------------------------------------------


@quiet
@pytest.mark.parametrize("name", FILES + RANDOM)
def test_state_path_matches_the_per_trial_loop(name):
    # a single-state channel also through ``simulate``, which runs it on the
    # same pass, and on long blocks too
    ch = _channel(name)
    dmc = ch.spec.is_dmc()
    for k, sc in enumerate(_schemes(ch, SHAPES + LONG_SHAPES if dmc else SHAPES)):
        args = (sc, ch, 60, k, 19_980 + k)  # trial keys across 20,000
        assert _simulate_generic(*args) == oracles.loop_simulate_generic(*args), sc
        if dmc:
            want = oracles.loop_simulate_generic(sc, ch, 200, k, 0)
            assert simulate(sc, ch, 200, seed=k) == RunStats.from_counts(sc.m, 200, *want), sc


@quiet
@pytest.mark.parametrize("name", ["flip2", "histk2", "markov_s4_y3"])
def test_chunk_edges_do_not_change_the_outcome(name, monkeypatch):
    ch = _channel(name)
    sc = next(_schemes(ch, shapes=((2, 1, 1, 1),)))
    want = oracles.loop_simulate_generic(sc, ch, 45, 7, 3)
    for chunk in (1, 7, 44, 45, 46):
        monkeypatch.setattr(vlc_sim, "SIM_CHUNK", chunk)
        assert _simulate_generic(sc, ch, 45, 7, 3) == want


def test_a_run_past_one_chunk_matches_the_loop(flip2):
    sc = build_repetition_confirm(flip2, 2, 1, 1, 1)
    n = vlc_sim.SIM_CHUNK + 13
    assert _simulate_generic(sc, flip2, n, 2, 0) == oracles.loop_simulate_generic(
        sc, flip2, n, 2, 0)


def _dyadic_channel():
    """markov1 with every probability a multiple of 1/8, so that draws on
    an eighths grid land exactly on cumulative entries."""
    q = np.array([[[0.25, 0.75], [0.5, 0.5]], [[0.0, 1.0], [0.625, 0.375]]])
    trans = np.array([[[0.5, 0.5], [0.25, 0.75]], [[0.75, 0.25], [0.0, 1.0]]])
    return Channel(ChannelSpec(2, 2, 2, q, name="dyadic"),
                   StateKernel("markov1", 2, 2, table=trans, init=np.array([0.375, 0.625])))


def _eighths(u):
    return (np.floor(u * 7.0) + 1.0) / 8.0


def _spy_draws(monkeypatch, change=lambda u: u):
    """Route ``_draw_uniforms`` through ``change`` and record each call's
    trial ids, first position and width."""
    calls = []
    real = vlc_sim._draw_uniforms

    def spy(seed, trials, first, width):
        calls.append((np.asarray(trials).tolist(), first, width))
        return change(real(seed, trials, first, width))

    monkeypatch.setattr(vlc_sim, "_draw_uniforms", spy)
    return calls


def test_draws_on_a_cumulative_entry_go_to_the_lower_index(monkeypatch):
    # ties between a draw and a cumulative state or output probability go
    # to the first index whose cumulative mass reaches the draw, as
    # searchsorted(side="left") in the per-trial loop
    calls = _spy_draws(monkeypatch, _eighths)

    def draw(seed, t, width):
        return _eighths(oracles.fresh_trial_uniforms(seed, t, width))

    ch = _dyadic_channel()
    for sc in _schemes(ch, shapes=((2, 2, 2, 3), (4, 2, 2, 2))):
        calls.clear()
        args = (sc, ch, 200, 1, 0)
        assert _simulate_generic(*args) == oracles.loop_simulate_generic(*args, draw=draw), sc
        assert any(first > sc.max_uses for _, first, _ in calls)  # outputs too went through


@quiet
@pytest.mark.parametrize("name", FILES + RANDOM)
def test_only_a_channel_with_states_draws_state_uniforms(name, monkeypatch):
    # positions 1..N hold the state uniforms; a single-state table has no
    # column that can count one, so no state position is computed
    ch = _channel(name)
    calls = _spy_draws(monkeypatch)
    for sc in _schemes(ch, shapes=((2, 2, 2, 3), (4, 2, 2, 2))):
        calls.clear()
        _simulate_generic(sc, ch, 50, 2, 0)
        n = sc.max_uses
        reads_state = any(first <= n and first + width > 1 for _, first, width in calls)
        assert reads_state == (not ch.spec.is_dmc()), sc


@quiet
@pytest.mark.parametrize("name", ["bsc01", "flip2", "markov_s4_y3"])
def test_a_block_draws_only_for_the_trials_still_running(name, monkeypatch):
    # block b's positions are computed for exactly the trials that did not
    # stop in blocks 0..b-1, each trial's stop read off the per-trial loop
    # run on that trial alone
    ch = _channel(name)
    calls = _spy_draws(monkeypatch)
    seed, start, n = 3, 19_990, 40
    trial_ids = range(start, start + n)
    later = 0
    for sc in _schemes(ch, shapes=((2, 2, 2, 3), (4, 2, 2, 2), (2, 1, 1, 3))):
        calls.clear()
        _simulate_generic(sc, ch, n, seed, start)
        block, n_uses = sc.block_len, sc.max_uses
        stop = {t: oracles.loop_simulate_generic(sc, ch, 1, seed, t)[1] // block
                for t in trial_ids}
        output_blocks = []
        for ids, first, width in calls:
            if first == 0:
                assert (ids, width) == (list(trial_ids), 1)  # the message draw
                continue
            b, offset = divmod((first - 1) % n_uses, block)
            assert (offset, width) == (0, block), (first, width)
            assert ids == [t for t in trial_ids if stop[t] > b], (sc, b)
            if first > n_uses:
                output_blocks.append(b)
        assert output_blocks == list(range(int(max(stop.values())))), sc
        later += 0 < sum(stop[t] > 1 for t in trial_ids) < n
    assert later  # some scheme stops trials in block 1 and runs others on


def test_columns_leave_out_what_never_counts_a_draw():
    # a draw is at most 1.0, so a column at or above 1.0 in every row never
    # counts one; a column below 1.0 in a single row is kept
    cum = np.array([[[0.25, 1.0, 1.0], [0.5, 0.75, 1.0]],
                    [[1.0, 1.0, 1.0], [0.0, 1.0, 1.0 + 2**-52]]])
    assert [c.tolist() for c in vlc_sim._columns(cum)] == [
        [0.25, 0.5, 1.0, 0.0], [1.0, 0.75, 1.0, 1.0]]
    short = np.cumsum(np.full((1, 1, 10), 0.1), axis=2)  # ends at 1 - 2**-53
    assert len(vlc_sim._columns(short)) == 10
    assert vlc_sim._columns(np.ones((1, 1, 1))) == ()  # a single-state table
    # with no column every count is 0, and the draws are not read
    got = vlc_sim._count_below((), np.array([0, 3, 2]), None)
    assert got.dtype == np.int64 and got.tolist() == [0, 0, 0]


def _cumulative_tables():
    """Cumulative output tables with |Y| = 1, 2 and 3 (zeros, hence repeated
    entries, included), and the cumulative state tables of a markov1 and a
    history_table kernel."""
    rng = np.random.default_rng(5)
    for y_size in (1, 2, 3):
        q = rng.dirichlet(np.ones(y_size), size=(3, 2))
        if y_size > 1:
            q[::2, :, 0] = 0.0
        yield np.cumsum(q / q.sum(axis=2, keepdims=True), axis=2)
    for kernel in (_channel("markov_s4_y3").kernel, _channel("histk2").kernel):
        for t in range(1, (kernel.horizon_cap() or 2) + 1):
            yield np.cumsum(kernel.use_table(t), axis=2)


def test_column_count_is_searchsorted_left():
    rng = np.random.default_rng(11)
    for cum in _cumulative_tables():
        flat = cum.reshape(-1, cum.shape[-1])
        rows = rng.integers(0, flat.shape[0], size=400)
        on_entry = flat[rows, rng.integers(0, flat.shape[1], size=rows.size)]
        for u in (rng.random(rows.size), on_entry):
            want = [np.searchsorted(flat[r], v, side="left") for r, v in zip(rows, u)]
            got = vlc_sim._count_below(vlc_sim._columns(cum), rows, u)
            assert got.tolist() == want, cum.shape
