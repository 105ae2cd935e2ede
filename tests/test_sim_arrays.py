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


def test_draws_on_a_cumulative_entry_go_to_the_lower_index(monkeypatch):
    # ties between a draw and a cumulative state or output probability go
    # to the first index whose cumulative mass reaches the draw, as
    # searchsorted(side="left") in the per-trial loop
    real = vlc_sim._trial_uniforms

    def eighths(seed, start, count, width):
        for row in real(seed, start, count, width):
            yield (np.floor(row * 7.0) + 1.0) / 8.0

    monkeypatch.setattr(vlc_sim, "_trial_uniforms", eighths)
    ch = _dyadic_channel()
    for sc in _schemes(ch, shapes=((2, 2, 2, 3), (4, 2, 2, 2))):
        args = (sc, ch, 200, 1, 0)
        assert _simulate_generic(*args) == oracles.loop_simulate_generic(*args), sc
