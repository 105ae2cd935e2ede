"""The seeded integer draws of the capacity search's random restarts and of
``build_yamamoto_itoh``'s codebook (``channel_model._SeededIntegers``)
against numpy's ``default_rng(seed).integers``, whose stream they
reproduce in Python integers, and against a literal table of its first
draws, which a change to numpy cannot move."""

from __future__ import annotations

import random

import numpy as np
import pytest

import oracles
from fbound.bound_engine import SearchConfig, capacity_bound
from fbound.channel_model import _SeededIntegers
from fbound.vlc_sim import build_yamamoto_itoh

SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63 + 7, 2**64 - 1]
SPANS = [1, 2, 3, 17, 2**31 + 5, 2**32, 2**32 + 3, 2**40 + 11, 2**63 - 25]


def _draw_plan(rng: random.Random, count: int):
    """(low, span, size) of ``count`` draws: spans from ``SPANS``, a few
    lows, and one in three an array draw of 0 to 4 entries, so that scalar
    and array draws of 32-bit and 64-bit spans interleave."""
    return [(rng.choice([0, 0, -3, 10]), rng.choice(SPANS),
             rng.randrange(5) if rng.random() < 1 / 3 else None) for _ in range(count)]


RANDOM_SEEDS = [random.Random(i).randrange(2**64) for i in range(24)]


@pytest.mark.parametrize("seed", SEEDS + RANDOM_SEEDS)
def test_draws_match_numpys_default_rng_integers(seed):
    plan = _draw_plan(random.Random(seed), 40)
    numpy_rng, ours = np.random.default_rng(seed), _SeededIntegers(seed)
    want = [numpy_rng.integers(low, low + span, size=size) for low, span, size in plan]
    got = [ours.integers(low, low + span) if size is None
           else [ours.integers(low, low + span) for _ in range(size)]
           for low, span, size in plan]
    assert got == [w.tolist() if isinstance(w, np.ndarray) else int(w) for w in want]


@pytest.mark.parametrize("seed", SEEDS)
def test_a_span_of_two_to_the_64_is_the_drawn_word(seed):
    # only an unsigned dtype reaches it; 32-bit draws before and after keep
    # their kept half across the whole-word draw
    numpy_rng, ours = np.random.default_rng(seed), _SeededIntegers(seed)
    want = [int(numpy_rng.integers(0, 3)), int(numpy_rng.integers(0, 2**64, dtype=np.uint64)),
            int(numpy_rng.integers(0, 3)), int(numpy_rng.integers(0, 3))]
    assert [ours.integers(0, 3), ours.integers(0, 2**64), ours.integers(0, 3),
            ours.integers(0, 3)] == want


# the first draws of spans 2, 3, 17, 2**31 + 5, 2**32, 2**32 + 3, 2**40 + 11,
# 2**63 - 25 and 5, in that order, as numpy 2.4's default_rng(seed).integers
# drew them
FIRST_DRAWS = {
    0: [1, 1, 8, 661058653, 175979945, 70985654, 894200084533, 8418684267946577424, 2],
    2**64 - 1: [1, 2, 16, 1815293182, 1539494474, 3842140849, 141798774940,
                2940766199871733704, 0],
}


@pytest.mark.parametrize("seed", sorted(FIRST_DRAWS))
def test_first_draws_are_the_recorded_stream(seed):
    ours = _SeededIntegers(seed)
    spans = [2, 3, 17, 2**31 + 5, 2**32, 2**32 + 3, 2**40 + 11, 2**63 - 25, 5]
    assert [ours.integers(0, span) for span in spans] == FIRST_DRAWS[seed]


def test_restarts_above_two_to_the_32_match_the_numpy_loop(flip2):
    # flip2's restarts beat the uniform start, so the value depends on the
    # stream; the oracle draws its restarts with numpy
    cfg = SearchConfig(restarts=3, seed=2**64 - 1)
    assert capacity_bound(flip2, 2, cfg).to_json() == \
        oracles.loop_capacity_bound(flip2, 2, cfg).to_json()


@pytest.mark.parametrize("seed", [0, 5, 2**64 - 1])
def test_a_codebook_is_numpys_rows_of_draws_without_repeats(seed, flip2):
    rng, want = np.random.default_rng(seed), []
    while len(want) < 8:
        row = tuple(rng.integers(0, flip2.spec.x_size, size=4).tolist())
        if row not in want:
            want.append(row)
    assert build_yamamoto_itoh(flip2, 8, 4, 3, 2, seed=seed).codebook == tuple(want)
