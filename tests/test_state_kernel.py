"""The hidden-state step: ``StateKernel.rows`` and ``advance`` read the law
the kernel's definition gives (``oracles._state_law``), and ``predict``
chained through a law gives the state mass its trajectories sum to."""

from __future__ import annotations

import itertools
from collections import defaultdict

import numpy as np
import pytest

import oracles
from conftest import REPO
from fbound.channel_model import (
    Channel,
    ChannelSpec,
    InputPolicy,
    SchemaError,
    StateKernel,
    forward_joint,
    load_channel,
)


def _markov3(seed: int = 3) -> Channel:
    """A three-state markov1 channel over binary inputs and outputs whose
    state transitions depend on the input."""
    rng = np.random.default_rng(seed)
    trans = rng.dirichlet(np.ones(3), size=(3, 2))
    assert not np.allclose(trans[:, 0], trans[:, 1])
    return Channel(
        ChannelSpec(2, 2, 3, rng.dirichlet(np.ones(2), size=(3, 2)), name="markov3"),
        StateKernel("markov1", 3, 2, table=trans, init=rng.dirichlet(np.ones(3))),
    )


def _channel(name: str) -> Channel:
    return _markov3() if name == "markov3" else load_channel(str(REPO / "channels" / f"{name}.json"))


def _random_encoder(rng, m: int, horizon: int):
    """A deterministic encoder whose input depends on the message, the time
    and the whole output history, drawn at random."""
    table = rng.integers(0, 2, size=(horizon + 1, m, 2**horizon))

    def enc(t, w, y_hist):
        return int(table[t, w, int("".join(map(str, y_hist)) or "0", 2)])

    return enc


@pytest.mark.parametrize("name,seed", [("flip2", 0), ("flip2", 1), ("markov3", 2),
                                       ("markov3", 3)])
def test_predict_chained_through_a_law_is_its_state_mass(name, seed):
    ch = _channel(name)
    kernel, q = ch.kernel, ch.spec.q
    m, horizon = 3, 4
    enc = _random_encoder(np.random.default_rng(seed), m, horizon)
    law = forward_joint(ch, InputPolicy(horizon, 2, 2, messages=m, encoder=enc), horizon)
    # P(s_t, y^{t-1} | w), summed from the trajectories (w, x^N, s^N, y^N)
    want = defaultdict(lambda: np.zeros(kernel.s_size))
    for (w, _, s, y), p in law.trajectories.items():
        for t in range(1, horizon + 1):
            want[t, w, y[: t - 1]][s[t - 1]] += p * m
    for w in range(m):
        # per output history: the mass over the last state and the last input
        nodes = {(): (np.ones((1, 1)), 0)}
        for t in range(1, horizon + 1):
            ys = list(nodes)
            mass = np.vstack([nodes[y][0] for y in ys])
            got = kernel.predict(t, mass, np.array([nodes[y][1] for y in ys]))
            assert got.shape == (len(ys), kernel.s_size)
            for y, row in zip(ys, got):
                np.testing.assert_allclose(row, want[t, w, y], rtol=0, atol=1e-13)
            nodes = {}
            for y, row in zip(ys, got):
                x = enc(t, w, y)
                for b in range(2):
                    nodes[y + (b,)] = ((row * q[:, x, b])[None], x)


@pytest.mark.parametrize("name", ["histk2", "markov3", "bsc01"])
def test_rows_and_advance_read_the_kernels_definition(name):
    kernel = _channel(name).kernel
    sn, xn = kernel.s_size, kernel.x_size
    for t in range(1, (kernel.horizon_cap() or 4) + 1):
        hists = list(itertools.product(itertools.product(range(sn), repeat=t - 1),
                                       itertools.product(range(xn), repeat=t - 1)))
        s_hist = np.array([s for s, _ in hists], dtype=np.intp).reshape(len(hists), t - 1)
        x_hist = np.array([x for _, x in hists], dtype=np.intp).reshape(len(hists), t - 1)
        s_mem = x_mem = np.zeros(len(hists), dtype=np.intp)
        for u in range(1, t):
            _, s_mem, x_mem = kernel.rows(u, s_mem, x_mem)
            s_mem, x_mem = kernel.advance(s_mem, x_mem, s_hist[:, u - 1], x_hist[:, u - 1])
        row, _, _ = kernel.rows(t, s_mem, x_mem)
        got = kernel.use_table(t).reshape(-1, sn)[row]
        want = [oracles._state_law(kernel, t, s, x) for s, x in hists]
        assert np.array_equal(got, want), (name, t)


def test_indices_stay_within_the_table_over_a_long_walk():
    kernel = _markov3().kernel
    rng = np.random.default_rng(0)
    s_mem = x_mem = np.zeros(50, dtype=np.intp)
    s = x = None
    for t in range(1, 71):
        row, s_mem, x_mem = kernel.rows(t, s_mem, x_mem)
        s_rows, x_rows = kernel.use_table(t).shape[:2]
        assert (s_mem < s_rows).all() and (x_mem < x_rows).all() and (row < s_rows * x_rows).all()
        if t > 1:  # the row of the last state and input
            assert np.array_equal(kernel.use_table(t).reshape(-1, 3)[row], kernel.table[s, x])
        s, x = rng.integers(0, 3, size=50), rng.integers(0, 2, size=50)
        s_mem, x_mem = kernel.advance(s_mem, x_mem, s, x)


def test_predict_refuses_a_longer_memory():
    kernel = _channel("histk2").kernel
    # use 1 has no memory: the total mass times the state law
    got = kernel.predict(1, np.array([[0.25], [0.5]]), np.zeros(2, dtype=np.intp))
    assert np.array_equal(got, [[0.15, 0.1], [0.3, 0.2]])
    with pytest.raises(SchemaError, match="history_table"):
        kernel.predict(2, np.full((1, 2), 0.5), np.zeros(1, dtype=np.intp))
