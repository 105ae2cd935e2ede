"""The node table's bulk columns against the scalar functions they replace.

``NodeTable.node_mi``, ``x_kl``/``node_kl`` and ``h`` are array passes over
the law's arrays, and lemma 5's per-message divergences go through the same
row kernel.  Each must equal, bit for bit (``np.array_equal`` with NaN equal
to NaN), the per-history loop of the public ``mutual_information``, ``kl``
and ``entropy``, and raise the error that loop raised first.
"""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np
import pytest

import oracles
from conftest import REPO
from fbound import drift_verify as dv
from fbound import info_measures as im
from fbound.channel_model import (
    Channel,
    ChannelSpec,
    DistributionError,
    InputPolicy,
    StateKernel,
    forward_joint,
    load_channel,
    repetition_encoder,
    rotating_encoder,
)

CHANNELS = tuple(sorted(p.stem for p in (REPO / "channels").glob("*.json")))


def _channel(name):
    if name == "faint":
        # the crossover of test_cli's faint channel: pa * pb falls below
        # the normal range, where mutual_information divides by each factor
        q = np.array([[[1.0, 1e-200], [1e-200, 1.0]]])
        return Channel(ChannelSpec(2, 2, 1, q, name="faint"),
                       StateKernel("memoryless", 1, 2, table=np.array([1.0])))
    return load_channel(str(REPO / "channels" / f"{name}.json"))


def _random_channel(x, y, seed):
    """A memoryless channel with random rows, about a third of them zero."""
    rng = np.random.default_rng(seed)
    q = rng.dirichlet(np.ones(y), size=x) * (rng.random((x, y)) > 0.3)
    q[q.sum(axis=1) == 0.0, 0] = 1.0
    q /= q.sum(axis=1, keepdims=True)
    return Channel(ChannelSpec(x, y, 1, q[None], name=f"random{x}x{y}"),
                   StateKernel("memoryless", 1, x, table=np.array([1.0])))


def _random_encoder(m, x, horizon, y, seed):
    """A deterministic encoder with a random input per (t, w, y^{t-1})."""
    rng = np.random.default_rng(seed)
    tables = tuple(rng.integers(x, size=(m, y ** (t - 1))) for t in range(1, horizon + 1))
    return InputPolicy(horizon=horizon, x_size=x, y_size=y, messages=m, tables=tables)


def _random_behavioral(ch, horizon, seed):
    """Random input rows on every history, about a third of the entries 0."""
    rng = np.random.default_rng(seed)
    x, y = ch.spec.x_size, ch.spec.y_size
    rows = []
    for t in range(1, horizon + 1):
        for _ in range((x * y) ** (t - 1)):  # one row per (x^{t-1}, y^{t-1})
            row = rng.dirichlet(np.ones(x)) * (rng.random(x) > 0.3)
            row[0] += row.sum() == 0.0
            rows.append(row / row.sum())
    return InputPolicy(horizon=horizon, x_size=x, y_size=y, rows=rows)


def _max_horizon(ch, cap=4):
    return min(ch.kernel.horizon_cap() or cap, cap)


def _loop_x_kl(law):
    x_kl = np.full(law.xy_node.shape[:2], np.nan)
    for e, xy in enumerate(law.xy_node):
        nu = xy.sum(axis=1)
        real = np.flatnonzero(nu > 0.0)
        if real.size:
            x_star = real[np.argmax(nu[real])]
            x_kl[e, real] = [im.kl(xy[x_star] / nu[x_star], xy[x] / nu[x]) for x in real]
    return x_kl


# each column by the per-history loop the node table replaced
LOOP_COLUMNS = {
    "node_mi": lambda law: np.array([im.mutual_information(xy) for xy in law.xy_node],
                                    dtype=float),
    "x_kl": _loop_x_kl,
    "node_kl": lambda law: np.array([oracles._loop_worst_row_kl(xy) for xy in law.xy_node],
                                    dtype=float),
    "h": lambda law: np.array([im.entropy(mu) for mu in law.w_post], dtype=float),
}


def loop_columns(law):
    """(node_mi, x_kl, node_kl, h) by the per-history loops the node table
    replaced; h is None for a behavioral law."""
    mi, x_kl, node_kl = (LOOP_COLUMNS[c](law) for c in ("node_mi", "x_kl", "node_kl"))
    return mi, x_kl, node_kl, LOOP_COLUMNS["h"](law) if law.is_message_form else None


def assert_columns_match(law):
    table = im.node_table(law)
    mi, x_kl, node_kl, h = loop_columns(law)
    assert np.array_equal(table.node_mi, mi)
    assert np.array_equal(table.mi, table.prob * mi)
    assert np.array_equal(table.x_kl, x_kl, equal_nan=True)
    assert np.array_equal(table.node_kl, node_kl)
    if h is not None:
        assert np.array_equal(table.h, h)
    return table


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except Exception as e:  # noqa: BLE001 - the error itself is compared
        return "error", type(e).__name__, str(e)


def _same_outcome(got, want):
    if got[0] == want[0] == "ok":
        return np.array_equal(got[1], want[1], equal_nan=True)
    return got == want


# --- the columns on laws ----------------------------------------------------


@pytest.mark.parametrize("name", CHANNELS)
def test_columns_match_the_loops_on_every_channel_file(name):
    ch = _channel(name)
    x, y = ch.spec.x_size, ch.spec.y_size
    pairwise = False
    for m, h in itertools.product((2, 4, 8, 16), range(1, _max_horizon(ch) + 1)):
        table = assert_columns_match(forward_joint(ch, rotating_encoder(m, x, h, y), h))
        # more than 8 positive posterior entries: numpy sums those pairwise
        pairwise |= bool(((table.posterior > 0.0).sum(axis=1) > 8).any())
    assert pairwise
    for m in (1, 2):
        assert_columns_match(forward_joint(ch, repetition_encoder(m, x, 2, y), 2))


@pytest.mark.parametrize("name", CHANNELS)
def test_columns_match_the_loops_on_random_policies(name):
    ch = _channel(name)
    x, y = ch.spec.x_size, ch.spec.y_size
    top = _max_horizon(ch, 3)
    for seed in range(6):
        h = 1 + seed % top
        m = (2, 3, 5, 8, 9, 16)[seed]
        assert_columns_match(forward_joint(ch, _random_encoder(m, x, h, y, seed), h))
        assert_columns_match(forward_joint(ch, _random_behavioral(ch, h, seed), h))


@pytest.mark.parametrize("x,y", [(3, 4), (4, 4), (2, 10), (3, 9)])
def test_columns_match_the_loops_on_wide_alphabets(x, y):
    # 9 or more cells per joint and 9 or more outputs per row reach numpy's
    # pairwise sums, which the row-major and the positive-count reductions
    # must not take
    for seed in range(4):
        ch = _random_channel(x, y, seed)
        for m in (2, 9, 16):
            assert_columns_match(forward_joint(ch, rotating_encoder(m, x, 2, y), 2))
        assert_columns_match(forward_joint(ch, _random_encoder(16, x, 2, y, seed), 2))
        assert_columns_match(forward_joint(ch, _random_behavioral(ch, 2, seed), 2))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the law's 0/0 posteriors at H = 4
def test_faint_channel_takes_the_underflow_branch():
    ch = _channel("faint")
    underflow = []
    for m, h in itertools.product((2, 4), (1, 2, 3, 4)):
        law = forward_joint(ch, rotating_encoder(m, 2, h), h)
        xy = law.xy_node
        den = xy.sum(axis=2, keepdims=True) * xy.sum(axis=1, keepdims=True)
        underflow.append(bool(((xy > 0.0) & (den < im._NORMAL_MIN)).any()))
        assert_columns_match(law)
    assert any(underflow)


def test_an_unrealizable_input_is_nan():
    for name in ("bsc01", "flip2", "z01"):
        law = forward_joint(_channel(name), repetition_encoder(1, 2, 3), 3)
        table = assert_columns_match(law)
        assert np.isnan(table.x_kl[:, 1]).all() and (table.x_kl[:, 0] == 0.0).all()


@pytest.mark.parametrize("name", ["z01", "perfect2"])
def test_a_support_mismatch_is_inf(name):
    # input 1 is the more likely one, and z01's row 1 puts mass where row 0
    # puts none
    rows = [(0.25, 0.75)] * (1 + 4 + 16)
    law = forward_joint(_channel(name), InputPolicy(3, 2, 2, rows=rows), 3)
    table = assert_columns_match(law)
    assert np.isinf(table.x_kl).any() and np.isinf(table.node_kl).any()


def test_the_columns_call_no_scalar_function(monkeypatch):
    calls = {"mutual_information": 0, "kl": 0, "entropy": 0}
    for fn, scalar in [(fn, getattr(im, fn)) for fn in calls]:
        def counting(*args, fn=fn, scalar=scalar):
            calls[fn] += 1
            return scalar(*args)
        monkeypatch.setattr(im, fn, counting)
    law = forward_joint(_channel("bsc01"), rotating_encoder(4, 2, 6), 6)
    table = im.node_table(law)
    assert table.node_mi.size and table.x_kl.size and table.node_kl.size and table.h.size
    assert calls == {"mutual_information": 0, "kl": 0, "entropy": 0}
    # lemma 5 calls kl only for d_max, once per ordered pair of channel rows
    assert dv.verify_lemma5_kl_transfer(law, 0.9).count > 4
    assert calls == {"mutual_information": 0, "kl": 4, "entropy": 0}


# --- lemma 5 ----------------------------------------------------------------


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("name", ["bsc01", "bsc02", "flip2", "histk2", "z01", "faint"])
def test_lemma5_matches_the_per_message_loop(name):
    ch = _channel(name)
    cases = 0
    for m, h in itertools.product((2, 4, 8), range(2, _max_horizon(ch) + 1)):
        law = forward_joint(ch, rotating_encoder(m, 2, h), h)
        for eps, mutate in itertools.product((0.3, 0.9, 1.0), (None, "halve_kl_drift")):
            got = dv.verify_lemma5_kl_transfer(law, eps, mutate=mutate)
            want = oracles.loop_verify_lemma5_kl_transfer(law, eps, mutate=mutate)
            assert repr(got) == repr(want)
            cases += got.count
    assert cases > 0


# --- the row kernels and their checks ----------------------------------------


def _corrupt(rng, rows):
    """Rows with, now and then, a negative entry, a missed normalization
    beyond the tolerance, a NaN, or one within the tolerance."""
    rows = rows.copy()
    for i in range(rows.shape[0]):
        pick = rng.integers(12)
        if pick == 0:
            rows[i, rng.integers(rows.shape[1])] = -1e-300
        elif pick == 1:
            rows[i] *= 1.0 + rng.choice([2e-10, -2e-10])
        elif pick == 2:
            rows[i] *= 1.0 + rng.choice([5e-11, -5e-11])
        elif pick == 3:
            rows[i, rng.integers(rows.shape[1])] = np.nan
    return rows


def _random_rows(rng, n, width):
    rows = rng.dirichlet(np.ones(width), size=n) * (rng.random((n, width)) > 0.4)
    rows[rows.sum(axis=1) == 0.0, rng.integers(width)] = 1.0
    return rows / rows.sum(axis=1, keepdims=True)


def _checked(row, what):
    """``row``, or the DistributionError a distribution check raises first:
    a negative entry, then a sum off 1 by more than 1e-10."""
    if (row < 0).any():
        raise DistributionError(f"{what} has a negative entry")
    if abs(row.sum() - 1.0) > 1e-10:
        raise DistributionError(f"{what} is not normalized")
    return row


def _loop_row_kl(p, q, valid):
    out = np.full(valid.shape, np.nan)
    for i, k in zip(*np.nonzero(valid)):
        out[i, k] = oracles.kl_bits(_checked(p[i], "kl first argument"),
                                    _checked(q[i, k], "kl second argument"))
    return out


def _close_outcome(got, want):
    """The same error, or values within 1e-12 of the definition's (which
    sums in another order with ``math.log2``), with inf and NaN equal."""
    if got[0] == want[0] == "ok":
        return np.allclose(got[1], want[1], rtol=1e-12, atol=1e-12, equal_nan=True)
    return got == want


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_row_kl_matches_kl_with_its_checks():
    rng = np.random.default_rng(11)
    for _ in range(400):
        n, k, width = rng.integers(1, 6), rng.integers(1, 5), rng.integers(1, 13)
        p = _random_rows(rng, n, width)
        q = _random_rows(rng, n * k, width).reshape(n, k, width)
        q[:, 0] = p  # an exact copy, as the x* row against itself
        if rng.random() < 0.5:
            p, q = _corrupt(rng, p), _corrupt(rng, q.reshape(n * k, width)).reshape(n, k, width)
        valid = rng.random((n, k)) < 0.8
        got = _outcome(im._row_kl, p, q, valid)
        assert _close_outcome(got, _outcome(_loop_row_kl, p, q, valid))
        assert got[0] == "error" or np.array_equal(
            got[1], [[im.kl(p[i], q[i, j]) if valid[i, j] else np.nan for j in range(k)]
                     for i in range(n)], equal_nan=True)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_row_entropy_matches_entropy_with_its_checks():
    rng = np.random.default_rng(12)
    for _ in range(400):
        n, width = rng.integers(1, 8), rng.integers(1, 40)
        mu = _random_rows(rng, n, width)
        if rng.random() < 0.5:
            mu = _corrupt(rng, mu)
        got = _outcome(im._row_entropy, mu)
        want = _outcome(lambda rows: np.array(
            [oracles.entropy_bits(_checked(r, "entropy input")) for r in rows]), mu)
        assert _close_outcome(got, want)
        assert got[0] == "error" or np.array_equal(got[1], [im.entropy(r) for r in mu])


@pytest.mark.parametrize("field,row,column,message", [
    ("w_post", lambda a: a * 1.1, "h", "entropy input is not normalized"),
    ("w_post", lambda a: a * [-1.0, 1.0], "h", "entropy input has a negative entry"),
    # at the root, where both inputs have mass 1/2, input 0 becomes the most
    # likely one, with a negative entry in its row or in input 1's
    ("xy_node", lambda a: a * [[3.0, -1.0], [1.0, 1.0]], "x_kl",
     "kl first argument has a negative entry"),
    ("xy_node", lambda a: a * [[3.0, 3.0], [-1.0, 1.0]], "x_kl",
     "kl second argument has a negative entry"),
    ("xy_node", lambda a: a * [[3.0, -1.0], [1.0, 1.0]], "node_mi",
     "mutual information joint has a negative entry"),
    ("xy_node", lambda a: a * [[3.0, 3.0], [-1.0, 1.0]], "node_mi",
     "mutual information joint has a negative entry"),
])
def test_a_corrupted_row_raises_the_message_of_the_loop(field, row, column, message):
    law = forward_joint(_channel("bsc01"), rotating_encoder(2, 2, 3), 3)
    values = getattr(law, field).copy()
    values[0] = row(values[0])
    bad = dataclasses.replace(law, **{field: values})
    with pytest.raises(DistributionError, match=f"^{message}$"):
        getattr(im.node_table(bad), column)
    assert _outcome(LOOP_COLUMNS[column], bad) == ("error", "DistributionError", message)


@pytest.mark.parametrize("joint", [
    [[0.5, -1e-300], [0.25, 0.25]],
    [[0.5, 0.25], [0.5, -0.25]],
    [[-0.5, 1.0], [0.25, 0.25]],
])
def test_mutual_information_of_a_negative_joint_is_a_distribution_error(joint):
    # raised before any log2 of a negative ratio, so no RuntimeWarning either
    message = "^mutual information joint has a negative entry$"
    with pytest.raises(DistributionError, match=message):
        im.mutual_information(np.array(joint))
    with pytest.raises(DistributionError, match=message):
        im._joint_mi(np.array([[[0.25, 0.25], [0.25, 0.25]], joint]))
