"""Differential tests of the level-array joint-law engine and the memoized
capacity search against the loops they replaced (``oracles.loop_*``), and
of the law's arrays and the node table's accessors against the dict engine
and views they replaced (``oracles.dict_forward_joint``, ``posteriors``,
``loop_h_process`` and ``loop_drift_levels``).

Every comparison is exact: trajectories in the same order with ``==``
probabilities, one array entry per dict entry in the dict's key order, and
values with the same bytes.  The level arrays keep the loops' products and
summation order, so any difference is a defect, not rounding.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

import oracles
from fbound import bound_engine, channel_model, cli, drift_verify
from fbound.bound_engine import (
    SearchConfig,
    _policy_row_keys,
    _simplex_grid,
    capacity_bound,
    encoder_policy_from_tables,
)
from fbound.channel_model import (
    BudgetExceededError,
    Channel,
    ChannelSpec,
    InputPolicy,
    SchemaError,
    StateKernel,
    forward_joint,
    load_channel,
    repetition_encoder,
    rotating_encoder,
    uniform_behavioral_policy,
    uniform_channel,
)
from conftest import REPO
from fbound.info_measures import node_table

CHANNEL_FILES = sorted(p.stem for p in (REPO / "channels").glob("*.json"))
TABLES = ("node_prob", "w_post", "xy_node", "wy_node")
ENGINES = (oracles.loop_forward_joint, oracles.dict_forward_joint)


@functools.lru_cache(maxsize=None)
def _channel(name):
    if name == "wide":
        return _wide_channel()
    if name == "uniform32":
        return uniform_channel(3, 2)
    return load_channel(str(REPO / "channels" / f"{name}.json"))


def _wide_channel():
    """Three inputs, two states, four outputs, zeros in the channel and in
    the state kernel: unequal alphabet sizes and pruned branches at every
    factor."""
    q = np.array([
        [[0.5, 0.5, 0.0, 0.0], [0.0, 0.25, 0.25, 0.5], [1.0, 0.0, 0.0, 0.0]],
        [[0.0, 0.0, 0.0, 1.0], [0.25, 0.25, 0.25, 0.25], [0.125, 0.0, 0.375, 0.5]],
    ])
    table = np.array([
        [[1.0, 0.0], [0.75, 0.25], [0.5, 0.5]],
        [[0.125, 0.875], [0.0, 1.0], [0.625, 0.375]],
    ])
    kernel = StateKernel("markov1", 2, 3, table=table, init=np.array([0.875, 0.125]))
    return Channel(ChannelSpec(3, 4, 2, q, name="wide"), kernel)


def _max_horizon(name):
    if name == "histk2":
        return 2
    return 3 if name == "wide" else 4


def _policies(ch, horizon, seed):
    """Behavioral laws (uniform rows and random simplex-grid rows, with
    zeros) and message-form laws for M = 1..4 (repetition, rotating and
    random full-table encoders)."""
    x, y = ch.spec.x_size, ch.spec.y_size
    rng = np.random.default_rng(seed)
    grid = _simplex_grid(x, 4)
    rows = {k: grid[rng.integers(len(grid))] for k in _policy_row_keys(ch, horizon)}
    out = [
        uniform_behavioral_policy(ch, horizon),
        InputPolicy(horizon=horizon, x_size=x, y_size=y, rows=rows),
    ]
    for m in (1, 2, 3, 4):
        if m <= x:
            out.append(repetition_encoder(m, x, horizon, y))
        out.append(rotating_encoder(m, x, horizon, y))
        tables = tuple(
            tuple(tuple(int(v) for v in rng.integers(x, size=y ** (t - 1))) for _ in range(m))
            for t in range(1, horizon + 1)
        )
        out.append(encoder_policy_from_tables(tables, m, x, y, horizon))
    return out


def _stacked(levels, like):
    """The values of a tuple of level dicts, in order, as one array shaped
    like ``like``."""
    values = [v for level in levels for v in level.values()]
    return np.array(values, dtype=float).reshape((len(values),) + like.shape[1:])


def assert_same_law(new, old):
    """A law's arrays against a ``DictLaw``: the same trajectories, the same
    histories in the same order, and the same bytes in every table entry."""
    assert list(new.trajectories.items()) == list(old.trajectories.items())
    assert (new.horizon, new.messages) == (old.horizon, old.messages)
    assert new.total_mass() == old.total_mass()
    assert new.sizes == tuple(len(level) for level in old.node_prob)
    # each node's history from its parent links, level by level
    hist = []
    for parent, symbol in zip(new.node_parent.tolist(), new.node_symbol.tolist()):
        hist.append(() if parent < 0 else hist[parent] + (symbol,))
    assert hist == [k for level in old.node_prob for k in level]
    table = node_table(new)
    assert [table.history(i) for i in range(len(hist))] == hist
    for name in TABLES:
        got = getattr(new, name)
        levels = getattr(old, name)[1:] if name in ("xy_node", "wy_node") else getattr(old, name)
        want = _stacked(levels, got)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name


def assert_same_accessors(law, old):
    """The node table's per-history columns against the dict views: one
    entry per key of ``posteriors``, ``loop_h_process`` and
    ``loop_drift_levels``, in key order, with the same bytes."""
    table = node_table(law)
    assert table.posterior.tobytes() == _stacked(old.w_post, table.posterior).tobytes()
    assert table.leaf_prob.tobytes() == _stacked(old.node_prob[-1:], table.leaf_prob).tobytes()
    if not law.is_message_form:
        return
    proc = oracles.loop_h_process(old)
    h = [v for level in proc.levels for _, v in level.values()]
    assert table.h.tobytes() == np.array(h, dtype=float).reshape(table.h.shape).tobytes()
    post = oracles.posteriors(old)
    assert table.step.tobytes() == _stacked(post.step[1:], table.step).tobytes()
    maps = [post.map_message(t, k) for t in range(law.horizon) for k in post.prior[t]]
    assert np.argmax(table.posterior[: table.prob.size], axis=1).tolist() == maps
    mi, kl = oracles.loop_drift_levels(old)
    assert table.node_mi.tobytes() == _stacked(mi[1:], table.node_mi).tobytes()
    assert table.node_kl.tobytes() == _stacked(kl[1:], table.node_kl).tobytes()


def assert_same_links(law):
    """The node table's child and path-prefix links against the inverse
    map over the full output tree (``oracles.position_links``)."""
    table = node_table(law)
    for new, old in zip((table.children, table.path_nodes), oracles.position_links(law)):
        assert new.dtype == old.dtype and np.array_equal(new, old)


CASES = [
    (name, h)
    for name in CHANNEL_FILES + ["wide", "uniform32"]
    for h in range(0, _max_horizon(name) + 1)
]


@pytest.mark.parametrize("name,horizon", CASES, ids=[f"{n}-H{h}" for n, h in CASES])
def test_forward_joint_matches_the_recursion(name, horizon):
    ch = _channel(name)
    for policy in _policies(ch, horizon, seed=horizon):
        law = forward_joint(ch, policy, horizon)
        for engine in ENGINES:
            assert_same_law(law, engine(ch, policy, horizon))
        assert_same_accessors(law, oracles.dict_forward_joint(ch, policy, horizon))
        assert_same_links(law)


@pytest.mark.parametrize("pass_size", [1, 40, 100])
def test_level_tables_counted_in_several_passes_match(pass_size, monkeypatch):
    # one level per pass, and passes that split the levels unevenly
    monkeypatch.setattr(channel_model, "_PASS_SIZE", pass_size)
    for name, horizon in [("flip2", 3), ("wide", 3), ("z01", 4), ("histk2", 2)]:
        ch = _channel(name)
        for policy in _policies(ch, horizon, seed=0):
            assert_same_law(forward_joint(ch, policy, horizon),
                            oracles.loop_forward_joint(ch, policy, horizon))


@pytest.mark.filterwarnings("ignore:invalid value encountered in divide:RuntimeWarning")
def test_underflowed_trajectories_are_kept_as_the_recursion_keeps_them():
    # pruning looks at the factors, not the product: a trajectory whose
    # probability underflows to 0.0 stays, and its 0/0 table rows are NaN
    q = np.array([[[1 - 1e-200, 1e-200], [1e-200, 1 - 1e-200]]])
    kernel = StateKernel("memoryless", 1, 2, table=np.array([1.0]))
    ch = Channel(ChannelSpec(2, 2, 1, q, name="faint"), kernel)
    for policy in (uniform_behavioral_policy(ch, 3), repetition_encoder(2, 2, 3)):
        law = forward_joint(ch, policy, 3)
        assert 0.0 in law.trajectories.values()
        for engine in ENGINES:
            assert_same_law(law, engine(ch, policy, 3))
        assert_same_accessors(law, oracles.dict_forward_joint(ch, policy, 3))
        assert_same_links(law)


def test_forward_joint_matches_on_laws_shorter_than_the_policy():
    ch = _channel("flip2")
    policy = rotating_encoder(4, 2, 4)
    for horizon in (1, 2, 3):
        assert_same_law(forward_joint(ch, policy, horizon),
                        oracles.loop_forward_joint(ch, policy, horizon))


@pytest.mark.parametrize("name,horizon", [("bsc01", 3), ("flip2", 3), ("wide", 2), ("z01", 4),
                                          ("histk2", 2)])
def test_induced_behavioral_matches_the_trajectory_loop(name, horizon):
    # rows in the same order with the same bytes: each row sums its
    # trajectories in trajectory order
    ch = _channel(name)
    for policy in _policies(ch, horizon, seed=1):
        if not policy.is_message_form:
            continue
        got = list(policy.induced_behavioral(ch).rows.items())
        want = list(oracles.loop_induced_behavioral(policy, ch).rows.items())
        assert [k for k, _ in got] == [k for k, _ in want]
        assert np.array([v for _, v in got]).tobytes() == np.array([v for _, v in want]).tobytes()


@pytest.mark.parametrize("argv", [
    ["bound-capacity", "--channel", "flip2", "--horizon", "2", "--stopping", "all",
     "--restarts", "0"],
    ["bound-exponent", "--channel", "bsc01", "--rate", "0.25", "--horizon", "2",
     "--messages", "2"],
    ["verify", "--channel", "bsc02", "--suite", "all", "--horizon", "11"],
], ids=["capacity", "exponent", "verify"])
def test_commands_never_build_the_trajectory_dict(argv, monkeypatch, capsys):
    built, laws = [], []
    real_trajectories = channel_model.JointLaw.trajectories.func
    real_forward_joint = channel_model.forward_joint

    def counting_forward_joint(*args, **kwargs):
        laws.append(None)
        return real_forward_joint(*args, **kwargs)

    def counting_trajectories(law):
        built.append(None)
        return real_trajectories(law)

    monkeypatch.setattr(channel_model.JointLaw, "trajectories", property(counting_trajectories))
    for module in (bound_engine, cli, drift_verify):
        monkeypatch.setattr(module, "forward_joint", counting_forward_joint)
    argv = [str(REPO / "channels" / f"{a}.json") if argv[i - 1] == "--channel" else a
            for i, a in enumerate(argv)]
    assert cli.main(argv) in (0, 1)
    capsys.readouterr()
    assert laws and not built


@pytest.mark.parametrize("span", [1, 3, 50, 1000])
def test_first_appearance_numbers_keys_in_order(span):
    # dense and sparse keys (span up to 25 x count), against a first-seen dict
    rng = np.random.default_rng(span)
    for count in (0, 1, 7, 40):
        keys = rng.integers(0, span, size=count)
        seen = {}
        want = [seen.setdefault(k, len(seen)) for k in keys.tolist()]
        number, first = channel_model._first_appearance(keys)
        assert number.tolist() == want
        assert first.tolist() == [want.index(i) for i in range(len(seen))]


def test_channel_files_are_all_covered():
    assert len(CHANNEL_FILES) == 8


@pytest.mark.parametrize("engine", [forward_joint, oracles.loop_forward_joint],
                         ids=["level_arrays", "recursion"])
@pytest.mark.parametrize("name,make", [
    ("flip2", lambda ch: uniform_behavioral_policy(ch, 3)),
    ("z01", lambda ch: rotating_encoder(4, 2, 3)),
    ("perfect2", lambda ch: repetition_encoder(2, 2, 3)),
])
def test_budget_boundary_is_the_exact_trajectory_count(engine, name, make):
    ch = _channel(name)
    policy = make(ch)
    count = len(engine(ch, policy, 3).trajectories)
    assert len(engine(ch, policy, 3, budget=count).trajectories) == count
    with pytest.raises(BudgetExceededError):
        engine(ch, policy, 3, budget=count - 1)


@pytest.mark.parametrize("engine", [forward_joint, oracles.loop_forward_joint],
                         ids=["level_arrays", "recursion"])
def test_zero_horizon_law_is_one_empty_trajectory_per_message(engine):
    ch = _channel("flip2")
    law = engine(ch, rotating_encoder(4, 2, 0), 0)
    assert list(law.trajectories.items()) == [((w, (), (), ()), 0.25) for w in range(4)]
    assert len(engine(ch, rotating_encoder(4, 2, 0), 0, budget=4).trajectories) == 4
    with pytest.raises(BudgetExceededError):
        engine(ch, rotating_encoder(4, 2, 0), 0, budget=3)


def test_negative_horizon_is_a_schema_error():
    ch = _channel("bsc01")
    with pytest.raises(SchemaError, match="horizon must be >= 0"):
        forward_joint(ch, repetition_encoder(2, 2, 1), -1)


def test_budget_error_says_how_far_the_run_got():
    ch = _channel("flip2")
    with pytest.raises(BudgetExceededError) as err:
        forward_joint(ch, uniform_behavioral_policy(ch, 3), 3, budget=10)
    # 8 children at step 1, 64 at step 2
    assert str(err.value) == "64 live trajectories at step 2 of horizon 3 exceed the trajectory budget 10"


@pytest.mark.parametrize("bad", [-1, 2, 1.0])
def test_encoder_input_outside_the_alphabet_is_a_schema_error(bad):
    ch = _channel("bsc01")
    policy = InputPolicy(horizon=2, x_size=2, y_size=2, messages=2,
                         encoder=lambda t, w, y: bad if t == 2 else w)
    with pytest.raises(SchemaError, match="encoder input outside"):
        forward_joint(ch, policy, 2)


# ---------------------------------------------------------------------------
# the capacity search and its memo
# ---------------------------------------------------------------------------


CAPACITY_CASES = [
    ("flip2", 3, 0), ("histk2", 2, 0), ("bsc01", 3, 0), ("z01", 3, 0),
    ("flip2", 2, 8), ("histk2", 2, 8), ("bsc01", 2, 8), ("z01", 2, 8),
]


@pytest.mark.parametrize("name,horizon,restarts", CAPACITY_CASES,
                         ids=[f"{n}-H{h}-r{r}" for n, h, r in CAPACITY_CASES])
def test_capacity_bound_json_matches_the_memo_free_loop(name, horizon, restarts):
    ch = _channel(name)
    cfg = SearchConfig(stopping="all", restarts=restarts, seed=0)
    assert capacity_bound(ch, horizon, cfg).to_json() == oracles.loop_capacity_bound(ch, horizon, cfg).to_json()


def _count_laws(monkeypatch, ch, horizon, cfg):
    calls = []
    real = bound_engine.forward_joint

    def counting(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(bound_engine, "forward_joint", counting)
    capacity_bound(ch, horizon, cfg)
    return len(calls)


def test_capacity_search_builds_each_policy_law_once(monkeypatch):
    # flip2: 1 start + 21 row keys x 16 other grid points in the one sweep
    # that finds no improvement; the neighbour-gap loop rebuilds nothing
    flip2 = _channel("flip2")
    cfg = SearchConfig(stopping="all", restarts=0, seed=0)
    assert _count_laws(monkeypatch, flip2, 3, cfg) == 337
    histk2 = _channel("histk2")
    assert _count_laws(monkeypatch, histk2, 2, SearchConfig(stopping="all", seed=0)) == 1017
