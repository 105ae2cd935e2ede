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
    _policy_row_keys,
    forward_joint,
    load_channel,
    repetition_encoder,
    rotating_encoder,
    uniform_behavioral_policy,
)
from conftest import REPO
from fbound.info_measures import node_table, rule_stack

CHANNEL_FILES = sorted(p.stem for p in (REPO / "channels").glob("*.json"))
TABLES = ("node_prob", "w_post", "xy_node", "wy_node")
ENGINES = (oracles.loop_forward_joint, oracles.dict_forward_joint)


@functools.lru_cache(maxsize=None)
def _channel(name):
    if name == "wide":
        return _wide_channel()
    if name == "zrow":
        # input 0 never gives output 0: a policy that never sends 0 reaches
        # y = 0 first, where the uniform law reaches y = 1 first
        q = np.array([[[0.0, 1.0], [0.25, 0.75]]])
        return Channel(ChannelSpec(2, 2, 1, q, name="zrow"),
                       StateKernel("memoryless", 1, 2, table=np.array([1.0])))
    if name == "zstate":
        # a state transition of probability 0 after (s, x) = (0, 0) and (1, 1)
        q = np.array([[[0.875, 0.125], [0.25, 0.75]], [[0.5, 0.5], [0.0, 1.0]]])
        table = np.array([[[1.0, 0.0], [0.5, 0.5]], [[0.25, 0.75], [0.0, 1.0]]])
        return Channel(ChannelSpec(2, 2, 2, q, name="zstate"),
                       StateKernel("markov1", 2, 2, table=table, init=np.array([0.5, 0.5])))
    if name == "faint":
        # two crossovers underflow: 1e-200 * 1e-200 is 0.0 in a product
        q = np.array([[[1.0, 1e-200], [1e-200, 1.0]]])
        return Channel(ChannelSpec(2, 2, 1, q, name="faint"),
                       StateKernel("memoryless", 1, 2, table=np.array([1.0])))
    if name == "uniform32":
        return Channel(ChannelSpec(3, 2, 1, np.full((1, 3, 2), 0.5), name="uniform"),
                       StateKernel("memoryless", 1, 3, table=np.array([1.0])))
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
    ("flip2", 3, 0, "all"), ("histk2", 2, 0, "all"), ("bsc01", 3, 0, "all"),
    ("z01", 3, 0, "all"), ("flip2", 2, 8, "all"), ("histk2", 2, 8, "all"),
    ("bsc01", 2, 8, "all"), ("z01", 2, 8, "all"),
]
# every channel file and the two zero-entry channels at H = 2, over both
# rule families
CAPACITY_CASES += [
    (name, 2, restarts, stopping)
    for name in CHANNEL_FILES + ["zrow", "zstate"]
    for stopping in ("all", "fixed")
    for restarts in (0, 2)
    if (name, 2, restarts, stopping) not in CAPACITY_CASES
]


@pytest.mark.parametrize("name,horizon,restarts,stopping", CAPACITY_CASES,
                         ids=[f"{n}-H{h}-r{r}" + ("" if st == "all" else f"-{st}")
                              for n, h, r, st in CAPACITY_CASES])
def test_capacity_bound_json_matches_the_memo_free_loop(name, horizon, restarts, stopping):
    ch = _channel(name)
    cfg = SearchConfig(stopping=stopping, restarts=restarts, seed=0)
    assert capacity_bound(ch, horizon, cfg).to_json() == oracles.loop_capacity_bound(ch, horizon, cfg).to_json()


# ---------------------------------------------------------------------------
# the batched valuation against one law per policy
# ---------------------------------------------------------------------------


BATCH_CHANNELS = ("z01", "perfect2", "flip2", "histk2", "zrow", "zstate", "wide")


def _grid_policies(ch, horizon, seed, count=24):
    """The uniform law and ``count`` policies of random search-grid rows,
    about a third of the rows a vertex (one input with probability 1)."""
    x = ch.spec.x_size
    keys = _policy_row_keys(ch, horizon)
    grid = _simplex_grid(x, 16)
    vertices = [row for row in grid if max(row) == 1.0]
    rng = np.random.default_rng(seed)
    policies = [
        tuple(vertices[rng.integers(len(vertices))] if rng.random() < 1 / 3
              else grid[rng.integers(len(grid))] for _ in keys)
        for _ in range(count)
    ]
    uniform = tuple(np.full(x, 1.0 / x))
    law = forward_joint(ch, InputPolicy(horizon=horizon, x_size=x, y_size=ch.spec.y_size,
                                        rows={k: uniform for k in keys}), horizon)
    return law, keys, policies


def _policy_law(ch, keys, policy, horizon):
    rows = dict(zip(keys, policy))
    return forward_joint(ch, InputPolicy(horizon=horizon, x_size=ch.spec.x_size,
                                         y_size=ch.spec.y_size, rows=rows), horizon)


def assert_own_tables(ch, law, keys, policies):
    """``reweighted_tables`` of every policy equals the tables of the
    policy's own law, node for node: its reachable nodes first in each
    level, in the law's order, then the unreachable ones with zeros."""
    horizon = law.horizon
    order, node_prob, xy_node = channel_model.reweighted_tables(law, np.array(policies))
    index = node_table(law)._index
    bounds = np.cumsum((0,) + law.sizes)
    for g, policy in enumerate(policies):
        own = _policy_law(ch, keys, policy, horizon)
        own_index, own_bounds = node_table(own)._index, np.cumsum((0,) + own.sizes)
        for t in range(horizon + 1):
            lo, hi, own_lo, own_hi = bounds[t], bounds[t + 1], own_bounds[t], own_bounds[t + 1]
            cut = lo + own_hi - own_lo
            assert np.array_equal(index[order[g, lo:cut]], own_index[own_lo:own_hi])
            assert node_prob[g, lo:cut].tobytes() == own.node_prob[own_lo:own_hi].tobytes()
            assert not node_prob[g, cut:hi].any()
            if t < horizon:
                assert xy_node[g, lo:cut].tobytes() == own.xy_node[own_lo:own_hi].tobytes()
                assert not xy_node[g, cut:hi].any()


@pytest.mark.parametrize("name", BATCH_CHANNELS)
def test_reweighted_tables_are_each_policys_own_tables(name):
    ch = _channel(name)
    for horizon in range(1, min(_max_horizon(name), 3) + 1):
        assert_own_tables(ch, *_grid_policies(ch, horizon, seed=horizon))


@pytest.mark.parametrize("pass_size", [1, 100])
def test_reweighted_tables_counted_in_several_passes_match(pass_size, monkeypatch):
    monkeypatch.setattr(channel_model, "_PASS_SIZE", pass_size)
    for name in ("flip2", "zrow"):
        ch = _channel(name)
        assert_own_tables(ch, *_grid_policies(ch, 3, seed=5, count=6))


@pytest.mark.parametrize("name", BATCH_CHANNELS)
def test_batched_capacity_values_equal_one_law_per_policy(name):
    ch = _channel(name)
    # wide at H = 3 has 83,521 stopping rules, each valued per policy
    for horizon in range(1, (2 if name == "wide" else min(_max_horizon(name), 3)) + 1):
        law, keys, policies = _grid_policies(ch, horizon, seed=10 + horizon)
        for stopping in ("all", "fixed"):
            rules, _ = bound_engine._capacity_rules(ch, horizon, SearchConfig(stopping=stopping))
            stack = rule_stack(rules, horizon)
            got = bound_engine._capacity_values(law, np.array(policies), rules, stack)
            want = [bound_engine._capacity_objective(ch, dict(zip(keys, p)), horizon, rules,
                                                     stack, 10**7) for p in policies]
            assert got == want


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # 0/0 at a node of underflowed mass
def test_reweighting_prunes_on_a_zero_factor_not_an_underflowed_product():
    # send 0, then 1 after y = 1: the history (1, 0) has only the product
    # 1e-200 * 1e-200, which underflows to 0.0, yet forward_joint keeps it,
    # ahead of (1, 1), as it keeps every trajectory whose factors are not 0
    ch = _channel("faint")
    for horizon in (2, 3):
        law, keys, _ = _grid_policies(ch, horizon, seed=0, count=0)
        policy = tuple((0.0, 1.0) if t > 1 and yh[-1] == 1 else (1.0, 0.0)
                       for t, _, yh in keys)
        own = _policy_law(ch, keys, policy, horizon)
        assert own.node_prob[own.sizes[0] + own.sizes[1] + 2] == 0.0
        assert_own_tables(ch, law, keys, [policy])


def test_reweighting_refuses_a_law_without_full_support():
    ch = _channel("z01")
    law, keys, policies = _grid_policies(ch, 2, seed=0, count=1)
    with pytest.raises(SchemaError, match="no zero entry"):
        channel_model.reweighted_tables(_policy_law(ch, keys, ((1.0, 0.0),) * len(keys), 2),
                                        np.array(policies))
    with pytest.raises(SchemaError, match="are not"):
        channel_model.reweighted_tables(law, np.array(policies)[:, 1:])


def _count_laws(monkeypatch, ch, horizon, cfg):
    """(laws built, policies valued, distinct policies valued) by one search."""
    laws, policies = [], []
    real_forward_joint, real_policy_table = bound_engine.forward_joint, bound_engine.policy_table

    def counting_forward_joint(*args, **kwargs):
        laws.append(None)
        return real_forward_joint(*args, **kwargs)

    def counting_policy_table(law, px):
        policies.extend(map(bytes, px))
        return real_policy_table(law, px)

    monkeypatch.setattr(bound_engine, "forward_joint", counting_forward_joint)
    monkeypatch.setattr(bound_engine, "policy_table", counting_policy_table)
    capacity_bound(ch, horizon, cfg)
    return len(laws), len(policies), len(set(policies))


def test_capacity_search_builds_one_law_and_values_each_policy_once(monkeypatch):
    # flip2: 1 start + 21 row keys x 16 other grid points in the one sweep
    # that finds no improvement; the neighbour-gap loop values nothing new
    flip2 = _channel("flip2")
    cfg = SearchConfig(stopping="all", restarts=0, seed=0)
    assert _count_laws(monkeypatch, flip2, 3, cfg) == (1, 337, 337)
    histk2 = _channel("histk2")
    assert _count_laws(monkeypatch, histk2, 2, SearchConfig(stopping="all", seed=0)) == (1, 1017, 1017)
