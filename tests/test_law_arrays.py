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
import tracemalloc

import numpy as np
import pytest

import oracles
from fbound import bound_engine, channel_model, cli, drift_verify
from fbound.bound_engine import (
    SearchConfig,
    _simplex_grid,
    capacity_bound,
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
    rows = np.array([grid[rng.integers(len(grid))] for _ in _policy_row_keys(ch, horizon)])
    rows = rows.reshape(-1, x)  # (0, x) at horizon 0
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
        out.append(InputPolicy(horizon=horizon, x_size=x, y_size=y, messages=m, tables=tables))
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

    def counting(real):
        def counted(*args, **kwargs):
            laws.append(None)
            return real(*args, **kwargs)
        return counted

    def counting_trajectories(law):
        built.append(None)
        return real_trajectories(law)

    monkeypatch.setattr(channel_model.JointLaw, "trajectories", property(counting_trajectories))
    for module in (bound_engine, cli, drift_verify):
        monkeypatch.setattr(module, "forward_joint", counting(channel_model.forward_joint))
    # the exponent search builds its encoders' laws together
    monkeypatch.setattr(bound_engine, "encoder_tables", counting(channel_model.encoder_tables))
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


@pytest.mark.parametrize("dtype", [np.uint64, np.uint8, np.int32])
def test_encoder_inputs_of_any_integer_type_build_the_same_law(dtype):
    # numpy's unsigned 64-bit inputs once ended in an IndexError
    ch = _channel("flip2")
    want = forward_joint(ch, rotating_encoder(4, 2, 3), 3)
    policy = InputPolicy(horizon=3, x_size=2, y_size=2, messages=4,
                         tables=[step.astype(dtype) for step in want.policy.tables])
    assert_same_law(forward_joint(ch, policy, 3), oracles.dict_forward_joint(ch, want.policy, 3))


def test_width_one_tables_drive_a_noiseless_channel_past_63_levels():
    # the output-history index wraps past 63 binary levels; a width-1 table
    # reads its one column whatever the index holds
    law = forward_joint(_channel("perfect2"), repetition_encoder(2, 2, 70), 70)
    assert law.trajectories == {(w, (w,) * 70, (0,) * 70, (w,) * 70): 0.5 for w in (0, 1)}


@pytest.mark.parametrize("step", [
    [[0, 1], [1]], [[0.0, 1.0], [1.0, 0.0]], [[True, False], [False, True]],
    [["0", "1"], ["1", "0"]], [[2**70, 0], [0, 0]], [[0, 1, 0], [1, 0, 1]], [[0, 1]],
], ids=["ragged", "float", "bool", "string", "past-int64", "width-3", "one-message"])
def test_a_ragged_or_non_integer_step_table_is_refused(step):
    with pytest.raises(SchemaError, match=r"^step table 2 is not an integer array of shape "
                                          r"\(2, 1\) or \(2, 2\*\*1\)$"):
        InputPolicy(horizon=2, x_size=2, y_size=2, messages=2, tables=([[0], [1]], step))


def test_a_policy_needs_one_step_table_per_step():
    with pytest.raises(SchemaError, match="^a message-form policy of horizon 3 needs 3 step "
                                          "tables, got 2$"):
        InputPolicy(horizon=3, x_size=2, y_size=2, messages=2, tables=([[0], [1]],) * 2)


def test_a_behavioral_policy_over_the_row_limit_is_refused_before_its_rows_exist():
    # 1 + 4 + ... + 4**12 rows at horizon 13 exceed 10**7; at horizon 12
    # (5,592,405 rows) the uniform rows alone would take 89 MB
    ch = _channel("bsc01")
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError, match="^a behavioral policy of horizon 13 has "
                                                      "over 10000000 rows$"):
            uniform_behavioral_policy(ch, 13)
        with pytest.raises(BudgetExceededError, match="over 10000000 rows"):
            InputPolicy(horizon=13, x_size=2, y_size=2, rows=[])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**6
    with pytest.raises(BudgetExceededError, match="over 10000000 rows"):
        capacity_bound(ch, 13)


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
    # an integer outside the alphabet is refused where the law reads it; a
    # float input is refused with its table
    ch = _channel("bsc01")
    tables = ([[0], [1]], [[bad, bad], [bad, bad]])
    if isinstance(bad, float):
        with pytest.raises(SchemaError, match=r"^step table 2 is not an integer array"):
            InputPolicy(horizon=2, x_size=2, y_size=2, messages=2, tables=tables)
        return
    policy = InputPolicy(horizon=2, x_size=2, y_size=2, messages=2, tables=tables)
    with pytest.raises(SchemaError, match=r"^encoder input outside 0\.\.1 at t=2$"):
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
# (seed, sweeps) of the cases above: 0 and the default 50
CAPACITY_CASES = [(*case, 0, 50) for case in CAPACITY_CASES]
# the restarts advance in lockstep: on flip2 and bsc01 at H = 2 some leave
# the active set after their first sweep and others after their second,
# and sweeps 0 and 1 stop them all at once
CAPACITY_CASES += [
    (name, 2, restarts, "all", seed, 50)
    for name in ("flip2", "bsc01", "histk2")
    for seed in (1, 2, 3)
    for restarts in (1, 3)
]
CAPACITY_CASES += [(name, 2, 3, "all", 1, sweeps)
                   for name in ("flip2", "histk2") for sweeps in (0, 1)]


@pytest.mark.parametrize("name,horizon,restarts,stopping,seed,sweeps", CAPACITY_CASES,
                         ids=[f"{n}-H{h}-r{r}" + ("" if st == "all" else f"-{st}")
                              + (f"-seed{s}" if s else "") + ("" if w == 50 else f"-sweeps{w}")
                              for n, h, r, st, s, w in CAPACITY_CASES])
def test_capacity_bound_json_matches_the_memo_free_loop(name, horizon, restarts, stopping,
                                                         seed, sweeps):
    ch = _channel(name)
    cfg = SearchConfig(stopping=stopping, restarts=restarts, seed=seed, sweeps=sweeps)
    assert capacity_bound(ch, horizon, cfg).to_json() == oracles.loop_capacity_bound(ch, horizon, cfg).to_json()


# ---------------------------------------------------------------------------
# the batched valuation against one law per policy
# ---------------------------------------------------------------------------


BATCH_CHANNELS = ("z01", "perfect2", "flip2", "histk2", "zrow", "zstate", "wide")


def _grid_policies(ch, horizon, seed, count=24):
    """The row keys and ``count`` policies of random search-grid rows,
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
    return keys, policies


def _policy_law(ch, keys, policy, horizon):
    return forward_joint(ch, InputPolicy(horizon=horizon, x_size=ch.spec.x_size,
                                         y_size=ch.spec.y_size, rows=policy), horizon)


def assert_own_laws(tables, own_laws):
    """Tables of many laws over shared nodes, as ``policy_tables`` and
    ``encoder_tables`` return them, equal the tables of each law built on
    its own, node for node: its nodes first in each level, in its own
    order, then the ones it cannot reach, with zeros."""
    sizes, index, node_prob, xy_node = tables
    bounds = np.cumsum((0,) + sizes)
    for g, own in enumerate(own_laws):
        own_index = channel_model._node_index(own.node_parent, own.node_symbol, own.sizes,
                                              own.channel.spec.y_size)
        own_bounds = np.cumsum((0,) + own.sizes)
        for t in range(len(sizes)):
            lo, hi, own_lo, own_hi = bounds[t], bounds[t + 1], own_bounds[t], own_bounds[t + 1]
            cut = lo + own_hi - own_lo
            assert np.array_equal(index[g, lo:cut], own_index[own_lo:own_hi])
            assert node_prob[g, lo:cut].tobytes() == own.node_prob[own_lo:own_hi].tobytes()
            assert not node_prob[g, cut:hi].any()
            if t < len(sizes) - 1:
                assert xy_node[g, lo:cut].tobytes() == own.xy_node[own_lo:own_hi].tobytes()
                assert not xy_node[g, cut:hi].any()


def assert_own_tables(ch, horizon, keys, policies):
    """``policy_tables`` of every policy equals the tables of the policy's
    own law."""
    assert_own_laws(channel_model.policy_tables(ch, np.array(policies), horizon),
                    [_policy_law(ch, keys, policy, horizon) for policy in policies])


@pytest.mark.parametrize("name", BATCH_CHANNELS)
def test_policy_tables_are_each_policys_own_tables(name):
    ch = _channel(name)
    for horizon in range(1, min(_max_horizon(name), 3) + 1):
        assert_own_tables(ch, horizon, *_grid_policies(ch, horizon, seed=horizon))


@pytest.mark.parametrize("pass_size", [1, 100])
def test_policy_tables_counted_in_several_passes_match(pass_size, monkeypatch):
    monkeypatch.setattr(channel_model, "_PASS_SIZE", pass_size)
    for name in ("flip2", "zrow"):
        ch = _channel(name)
        assert_own_tables(ch, 3, *_grid_policies(ch, 3, seed=5, count=6))


@pytest.mark.parametrize("name", BATCH_CHANNELS)
def test_batched_capacity_values_equal_one_law_per_policy(name):
    ch = _channel(name)
    # wide at H = 3 has 83,521 stopping rules, each valued per policy
    for horizon in range(1, (2 if name == "wide" else min(_max_horizon(name), 3)) + 1):
        keys, policies = _grid_policies(ch, horizon, seed=10 + horizon)
        for stopping in ("all", "fixed"):
            rules, _ = bound_engine._capacity_rules(ch, horizon, SearchConfig(stopping=stopping))
            stack = rule_stack(rules, horizon)
            got = bound_engine._capacity_values(ch, horizon, 10**7, np.array(policies), rules,
                                                stack)
            want = [oracles._capacity_objective(ch, dict(zip(keys, p)), horizon, rules, stack,
                                                 10**7) for p in policies]
            assert got == want


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # 0/0 at a node of underflowed mass
def test_policy_tables_prune_on_a_zero_factor_not_an_underflowed_product():
    # send 0, then 1 after y = 1: the history (1, 0) has only the product
    # 1e-200 * 1e-200, which underflows to 0.0, yet forward_joint keeps it,
    # ahead of (1, 1), as it keeps every trajectory whose factors are not 0
    ch = _channel("faint")
    for horizon in (2, 3):
        keys = _policy_row_keys(ch, horizon)
        policy = tuple((0.0, 1.0) if t > 1 and yh[-1] == 1 else (1.0, 0.0)
                       for t, _, yh in keys)
        own = _policy_law(ch, keys, policy, horizon)
        assert own.node_prob[own.sizes[0] + own.sizes[1] + 2] == 0.0
        assert_own_tables(ch, horizon, keys, [policy])


def test_policy_tables_refuse_rows_not_shaped_policies_rows_inputs():
    ch = _channel("z01")
    _, policies = _grid_policies(ch, 2, seed=0, count=2)
    rows = np.array(policies)
    for bad in (rows[:, 1:], rows[:, :, :1], rows[0]):
        with pytest.raises(SchemaError, match=r"are not \(policies, 5, 2\)"):
            channel_model.policy_tables(ch, bad, 2)


# ---------------------------------------------------------------------------
# many encoders' laws over shared trajectories
# ---------------------------------------------------------------------------


def _random_encoders(ch, m, horizon, rng, count):
    """``count`` random encoders of m messages, as step tables, after the
    two constant ones."""
    x, y = ch.spec.x_size, ch.spec.y_size
    out = [tuple(((v,) * y ** (t - 1),) * m for t in range(1, horizon + 1)) for v in (0, x - 1)]
    for _ in range(count):
        out.append(tuple(
            tuple(tuple(int(v) for v in rng.integers(x, size=y ** (t - 1))) for _ in range(m))
            for t in range(1, horizon + 1)))
    return out


def _arrays(encoders, horizon):
    return [np.array([enc[t] for enc in encoders]) for t in range(horizon)]


def _own_law(ch, encoder, horizon, budget=10**7):
    policy = InputPolicy(horizon=horizon, x_size=ch.spec.x_size, y_size=ch.spec.y_size,
                         messages=len(encoder[0]), tables=encoder)
    return forward_joint(ch, policy, horizon, budget=budget)


def assert_own_encoder_tables(ch, horizon, encoders):
    """``encoder_tables`` of every encoder equals the tables of its own
    law."""
    assert_own_laws(channel_model.encoder_tables(ch, _arrays(encoders, horizon), horizon),
                    [_own_law(ch, encoder, horizon) for encoder in encoders])


@pytest.mark.parametrize("name", BATCH_CHANNELS + ("bsc01",))
def test_encoder_tables_are_each_encoders_own_tables(name):
    ch = _channel(name)
    rng = np.random.default_rng(3)
    for horizon in range(1, min(_max_horizon(name), 3) + 1):
        for m in (1, 2, 3, 4):
            assert_own_encoder_tables(ch, horizon, _random_encoders(ch, m, horizon, rng, 10))


@pytest.mark.parametrize("pass_size", [1, 100])
def test_encoder_tables_counted_in_several_passes_match(pass_size, monkeypatch):
    monkeypatch.setattr(channel_model, "_PASS_SIZE", pass_size)
    rng = np.random.default_rng(4)
    for name in ("flip2", "zrow"):
        ch = _channel(name)
        assert_own_encoder_tables(ch, 3, _random_encoders(ch, 2, 3, rng, 6))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # 0/0 at a node of underflowed mass
def test_encoder_tables_prune_on_a_zero_factor_not_an_underflowed_product():
    # send 0, then 1 after y = 1: the history (1, 0) has only the product
    # 1e-200 * 1e-200, which underflows to 0.0, yet forward_joint keeps it
    ch = _channel("faint")
    for horizon in (2, 3):
        encoder = tuple(((0,) * 2 ** (t - 1),) if t == 1 else
                        (tuple(i % 2 for i in range(2 ** (t - 1))),)
                        for t in range(1, horizon + 1))
        own = _own_law(ch, encoder, horizon)
        assert own.node_prob[own.sizes[0] + own.sizes[1] + 2] == 0.0
        assert_own_encoder_tables(ch, horizon, [encoder, encoder[:1] + tuple(
            ((1,) * 2 ** (t - 1),) for t in range(2, horizon + 1))])


def _outcome_of(build):
    try:
        build()
    except (BudgetExceededError, SchemaError) as e:
        return type(e), str(e)
    return None


@pytest.mark.parametrize("name", ["z01", "perfect2", "zstate", "wide"])
def test_encoder_tables_raise_the_first_failing_encoders_error(name):
    # encoders whose laws differ in size, some with inputs outside the
    # alphabet: the batch raises what building the laws one at a time, in
    # order, raises first, at the same step; an input is read only at a
    # history the encoder reaches
    ch = _channel(name)
    horizon, x = 3, ch.spec.x_size
    rng = np.random.default_rng(5)
    for trial in range(6):
        encoders = _random_encoders(ch, 2, horizon, rng, 6)
        if trial % 2:
            for g in rng.integers(len(encoders), size=2).tolist():
                t, w = int(rng.integers(1, horizon)), int(rng.integers(2))
                step = [list(row) for row in encoders[g][t]]
                step[w][int(rng.integers(len(step[w])))] = int(rng.choice([-1, x]))
                encoders[g] = encoders[g][:t] + (tuple(map(tuple, step)),) + encoders[g][t + 1:]
        sizes = [_outcome_of(lambda: _own_law(ch, enc, horizon)) or _own_law(ch, enc, horizon)
                 for enc in encoders]
        counts = sorted({law.prob.size for law in sizes if not isinstance(law, tuple)})
        for budget in sorted({1, 2, 3, *counts, *(c - 1 for c in counts)}):
            want = next(filter(None, (_outcome_of(lambda enc=enc: _own_law(ch, enc, horizon, budget))
                                      for enc in encoders)), None)
            got = _outcome_of(lambda: channel_model.encoder_tables(
                ch, _arrays(encoders, horizon), horizon, budget))
            assert got == want, (trial, budget)


def test_encoder_tables_read_no_input_of_a_lane_after_its_budget_failure():
    # on a state channel, with a budget of 15: the first encoder's law has
    # 3, 7 and 15 trajectories, the second's 37 at step 2, and the third
    # sends an input outside the alphabet at step 3, after the second has
    # failed; the batch raises the second's budget error, as building the
    # laws one at a time does
    ch = _channel("wide")
    bad = ch.spec.x_size
    encoders = [
        tuple(((0,) * 4 ** (t - 1),) for t in (1, 2, 3)),
        tuple(((1,) * 4 ** (t - 1),) for t in (1, 2, 3)),
        tuple(((0 if t < 3 else bad,) * 4 ** (t - 1),) for t in (1, 2, 3)),
    ]
    want = (BudgetExceededError,
            "37 live trajectories at step 2 of horizon 3 exceed the trajectory budget 15")
    assert [_outcome_of(lambda enc=enc: _own_law(ch, enc, 3, 15)) for enc in encoders] == [
        None, want, (SchemaError, f"encoder input outside 0..{bad - 1} at t=3")]
    assert _outcome_of(lambda: channel_model.encoder_tables(
        ch, _arrays(encoders, 3), 3, 15)) == want


def _count_laws(monkeypatch, ch, horizon, cfg):
    """(laws built, policy batches, policies valued, distinct policies
    valued) by one search."""
    laws, batches, policies = [], [], []
    real_forward_joint, real_policy_tables = bound_engine.forward_joint, bound_engine.policy_tables

    def counting_forward_joint(*args, **kwargs):
        laws.append(None)
        return real_forward_joint(*args, **kwargs)

    def counting_policy_tables(ch, px, *args):
        batches.append(None)
        policies.extend(map(bytes, px))
        return real_policy_tables(ch, px, *args)

    monkeypatch.setattr(bound_engine, "forward_joint", counting_forward_joint)
    monkeypatch.setattr(bound_engine, "policy_tables", counting_policy_tables)
    capacity_bound(ch, horizon, cfg)
    return len(laws), len(batches), len(policies), len(set(policies))


def test_the_neighbour_gap_loop_stores_nothing_in_the_memo():
    # the gap loop values all 20,000 other grid points of each of the
    # maximizer's 5 rows; kept in the whole-search memo, they took the traced
    # peak to 54 MB, against 39 MB when each row's values are dropped
    tracemalloc.start()
    try:
        capacity_bound(_channel("bsc01"), 2,
                       SearchConfig(grid_denominator=20000, restarts=0, sweeps=0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 46e6


def test_a_capacity_batch_is_sized_by_every_array_it_holds():
    # each row's 12,001 moves: sized as if a batch held one array of
    # _PASS_SIZE entries, they made one batch (of up to 33,825 policies),
    # with a traced peak of 23 MB; counting every array a batch holds, they
    # make batches of 6,096 and the peak is 13 MB
    tracemalloc.start()
    try:
        capacity_bound(_channel("bsc01"), 2,
                       SearchConfig(grid_denominator=12000, restarts=0, sweeps=0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


def test_capacity_search_builds_one_law_and_values_each_policy_once(monkeypatch):
    # flip2: 1 start + 21 row keys x 16 other grid points in the one sweep
    # that finds no improvement, a batch per row; the neighbour-gap loop
    # values nothing new
    flip2 = _channel("flip2")
    cfg = SearchConfig(stopping="all", restarts=0, seed=0)
    assert _count_laws(monkeypatch, flip2, 3, cfg) == (1, 22, 337, 337)
    # histk2 at H = 2, 5 row keys: the 9 starts make one batch, then each
    # of the 3 sweeps (the last by 2 restarts) x 5 rows values every active
    # restart's moves in one batch, or in none when all are memoized: 12 of
    # at most 1 + 3 x 5.  The restarts run one after another made 75
    # batches of the same 1,017 policies
    histk2 = _channel("histk2")
    assert _count_laws(monkeypatch, histk2, 2, SearchConfig(stopping="all", seed=0)) == (1, 12, 1017, 1017)


@pytest.mark.parametrize("name", CHANNEL_FILES)
def test_a_policys_capacity_value_does_not_depend_on_its_batch(name):
    # the lockstep values a restart's moves in whatever batch the other
    # active restarts fill, so a policy's value and rule must be the same
    # alone as among others, in any order; 153 policies are the 9 default
    # restarts' 17 moves of one row
    ch = _channel(name)
    horizon = 2
    rules, _ = bound_engine._capacity_rules(ch, horizon, SearchConfig(stopping="all"))
    stack = rule_stack(rules, horizon)
    grid = _simplex_grid(ch.spec.x_size, 16)
    rng = np.random.default_rng(sum(map(ord, name)))
    keys = _policy_row_keys(ch, horizon)
    px = np.array([[grid[g] for g in rng.integers(len(grid), size=len(keys))]
                   for _ in range(153)])

    def outcomes(batch):
        return [(float(v).hex(), rules.index(rule))
                for v, rule in bound_engine._capacity_values(ch, horizon, 10**7, batch, rules,
                                                             stack)]

    together = outcomes(px)
    assert [outcomes(p[None])[0] for p in px] == together
    order = rng.permutation(len(px))
    assert outcomes(px[order]) == [together[k] for k in order]


def test_a_lockstep_step_values_its_asks_in_capped_batches():
    # 9 restarts x 2,001 grid points of bsc01 at H = 2: a step asks 18,009
    # moves, valued in batches of 6,096.  Restarts run one after another
    # peaked at 23.0 MB, a row's 2,001 moves to a batch; the capped batches
    # of the lockstep peak at 27.0 MB, and the margin below is that one
    # batch's arrays.  Valued as one batch of 18,009, a step peaks at 47 MB
    tracemalloc.start()
    try:
        capacity_bound(_channel("bsc01"), 2,
                       SearchConfig(grid_denominator=2000, restarts=8, sweeps=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 23.0e6 + 7e6
