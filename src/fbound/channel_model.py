"""Finite channels with stochastic state, input policies, stopping rules,
and exact joint-law enumeration.

A channel instance is a pair (ChannelSpec, StateKernel): the spec holds the
per-state transition matrix Q[s][x][y] = P(y | x, s), the kernel describes how
the state sequence evolves given past states and past inputs.  Together with
an input policy (``InputPolicy``: arrays of behavioral rows P(x_t |
x-history, y-history), or the step tables of a message-form deterministic
encoder) they induce a unique joint distribution over (message, input,
state, output) trajectories up to a finite horizon.  ``forward_joint``
materializes that law exactly as the set of all positive-probability
trajectories, which is the verification strategy used throughout: all
downstream quantities (posteriors, entropy processes, drift terms) are
exact sums over this enumeration.

Trajectories are formed in one loop (``_grow``), breadth first, one level
of the trajectory tree per step, with the children of all live prefixes
formed in one array pass in the order a depth-first walk would visit them,
and with a leading law axis: ``forward_joint`` runs it for one law, of
either policy form, and ``encoder_tables`` for many deterministic encoders
over the trajectories they share, both through one encoder table read
(``_table_inputs``).  The per-output-history tables are then one
``np.bincount`` each over the trajectories in that order.  Both keep the
products and the summation order of a plain recursive walk with running
per-node sums, so every probability and table entry is bit-for-bit the
value such a walk gives.  A law is arrays only: the tables are flat
arrays over the realizable output histories of all levels (a sparse
fixed-arity tree), numbered level by level in order of first appearance,
and the trajectories are per-level parent and symbol arrays.  Histories
are tuples of integer symbols only where a caller asks for them: error
messages, ``JointLaw.trajectories`` and stop sets (a ``StoppingRule`` is a
stop-time array).  Budgets cap enumeration size.
``reweighted_tables`` gives the tables of many behavioral policies at once,
each as a reweighting of one full-support law's trajectories, with no
trajectory formed.  Both many-law functions return each law's tables bit
for bit as its own law gives them, in one shape: (sizes, index,
node_prob, xy_node).
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "FboundError",
    "SchemaError",
    "DistributionError",
    "BudgetExceededError",
    "LogRatioUnboundedError",
    "VALIDATION_TOL",
    "ROW_SUM_INVARIANT_TOL",
    "DEFAULT_TRAJECTORY_BUDGET",
    "ChannelSpec",
    "StateKernel",
    "Channel",
    "parse_channel",
    "load_channel",
    "bsc",
    "two_state_flip_channel",
    "InputPolicy",
    "repetition_encoder",
    "rotating_encoder",
    "uniform_behavioral_policy",
    "StoppingRule",
    "enumerate_stopping_rules",
    "JointLaw",
    "forward_joint",
    "reweighted_tables",
    "encoder_tables",
]

# Hard error threshold for user-supplied distributions.
VALIDATION_TOL = 1e-9
# Stored rows are kept at least this close to 1; parse renormalizes past it.
ROW_SUM_INVARIANT_TOL = 1e-12
DEFAULT_TRAJECTORY_BUDGET = 10**7
# The corruptions ``drift_verify``'s checks can apply (exported there); kept
# here so that the CLI parser reads them without loading the checks.
MUTATIONS = ("halve_kl_drift",)
# trajectory-levels per pass of the level-table counts (``_level_tables``)
_PASS_SIZE = 1 << 21


class FboundError(Exception):
    """Base class for all library errors."""


class SchemaError(FboundError):
    """Malformed channel / scheme file or inconsistent dimensions."""


class DistributionError(FboundError):
    """A vector that must be a probability distribution is not one."""


class BudgetExceededError(FboundError):
    """Exact enumeration would exceed the configured trajectory budget."""


class LogRatioUnboundedError(FboundError):
    """The log-ratio step bound needs a strictly positive channel."""


def check_tree_size(y_size: int, horizon: int) -> None:
    """Refuse an output tree of more than ``DEFAULT_TRAJECTORY_BUDGET`` full
    paths before any table over it is allocated."""
    if y_size > 1 and (horizon > DEFAULT_TRAJECTORY_BUDGET.bit_length()
                       or y_size**horizon > DEFAULT_TRAJECTORY_BUDGET):
        raise BudgetExceededError(f"the output tree has {y_size}^{horizon} paths at horizon "
                                  f"{horizon}, over the limit {DEFAULT_TRAJECTORY_BUDGET}")


def check_seed(seed, what: str) -> None:
    """Refuse a seed outside 0..2**64 - 1: the seeds ``_SeededIntegers``
    takes, and the Philox keys of the Monte Carlo draws."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or not 0 <= seed < 2**64:
        raise SchemaError(f"{what} must be an integer in 0..2**64 - 1, got {seed!r}")


_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1


class _SeededIntegers:
    """The draws of ``np.random.default_rng(seed).integers(low, high)``,
    computed in Python integers, so that no caller loads ``numpy.random``.

    ``SeedSequence(seed)`` hashes the seed's 32-bit words (low first) into a
    four-word pool, mixes the pool, and hashes it into the four 64-bit
    words that seed PCG64: a 128-bit LCG whose output is the XSL-RR of each
    new state.  A span of at most 2**32 draws 32-bit halves of output words,
    the low half first, the high half kept for the next such draw; a larger
    span draws whole words.  Either is Lemire's multiply with rejection; a
    span of 1 draws nothing, and a span of exactly 2**32 or 2**64 is the
    drawn half or word itself.  ``integers(low, high, size=n)`` is n
    successive draws.  For seeds in 0..2**64 - 1 (``check_seed``)."""

    def __init__(self, seed: int):
        seed, mult = int(seed), 0x43B0D7E5

        def hashmix(v):
            nonlocal mult
            v, mult = v ^ mult, mult * 0x931E8875 & _M32
            v = v * mult & _M32
            return v ^ v >> 16

        def mix(x, y):
            r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
            return r ^ r >> 16

        pool = [hashmix(seed >> 32 * i & _M32) for i in range(4)]
        for src in range(4):
            for dst in range(4):
                if src != dst:
                    pool[dst] = mix(pool[dst], hashmix(pool[src]))
        words, mult = [], 0x8B51F9DD
        for i in range(8):
            v, mult = pool[i % 4] ^ mult, mult * 0x58F38DED & _M32
            v = v * mult & _M32
            words.append(v ^ v >> 16)
        w = [words[i] | words[i + 1] << 32 for i in range(0, 8, 2)]
        self._inc = (w[2] << 64 | w[3]) << 1 & _M128 | 1
        self._state = 0
        self._next64()
        self._state += w[0] << 64 | w[1]
        self._next64()
        self._half = None

    def _next64(self) -> int:
        s = self._state = (self._state * 0x2360ED051FC65DA44385DF649FCCF645 + self._inc) & _M128
        x, rot = (s >> 64 ^ s) & _M64, s >> 122
        return (x >> rot | x << (64 - rot)) & _M64

    def _next32(self) -> int:
        if self._half is None:
            word = self._next64()
            self._half = word >> 32
            return word & _M32
        half, self._half = self._half, None
        return half

    def integers(self, low: int, high: int) -> int:
        span = high - low
        if span == 1:
            return low
        bits, draw = (32, self._next32) if span <= 1 << 32 else (64, self._next64)
        if span == 1 << bits:
            return low + draw()
        threshold = (1 << bits) % span
        while (m := draw() * span) & ((1 << bits) - 1) < threshold:
            pass
        return low + (m >> bits)


def _check_distribution(rows: np.ndarray, what) -> None:
    """Check every row (last axis) of ``rows`` as a distribution, in one
    array pass.  The first failing row, in C order, raises the error of its
    first failed check, named ``what`` for a vector and ``what(index)``, its
    index over the leading axes, for a row of a larger array."""
    flat = rows.reshape(math.prod(rows.shape[:-1]), rows.shape[-1])
    finite, neg, sums = np.isfinite(flat).all(axis=1), (flat < 0).any(axis=1), flat.sum(axis=1)
    bad = np.flatnonzero(~finite | neg | (np.abs(sums - 1.0) > VALIDATION_TOL))
    if bad.size:
        i = bad[0]
        if rows.ndim > 1:
            what = what(tuple(int(v) for v in np.unravel_index(i, rows.shape[:-1])))
        if not finite[i]:
            raise DistributionError(f"{what} has a non-finite entry")
        if neg[i]:
            raise DistributionError(f"{what} has a negative entry")
        raise DistributionError(f"{what} sums to {float(sums[i])!r}, not 1 within {VALIDATION_TOL}")


def _canonicalize_rows(arr: np.ndarray) -> np.ndarray:
    """Renormalize rows along the last axis when they miss 1 by more than
    the storage invariant (but less than the validation tolerance)."""
    out = np.array(arr, dtype=float)
    flat = out.reshape(-1, out.shape[-1])
    for i in range(flat.shape[0]):
        s = float(flat[i].sum())
        if abs(s - 1.0) > ROW_SUM_INVARIANT_TOL:
            flat[i] = flat[i] / s
    return flat.reshape(out.shape)


# ---------------------------------------------------------------------------
# channel spec and state kernel
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChannelSpec:
    """Per-state channel law Q[s, x, y] = P(Y=y | X=x, S=s).

    The array has shape (s_size, x_size, y_size); every (s, x) row is a
    probability distribution over y.
    """

    x_size: int
    y_size: int
    s_size: int
    q: np.ndarray
    name: str = ""

    def __post_init__(self) -> None:
        q = np.asarray(self.q, dtype=float)
        if q.shape != (self.s_size, self.x_size, self.y_size):
            raise SchemaError(
                f"Q shape {q.shape} does not match (s_size, x_size, y_size)="
                f"({self.s_size}, {self.x_size}, {self.y_size})"
            )
        _check_distribution(q, lambda i: f"Q row (s={i[0]}, x={i[1]})")
        object.__setattr__(self, "q", q)

    @property
    def strictly_positive(self) -> bool:
        return bool(np.all(self.q > 0.0))

    def is_dmc(self) -> bool:
        return self.s_size == 1

    def row(self, x: int, s: int) -> np.ndarray:
        return self.q[s, x]

    def rows(self) -> list[np.ndarray]:
        """All (x, s) rows, x-major then s."""
        return [self.q[s, x] for x in range(self.x_size) for s in range(self.s_size)]


@dataclass(frozen=True)
class StateKernel:
    """State evolution P(s_t | s-history, x-history).

    variant "memoryless": states are i.i.d. with distribution ``table``
    (shape (s_size,)).
    variant "markov1": first state from ``init`` (shape (s_size,)), then
    ``table[s_prev, x_prev, s_next]`` (shape (s, x, s)).
    variant "history_table": ``levels[t-1][s_hist][x_hist]`` is the
    distribution of s_t given the full histories, histories indexed in
    lexicographic (symbol-major) order; level t has shape
    (s_size**(t-1), x_size**(t-1), s_size).

    Every variant is read through one per-use table (``use_table``).  A
    consumer carries each path's state- and input-history indices; only
    ``rows``, ``advance`` and the exact filter's step ``predict`` know how
    they index the table.
    """

    variant: str
    s_size: int
    x_size: int
    table: np.ndarray | None = None
    init: np.ndarray | None = None
    levels: tuple[np.ndarray, ...] = ()

    def __post_init__(self) -> None:
        if self.variant == "memoryless":
            t = np.asarray(self.table, dtype=float)
            if t.shape != (self.s_size,):
                raise SchemaError("memoryless kernel table must have shape (s_size,)")
            _check_distribution(t, "state distribution")
            object.__setattr__(self, "table", t)
            uses = (t[None, None],)
        elif self.variant == "markov1":
            t = np.asarray(self.table, dtype=float)
            if t.shape != (self.s_size, self.x_size, self.s_size):
                raise SchemaError(
                    "markov1 kernel table must have shape (s_size, x_size, s_size)"
                )
            init = np.asarray(
                self.init if self.init is not None else np.full(self.s_size, 1.0 / self.s_size),
                dtype=float,
            )
            if init.shape != (self.s_size,):
                raise SchemaError("markov1 init must have shape (s_size,)")
            _check_distribution(init, "initial state distribution")
            _check_distribution(t, lambda i: f"state transition row (s={i[0]}, x={i[1]})")
            object.__setattr__(self, "table", t)
            object.__setattr__(self, "init", init)
            uses = (init[None, None], t)
        elif self.variant == "history_table":
            lv = tuple(np.asarray(a, dtype=float) for a in self.levels)
            for i, a in enumerate(lv):
                t = i + 1
                want = (self.s_size ** (t - 1), self.x_size ** (t - 1), self.s_size)
                if a.shape != want:
                    raise SchemaError(f"history_table level {t} must have shape {want}")
                _check_distribution(a, lambda i: f"state row t={t}, hist={i}")
            object.__setattr__(self, "levels", lv)
            uses = lv
        else:
            raise SchemaError(f"unknown state kernel variant {self.variant!r}")
        object.__setattr__(self, "_uses", uses)

    def horizon_cap(self) -> int | None:
        """Largest t this kernel can drive, None when unbounded."""
        if self.variant == "history_table":
            return len(self.levels)
        return None

    def use_table(self, t: int) -> np.ndarray:
        """P(s_t | state memory, input memory) at 1-based use t, shape
        (s_size**d, x_size**d, s_size), rows indexed by the ``_hist_index`` of
        the last d states and inputs: d = 0 (memoryless), 0 then 1 (markov1:
        ``init``, then ``table``, repeated) or t - 1 (history_table level t)."""
        if self.horizon_cap() is not None and t > self.horizon_cap():
            raise SchemaError(f"history_table kernel has no level for t={t}")
        return self._uses[min(t, len(self._uses)) - 1]

    def rows(self, t: int, s_mem: np.ndarray, x_mem: np.ndarray):
        """Each path's row of ``use_table(t)`` flattened to (rows, s_size),
        and its history indices cut to the symbols that row keeps."""
        s_rows, x_rows = self.use_table(t).shape[:2]
        s_mem, x_mem = s_mem % s_rows, x_mem % x_rows
        return s_mem * x_rows + x_mem, s_mem, x_mem

    def advance(self, s_mem, x_mem, s, x):
        """The history indices after a use with state s and input x."""
        return s_mem * self.s_size + s, x_mem * self.x_size + x

    def predict(self, t: int, mass: np.ndarray, x: np.ndarray) -> np.ndarray:
        """The state mass (N, s_size) of use t from each node's mass over
        s_{t-1} and its input x_{t-1}: the total mass times the state law at
        a use with no memory; on markov1 the stacked ``mass[:, None, :] @
        table[:, x, :]``, which a node-by-node walk computes bit for bit and
        a plain (N, S) @ (S, S) product does not, from S = 4 up."""
        table = self.use_table(t)
        if table.shape[:2] == (1, 1):
            return mass.sum(axis=1)[:, None] * table[0, 0]
        if self.variant != "markov1":
            raise SchemaError(f"no exact filter step for a {self.variant} kernel at t={t}")
        return np.matmul(mass[:, None, :], np.moveaxis(table, 1, 0)[x])[:, 0, :]


def _hist_index(hist: Sequence[int], arity: int) -> int:
    i = 0
    for sym in hist:
        i = i * arity + sym
    return i


@dataclass(frozen=True)
class Channel:
    """A parsed channel file: spec + kernel + optional name."""

    spec: ChannelSpec
    kernel: StateKernel

    @property
    def name(self) -> str:
        return self.spec.name


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------


def _as_int(value) -> int:
    """``int(value)`` for a size, count or symbol read from a file, refusing
    a boolean, a fractional number or a string (ValueError); 2.0 is
    accepted.  A string that is no number fails in ``int``, with its
    message."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"{value!r} is not an integer")
    number = int(value)
    if isinstance(value, str):
        raise ValueError(f"{value!r} is not an integer")
    return number


def _float_array(raw, what: str) -> np.ndarray:
    """A channel file field as a non-empty array of finite numbers."""
    try:
        arr = np.asarray(raw, dtype=float)
    except (TypeError, ValueError):
        raise SchemaError(f"{what} is not a numeric array") from None
    if arr.ndim == 0 or arr.size == 0 or not np.isfinite(arr).all():
        raise SchemaError(f"{what} must be a non-empty array of finite numbers")
    return arr


def parse_channel(text: str) -> Channel:
    """Parse the JSON channel format.

    Required fields: x_size, y_size, s_size, Q (s-major 3-D array of rows
    Q[s][x][y]), state_kernel {type, table, [init]}.  Optional: name.
    Rows may miss 1 by at most 1e-9 and are renormalized to the storage
    invariant; worse violations and negative entries are errors.
    """
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise SchemaError(f"channel file is not valid JSON: {e}") from e
    if not isinstance(obj, dict):
        raise SchemaError("channel file must be a JSON object")
    try:
        sizes = [obj["x_size"], obj["y_size"], obj["s_size"]]
        q_raw = obj["Q"]
        sk_raw = obj["state_kernel"]
    except KeyError as e:
        raise SchemaError(f"channel file missing required field {e.args[0]!r}") from e
    try:
        x_size, y_size, s_size = map(_as_int, sizes)
    except (TypeError, ValueError, OverflowError):
        raise SchemaError(f"alphabet sizes must be integers, got {sizes}") from None
    if min(x_size, y_size, s_size) < 1:
        raise SchemaError("alphabet sizes must be positive")
    name = str(obj.get("name", ""))
    q = _float_array(q_raw, "Q")
    if q.shape != (s_size, x_size, y_size):
        raise SchemaError(
            f"Q shape {q.shape} does not match declared sizes "
            f"({s_size}, {x_size}, {y_size})"
        )
    if np.any(q < 0):
        raise SchemaError("Q has a negative entry")
    sums = q.sum(axis=2)
    if np.any(np.abs(sums - 1.0) > VALIDATION_TOL):
        worst = float(np.max(np.abs(sums - 1.0)))
        raise SchemaError(f"Q row sums deviate from 1 by {worst:.3e} (> {VALIDATION_TOL})")
    q = _canonicalize_rows(q)
    spec = ChannelSpec(x_size=x_size, y_size=y_size, s_size=s_size, q=q, name=name)

    if not isinstance(sk_raw, dict) or "type" not in sk_raw:
        raise SchemaError("state_kernel must be an object with a 'type' field")
    variant = sk_raw["type"]
    if variant == "memoryless":
        table = _canonicalize_rows(_float_array(sk_raw.get("table"), "state_kernel table"))
        kernel = StateKernel(variant="memoryless", s_size=s_size, x_size=x_size, table=table)
    elif variant == "markov1":
        table = _float_array(sk_raw.get("table"), "state_kernel table")
        # 2-D (s, s) tables are accepted as input-independent shorthand.
        if table.ndim == 2:
            if table.shape != (s_size, s_size):
                raise SchemaError("markov1 2-D table must have shape (s_size, s_size)")
            table = np.repeat(table[:, None, :], x_size, axis=1)
        table = _canonicalize_rows(table)
        init_raw = sk_raw.get("init")
        init = (None if init_raw is None
                else _canonicalize_rows(_float_array(init_raw, "state_kernel init")))
        kernel = StateKernel(
            variant="markov1", s_size=s_size, x_size=x_size, table=table, init=init
        )
    elif variant == "history_table":
        raw = sk_raw.get("table", [])
        if not isinstance(raw, list):
            raise SchemaError("history_table table must be a list of levels")
        levels = tuple(_canonicalize_rows(_float_array(a, f"history_table level {t}"))
                       for t, a in enumerate(raw, 1))
        kernel = StateKernel(variant="history_table", s_size=s_size, x_size=x_size, levels=levels)
    else:
        raise SchemaError(f"unknown state kernel type {variant!r}")
    return Channel(spec=spec, kernel=kernel)


def load_channel(path: str) -> Channel:
    with open(path, "r", encoding="utf-8") as f:
        return parse_channel(f.read())


def _memoryless_kernel(x_size: int) -> StateKernel:
    return StateKernel(variant="memoryless", s_size=1, x_size=x_size, table=np.array([1.0]))


def bsc(p: float, name: str = "") -> Channel:
    """Binary symmetric channel with crossover p (single state)."""
    q = np.array([[[1 - p, p], [p, 1 - p]]], dtype=float)
    spec = ChannelSpec(2, 2, 1, q, name=name or f"bsc({p})")
    return Channel(spec, _memoryless_kernel(2))


def two_state_flip_channel(
    p: float = 0.1,
    stay: float = 0.8,
    init: tuple[float, float] = (0.7, 0.3),
    name: str = "flip2",
) -> Channel:
    """Two-state channel: state 0 behaves like bsc(p), state 1 inverts the
    input before the same noise.  The state is a sticky two-state Markov
    chain, independent of the inputs."""
    row = np.array([1 - p, p])
    q = np.array([[row, row[::-1]], [row[::-1], row]])
    spec = ChannelSpec(2, 2, 2, q, name=name)
    trans = np.array([[stay, 1 - stay], [1 - stay, stay]])
    kernel = StateKernel(
        variant="markov1",
        s_size=2,
        x_size=2,
        table=np.repeat(trans[:, None, :], 2, axis=1),
        init=np.asarray(init, dtype=float),
    )
    return Channel(spec, kernel)


# ---------------------------------------------------------------------------
# input policies
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class InputPolicy:
    """Either a message-form deterministic encoder or a behavioral policy,
    as arrays.

    Message form: ``tables[t - 1][w, i]`` is the input for message w at
    step t after the output history with ``_hist_index`` i, read at column
    ``i % width`` of an integer array of shape (messages, 1) or (messages,
    y_size**(t-1)), ``encoder_tables``' format; the message is uniform on
    range(messages).  An input outside the alphabet is refused where a law
    reads it.  Behavioral form: ``rows``, a float array of shape (keys,
    x_size), holds in row k the distribution of X_t at the k-th key (t,
    x^{t-1}, y^{t-1}) of ``_policy_row_keys``.
    """

    horizon: int
    x_size: int
    y_size: int
    messages: int | None = None
    tables: tuple[np.ndarray, ...] | None = None
    rows: np.ndarray | None = None

    def __post_init__(self) -> None:
        if (self.tables is None) == (self.rows is None) or (
                (self.messages is None) != (self.tables is None)):
            raise SchemaError("policy must be exactly one of message-form or behavioral")
        if self.tables is not None:
            m, y = self.messages, self.y_size
            if m < 1:
                raise SchemaError("message count must be >= 1")
            if len(self.tables) != self.horizon:
                raise SchemaError(f"a message-form policy of horizon {self.horizon} needs "
                                  f"{self.horizon} step tables, got {len(self.tables)}")
            steps = []
            for t, step in enumerate(self.tables, start=1):
                try:
                    step = np.asarray(step)
                except ValueError:  # ragged
                    step = None
                if step is None or step.dtype.kind not in "iu" or step.shape not in (
                        (m, 1), (m, y ** (t - 1))):
                    raise SchemaError(f"step table {t} is not an integer array of shape "
                                      f"({m}, 1) or ({m}, {y}**{t - 1})")
                # an unsigned input would turn the input-history index float
                steps.append(step.astype(np.intp, copy=False))
            object.__setattr__(self, "tables", tuple(steps))
        else:
            count = _policy_row_count(self.x_size, self.y_size, self.horizon)
            try:
                rows = np.asarray(self.rows, dtype=float)
            except (TypeError, ValueError):  # ragged or non-numeric rows
                raise SchemaError("behavioral rows are not a numeric array") from None
            if rows.shape != (count, self.x_size):
                raise SchemaError(f"behavioral rows have shape {rows.shape}, not "
                                  f"({count}, {self.x_size})")
            _check_distribution(
                rows, lambda i: f"behavioral row {_row_key(i[0], self.x_size, self.y_size)}")
            object.__setattr__(self, "rows", rows)

    @property
    def is_message_form(self) -> bool:
        return self.messages is not None


def repetition_encoder(m: int, x_size: int, horizon: int, y_size: int = 2) -> InputPolicy:
    """Each message is sent as its own symbol, repeated every step.
    Requires m <= x_size."""
    if m > x_size:
        raise SchemaError("repetition needs at least as many inputs as messages")
    return InputPolicy(horizon=horizon, x_size=x_size, y_size=y_size, messages=m,
                       tables=(np.arange(m)[:, None],) * horizon)


def rotating_encoder(m: int, x_size: int, horizon: int, y_size: int = 2) -> InputPolicy:
    """History-independent encoder cycling through the base-|X| digits of the
    message, so successive steps partition the message set along different
    digits.  For m = x_size**k this keeps the input distribution uniform for
    the first k steps under a uniform prior."""
    digits = max(1, math.ceil(math.log(max(m, 2), x_size)))
    w = np.arange(m)[:, None]
    return InputPolicy(horizon=horizon, x_size=x_size, y_size=y_size, messages=m,
                       tables=tuple(w // x_size ** ((t - 1) % digits) % x_size
                                    for t in range(1, horizon + 1)))


def _policy_row_count(x_size: int, y_size: int, horizon: int) -> int:
    """The row count of a behavioral policy, refused past
    ``DEFAULT_TRAJECTORY_BUDGET``, which 64 levels of 2 or more (x, y)
    pairs pass."""
    xy = x_size * y_size
    count = horizon if xy == 1 else (xy ** min(horizon, 64) - 1) // (xy - 1)
    if count > DEFAULT_TRAJECTORY_BUDGET:
        raise BudgetExceededError(f"a behavioral policy of horizon {horizon} has over "
                                  f"{DEFAULT_TRAJECTORY_BUDGET} rows")
    return count


def _policy_row_keys(ch: Channel, horizon: int) -> list[tuple]:
    """The keys (t, x^{t-1}, y^{t-1}) of a behavioral policy's rows, t =
    1..horizon, each history in lexicographic order: the row order of
    ``InputPolicy.rows`` and ``reweighted_tables``."""
    x, y = ch.spec.x_size, ch.spec.y_size
    return [_row_key(i, x, y) for i in range(_policy_row_count(x, y, horizon))]


def _row_key(index: int, x_size: int, y_size: int) -> tuple:
    """The key of row ``index`` of a behavioral policy."""
    t, level = 1, 1
    while index >= level:
        index, t, level = index - level, t + 1, level * x_size * y_size
    xi, yi = divmod(index, y_size ** (t - 1))
    return (t, _path_at(xi, x_size, t - 1), _path_at(yi, y_size, t - 1))


def uniform_behavioral_policy(ch: Channel, horizon: int) -> InputPolicy:
    """Uniform i.i.d. inputs on every reachable history."""
    x, y = ch.spec.x_size, ch.spec.y_size
    return InputPolicy(horizon=horizon, x_size=x, y_size=y,
                       rows=np.full((_policy_row_count(x, y, horizon), x), 1.0 / x))


# ---------------------------------------------------------------------------
# stopping rules
# ---------------------------------------------------------------------------


def _symbol_index(hist: tuple, y_size: int) -> int:
    """``_hist_index`` of an output history whose symbols must lie in
    0..y_size-1."""
    if not all(isinstance(sym, (int, np.integer)) and 0 <= sym < y_size for sym in hist):
        raise SchemaError(f"history {hist} has a symbol outside 0..{y_size - 1}")
    return _hist_index(hist, y_size)


def _path_at(index: int, y_size: int, length: int) -> tuple[int, ...]:
    """The length-``length`` output path with ``_hist_index`` ``index``."""
    return tuple(int(d) for d in np.unravel_index(index, (y_size,) * length))


def _level_offsets(y_size: int, levels: int) -> list[int]:
    """Start of each level in the flat output-tree layout: a history y^t
    sits at ``offsets[t] + _hist_index(y^t, y_size)``, levels 0, 1, ... in
    turn; ``offsets[levels]`` is the node count of levels 0..levels-1."""
    offsets = [0]
    for t in range(levels):
        offsets.append(offsets[-1] + y_size**t)
    return offsets


def _check_rule_tree(n: int, y: int) -> None:
    if n < 1 or y < 1:
        raise SchemaError("stopping rule needs horizon >= 1 and a non-empty output alphabet")
    check_tree_size(y, n)


def _stop_time_table(stops: frozenset, n: int, y: int) -> np.ndarray:
    """T on every length-n path (``_hist_index`` order), filled one stop
    node at a time, so a set that fails a check names the node at fault."""
    stime = np.zeros(y**n, dtype=np.int64)
    for node in sorted(stops, key=len):  # shorter first: an overlap names the longer node
        if not 1 <= len(node) <= n:
            raise SchemaError(f"stop node {node} outside 1..{n}")
        width = y ** (n - len(node))
        block = stime[_symbol_index(node, y) * width :][:width]
        if block.any():
            raise SchemaError(f"stop set is not prefix-minimal at {node}")
        block[:] = len(node)
    unstopped = np.flatnonzero(stime == 0)
    if unstopped.size:
        raise SchemaError(f"rule never stops along {_path_at(unstopped[0], y, n)}")
    return stime


@dataclass(frozen=True, eq=False, init=False)
class StoppingRule:
    """A stopping time on the output filtration, held as its read-only
    stop-time table: ``stop_times[i]`` is T on the i-th full-horizon output
    path (``_hist_index`` order).  Read off it on first access are
    ``stopped_nodes``, whether it has stopped at each history of length
    0..horizon-1 (``_level_offsets`` layout), and ``stops``, its stop nodes.

    ``StoppingRule(horizon, y_size, stops)`` checks a stop set: a set of
    output sequences, every symbol in the alphabet, every length in
    1..horizon, no stop node below another, and a stop node on every full
    path.  ``fixed`` and ``enumerate_stopping_rules`` build stop times
    valid by construction.
    """

    horizon: int
    y_size: int
    stop_times: np.ndarray = field(repr=False)

    def __init__(self, horizon: int, y_size: int, stops: Iterable[Sequence[int]]) -> None:
        try:
            stops = frozenset(tuple(s) for s in stops)
        except TypeError:
            raise SchemaError(f"stop set {stops!r} is not a set of output sequences") from None
        _check_rule_tree(horizon, y_size)
        stime = _stop_time_table(stops, horizon, y_size)
        stime.flags.writeable = False
        self.__dict__.update(horizon=horizon, y_size=y_size, stop_times=stime, stops=stops)

    @classmethod
    def _of_times(cls, horizon: int, y_size: int, stop_times: np.ndarray) -> "StoppingRule":
        """A rule whose stop times are valid by construction, unchecked."""
        stop_times.flags.writeable = False
        rule = cls.__new__(cls)
        rule.__dict__.update(horizon=horizon, y_size=y_size, stop_times=stop_times)
        return rule

    @classmethod
    def fixed(cls, t: int, horizon: int, y_size: int) -> "StoppingRule":
        """Deterministic T identically equal to t."""
        if isinstance(t, bool) or not isinstance(t, (int, np.integer)) or not 1 <= t <= horizon:
            raise SchemaError("fixed stopping time must lie in 1..horizon")
        _check_rule_tree(horizon, y_size)
        return cls._of_times(horizon, y_size, np.full(y_size**horizon, t, dtype=np.int64))

    @cached_property
    def stopped_nodes(self) -> np.ndarray:
        """A history has stopped when its first path stops within it."""
        n, y, stime = self.horizon, self.y_size, self.stop_times
        stopped = np.concatenate([stime[:: y ** (n - t)] <= t for t in range(n)])
        stopped.flags.writeable = False
        return stopped

    @cached_property
    def stops(self) -> frozenset[tuple[int, ...]]:
        """Each stop node is the first path of its block, cut at its time."""
        n, y, stime = self.horizon, self.y_size, self.stop_times
        heads = np.flatnonzero(np.arange(y**n) % y ** (n - stime) == 0)
        paths = (heads[:, None] // y ** np.arange(n - 1, -1, -1) % y).tolist()
        return frozenset(tuple(p[:t]) for p, t in zip(paths, stime[heads].tolist()))

    def tables_at(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """(stopped, times) for a law of horizon n: the stopped mask over
        histories of length 0..n-1 and the stop-time entry of every length-n
        path.  Past the rule's horizon every history is stopped.  Below it,
        an entry of ``times`` greater than n means the path has no stopped
        prefix within its n symbols."""
        h, y = self.horizon, self.y_size
        check_tree_size(y, n)
        if n >= h:
            stopped = np.ones(_level_offsets(y, n)[n], dtype=bool)
            stopped[: self.stopped_nodes.size] = self.stopped_nodes
            return stopped, np.repeat(self.stop_times, y ** (n - h))
        return self.stopped_nodes[: _level_offsets(y, n)[n]], self.stop_times[:: y ** (h - n)]

    def dominates(self, other: "StoppingRule") -> bool:
        """True when this rule stops no later than ``other`` on every path."""
        if other.y_size != self.y_size:
            raise SchemaError("rules over different output alphabets")
        _, theirs = other.tables_at(self.horizon)
        # past ``other``'s horizon its times are capped; before it, a time
        # beyond this horizon means ``other`` never stops along the path
        bad = np.flatnonzero((self.stop_times > theirs) | (theirs > self.horizon))
        if bad.size and theirs[bad[0]] > self.horizon:
            path = _path_at(bad[0], self.y_size, self.horizon)
            raise SchemaError(f"path {path} has no stopped prefix")
        return bad.size == 0


def enumerate_stopping_rules(horizon: int, y_size: int, cap: int = 10**5) -> list[StoppingRule]:
    """All prefix-minimal bounded stopping rules up to the horizon, as
    stop-time rows built from the deepest level up: below a node at depth
    d, the rule that stops there (d > 0 only), then one per combination of
    its children's rules in ``itertools.product`` order.  Their count,
    1 + k_{d+1}^y (k_1^y at the root), is checked before any row is built:
    BudgetExceededError past ``cap``, where callers fall back to fixed T.
    """
    n, y = horizon, y_size
    _check_rule_tree(n, y)
    count = 1
    for depth in range(n - 1, -1, -1):
        count = count**y + (depth > 0)
        if count > cap:
            raise BudgetExceededError(f"stopping-rule count exceeds cap {cap} at horizon {n}")
    rows = np.full((1, 1), n, dtype=np.int64)  # the one rule below a depth-n node
    for depth in range(n - 1, -1, -1):
        # (symbol, combination, path): the child rules of each combination
        combos = rows[np.indices((len(rows),) * y).reshape(y, -1)]
        rows = combos.transpose(1, 0, 2).reshape(combos.shape[1], -1)
        if depth:
            rows = np.concatenate((np.full((1, rows.shape[1]), depth), rows))
    return [StoppingRule._of_times(n, y, times) for times in rows]


# ---------------------------------------------------------------------------
# joint law
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JointLaw:
    """Exact joint law of (W, X^N, S^N, Y^N): its trajectories and its
    per-output-history tables, as flat arrays.

    The output nodes are the realizable output histories y^t, t = 0..N,
    numbered level by level and, within a level, in order of first
    appearance along the trajectories; level t has ``sizes[t]`` nodes.  Per
    node:

    - node_parent, node_symbol: the parent node (-1 at the root) and the
      last output symbol, so y^t reads off the parent chain
    - node_prob: P(Y^t = y^t)
    - w_post: the posterior over messages, shape (nodes, M)

    Per node y^{t-1} of levels 0..N-1, the history before step t:

    - xy_node: the joint P(X_t, Y_t | y^{t-1}), shape (inner nodes, X, Y)
    - wy_node: the joint P(W, Y_t | y^{t-1}), shape (inner nodes, M, Y)

    A history's ``_hist_index`` passes 64 bits after 63 binary levels,
    which a noiseless channel reaches within any trajectory budget, so the
    law keeps parent links and ``node_table`` forms the indices after its
    tree-size check.

    The trajectories are ``prob``, in depth-first order, and per step t the
    pair ``steps[t - 1]``: each length-t prefix's parent prefix (a message
    at t = 1; behavioral laws have the one message 0) and the rows (output
    node, x_t, y_t, s_t).  ``trajectories`` is built from them on first
    access.
    """

    channel: Channel
    policy: InputPolicy
    horizon: int
    messages: int
    prob: np.ndarray = field(repr=False)
    steps: tuple[tuple[np.ndarray, np.ndarray], ...] = field(repr=False)
    sizes: tuple[int, ...] = field(repr=False)
    node_parent: np.ndarray = field(repr=False)
    node_symbol: np.ndarray = field(repr=False)
    node_prob: np.ndarray = field(repr=False)
    w_post: np.ndarray = field(repr=False)
    xy_node: np.ndarray = field(repr=False)
    wy_node: np.ndarray = field(repr=False)

    @property
    def is_message_form(self) -> bool:
        return self.policy.is_message_form

    def total_mass(self) -> float:
        """Sum of the trajectory probabilities, in trajectory order."""
        return sum(self.prob.tolist())

    @cached_property
    def trajectories(self) -> dict[tuple[int, tuple[int, ...], tuple[int, ...], tuple[int, ...]], float]:
        """(w, x-tuple, s-tuple, y-tuple) -> probability, in depth-first
        order."""
        up = np.arange(self.prob.size)
        symbols = np.empty((3, self.prob.size, self.horizon), dtype=np.intp)
        for t in range(self.horizon, 0, -1):
            par, info = self.steps[t - 1]
            symbols[:, :, t - 1] = info[1:].take(up, axis=1)
            up = par.take(up)
        x, y, s = (map(tuple, a.tolist()) for a in symbols)
        return dict(zip(zip(up.tolist(), x, s, y), self.prob.tolist()))


def _first_appearance(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Number the distinct keys (nonnegative integers) 0, 1, ... in order of
    first appearance: (each key's number, the position where each number
    first appears).  The keys index a direct-address table; every caller's
    keys are below (the previous level's count) x X x Y."""
    count = keys.size
    first = np.full(int(keys.max(initial=-1)) + 1, count)
    position = np.arange(count)
    np.minimum.at(first, keys, position)
    first = first.take(keys)  # the first position of each key
    head = first == position
    return (head.cumsum() - 1).take(first), head.nonzero()[0]


def _node_index(parent: np.ndarray, symbol: np.ndarray, sizes, y_size: int) -> np.ndarray:
    """Each output node's ``_hist_index``, read level by level off its
    parent node and last symbol (a law's ``node_parent`` and
    ``node_symbol``).  It passes 64 bits after 63 binary levels, so callers
    form it only for an output tree within ``check_tree_size``."""
    index = np.zeros(parent.size, dtype=np.int64)
    bounds = list(itertools.accumulate(sizes, initial=0))
    for lo, hi in zip(bounds[1:-1], bounds[2:]):
        index[lo:hi] = index.take(parent[lo:hi]) * y_size + symbol[lo:hi]
    return index


def _check_cap(ch: Channel, horizon: int) -> None:
    cap = ch.kernel.horizon_cap()
    if cap is not None and horizon > cap:
        raise SchemaError(f"state kernel only defines {cap} steps, horizon={horizon}")


def _over_budget(count, t: int, horizon: int, budget: int) -> BudgetExceededError:
    return BudgetExceededError(f"{count} live trajectories at step {t} of horizon {horizon} "
                               f"exceed the trajectory budget {budget}")


def _grow(ch: Channel, horizon: int, budget: int, m: int, laws: int, inputs):
    """Form the trajectories of ``laws`` laws over shared prefixes (w, x^t,
    s^t, y^t), one level per step: the one loop behind ``forward_joint``
    (one law) and ``encoder_tables`` (many).  Level 0 holds the m
    equiprobable messages.

    ``inputs(t, laws, msg, steps)`` gives the step-t inputs of the first
    ``laws`` laws at every prefix, from the prefixes' messages and the
    steps so far: (x, None), x[g, k] law g's input at prefix k, or (None,
    px), px[0, k] the input law at prefix k of one behavioral law.  Every
    child (prefix, x, s, y) is formed in one array pass, in C order (the
    depth-first order over (w, x_1, s_1, y_1, x_2, ...)), with probability
    ((p * px) * ps) * q, ps read off the kernel's ``use_table(t)`` at the
    prefix's ``StateKernel.rows``; a message-form law has no px (p * 1.0 == p).

    A child is live for a law when its prefix is and no factor is zero: a
    zero factor prunes, an underflowed product does not.  A child some law
    keeps stays in the arrays, with probability 0.0 for the others, which
    adds exact zeros to their sums; one no law keeps is dropped.  Output
    nodes are the children's (parent node, y), numbered within a level in
    order of first appearance.

    A law fails at its first step that reads an input outside the alphabet
    at a live prefix or leaves more live trajectories than ``budget``.  The
    laws from the first failing one on end there, and their inputs are not
    read again; when the loop ends, the first failing law's error is
    raised, which is what building the laws one at a time, in order, raises
    first.  Every live prefix has a live child (every row sums to 1), so
    level sizes never shrink and the check at each level fails exactly when
    the final count would.

    Returns (prob, lives, msg, steps, sizes, parents, symbols): the last
    level's probabilities (laws x trajectories), each level's live mask
    (laws x prefixes), each trajectory's message, per step each child's
    parent prefix and rows (output node, x of each law, y, s), and per
    level its node count; and each node's parent and last symbol (-1 at
    the root), the nodes of all levels numbered in one sequence.
    """
    spec, kernel = ch.spec, ch.kernel
    xn, sn, yn = spec.x_size, spec.s_size, spec.y_size
    q = spec.q.transpose(1, 0, 2)  # (x, s, y), the children's order
    q_live = q != 0.0
    if m > budget:
        raise _over_budget(m, 0, horizon, budget)
    prob = np.full((laws, m), 1.0 / m)
    live = np.ones((laws, m), dtype=bool)
    msg = np.arange(m)
    node = s_mem = np.zeros(m, dtype=np.intp)  # per prefix, shared by the laws
    x_mem = np.zeros((laws, m), dtype=np.intp)
    steps, lives, sizes, parents, symbols = [], [live], [1], [np.array([-1])], [np.array([-1])]
    failed = None  # the first failing law's error; the laws end before it
    for t in range(1, horizon + 1):
        x, px = inputs(t, laws, msg, steps)
        if px is None:
            bad = (live & ((x < 0) | (x >= xn))).any(axis=1)
            if bad.any():
                laws = int(bad.argmax())
                failed = SchemaError(f"encoder input outside 0..{xn - 1} at t={t}")
                prob, live, x_mem, x = (a[:laws] for a in (prob, live, x_mem, x))
            x = np.where(live, x, 0)[:, :, None]  # an unread input of a pruned prefix
        else:
            x = np.arange(xn)[None, None]
        row, s_mem, x_mem = kernel.rows(t, s_mem, x_mem)
        ps = kernel.use_table(t).reshape(-1, sn)[row][:, :, None, :, None]
        # children over (law, prefix, x, s, y): head = (p * px) * ps, which
        # the channel rows multiply once the failed laws are cut
        head = prob[:, :, None, None, None]
        kid_live = q_live.take(x, 0) & live[:, :, None, None, None]
        if px is not None:
            head = head * px[:, :, :, None, None]
            kid_live = kid_live & (px > 0.0)[:, :, :, None, None]
        head = head * ps
        if np.count_nonzero(ps) < ps.size:
            kid_live = kid_live & (ps != 0.0)
        shape = kid_live.shape[1:]
        counts = np.count_nonzero(kid_live, axis=(1, 2, 3, 4))
        if (counts > budget).any():
            laws = int((counts > budget).argmax())
            failed = _over_budget(counts[laws], t, horizon, budget)
            kid_live, head, x, x_mem = (a[:laws] for a in (kid_live, head, x, x_mem))
        if not laws:
            break
        kid_live = kid_live.reshape(laws, -1)
        kids = (kid_live[0] if laws == 1 else kid_live.any(axis=0)).nonzero()[0]
        prob = (head * q.take(x, 0)).reshape(laws, -1).take(kids, axis=1)
        live = kid_live.take(kids, axis=1)
        par, c, s, y = np.unravel_index(kids, shape)
        x = c[None] if px is not None else x[:, :, 0].take(par, axis=1)
        msg = msg.take(par)
        key = node.take(par) * yn + y
        node, first = _first_appearance(key)
        key, base = key.take(first), sum(sizes)  # base: the level's first node
        parents.append(key // yn + (base - sizes[-1]))
        symbols.append(key % yn)
        steps.append((par, np.concatenate(((node + base)[None], x, y[None], s[None]))))
        lives.append(live)
        sizes.append(first.size)
        if t < horizon:
            s_mem, x_mem = kernel.advance(s_mem.take(par), x_mem.take(par, axis=1), s, x)
    if failed is not None:
        raise failed
    return prob, lives, msg, steps, sizes, np.concatenate(parents), np.concatenate(symbols)


def _table_inputs(tables, m: int, y_size: int):
    """``_grow``'s inputs read off the step tables ``tables[t - 1][g, w,
    i]`` of one encoder per law.  The history index i wraps past 63 binary
    levels, where only a width-1 table can be read."""
    hist = np.zeros(m, dtype=np.intp)  # each prefix's output-history index

    def inputs(t, laws, msg, steps):
        nonlocal hist
        if steps:
            par, rows = steps[-1]
            hist = hist.take(par) * y_size + rows[-2]
        step = tables[t - 1]
        return step[:laws, msg, hist % step.shape[2]], None

    return inputs


def _row_index(x_size: int, y_size: int):
    """Each step-t prefix's row of ``InputPolicy.rows``, at its input- and
    output-history indices: a function of (t, steps), called at t = 1, 2,
    ... with the steps of one behavioral law so far (``_grow``'s)."""
    xh = yh = np.zeros(1, dtype=np.intp)
    start = 0  # the first row of step t

    def index(t, steps):
        nonlocal xh, yh, start
        if steps:
            par, (_, x, y, _) = steps[-1]
            xh, yh = xh.take(par) * x_size + x, yh.take(par) * y_size + y
            start += (x_size * y_size) ** (t - 2)
        return start + xh * y_size ** (t - 1) + yh

    return index


def forward_joint(
    ch: Channel,
    policy: InputPolicy,
    horizon: int,
    budget: int = DEFAULT_TRAJECTORY_BUDGET,
) -> JointLaw:
    """Enumerate the exact joint law over all positive-probability
    trajectories of length ``horizon``: ``_grow`` with one law, whose
    inputs are read off the policy's arrays (``_table_inputs`` or
    ``_row_index``), and its tables from ``_level_tables`` over the same
    level arrays.

    Raises BudgetExceededError when the live trajectory count would exceed
    ``budget``, naming the count and step reached, and SchemaError for a
    negative horizon, a horizon the kernel cannot drive, a policy that
    does not fit the law, or an encoder input outside the alphabet.
    """
    spec = ch.spec
    if horizon < 0:
        raise SchemaError(f"horizon must be >= 0, got {horizon}")
    _check_cap(ch, horizon)
    if policy.horizon < horizon:
        raise SchemaError("policy horizon shorter than requested law horizon")
    if policy.x_size != spec.x_size or policy.y_size != spec.y_size:
        raise SchemaError("policy alphabet sizes do not match the channel")
    if policy.is_message_form:
        m = policy.messages
        inputs = _table_inputs([s[None] for s in policy.tables], m, spec.y_size)
    else:
        m, row = 1, _row_index(spec.x_size, spec.y_size)

        def inputs(t, laws, msg, steps):  # one row per prefix
            return None, policy.rows[row(t, steps)][None]
    prob, lives, msg, steps, sizes, parents, symbols = _grow(ch, horizon, budget, m, 1, inputs)
    del lives  # one law's masks are all true; free them before the tables
    node_prob, w_post, xy_node, wy_node = (
        table[0] for table in _level_tables(prob, msg, steps, sizes, m, spec.x_size, spec.y_size))
    return JointLaw(
        channel=ch,
        policy=policy,
        horizon=horizon,
        messages=m,
        prob=prob[0],
        steps=tuple(steps),
        sizes=tuple(sizes),
        node_parent=parents,
        node_symbol=symbols,
        node_prob=node_prob,
        w_post=w_post,
        xy_node=xy_node,
        wy_node=wy_node,
    )


def encoder_tables(ch: Channel, tables, horizon: int, budget: int = DEFAULT_TRAJECTORY_BUDGET):
    """The output-history tables of many deterministic encoders' laws,
    each bit for bit its own law's: ``_grow`` with one law per encoder.
    ``tables[t - 1][g, w, i]`` is encoder g's step table at step t, in
    ``InputPolicy``'s message form with a leading encoder axis (the
    exponent search's are digit arrays, ``bound_engine._encoder_steps``),
    read only where the encoder's law reaches.  Each encoder's nodes are
    numbered by their first live trajectory, as ``forward_joint`` numbers
    them, and the ones it cannot reach come last in their level, with
    zeros.  Raises ``forward_joint``'s error for the first encoder whose
    law fails.

    Returns ``reweighted_tables``' (sizes, index, node_prob, xy_node).
    """
    _check_cap(ch, horizon)
    laws, m = tables[0].shape[:2]
    xn, yn = ch.spec.x_size, ch.spec.y_size
    prob, lives, msg, steps, sizes, parents, symbols = _grow(
        ch, horizon, budget, m, laws, _table_inputs(tables, m, yn))
    # each level's prefixes by output node; level 0's are all at the root
    firsts, base = [], 0
    for live, (_, rows) in zip(lives, [(None, np.zeros((1, m), dtype=np.intp))] + steps):
        firsts.append(_first_live(live, *_node_groups(rows[0]), base))
        base += rows.shape[1] + 1  # past every key of the level
    index = _node_index(parents, symbols, sizes, yn)
    return _own_order_tables(prob, msg, steps, sizes, m, xn, yn, firsts, index)


def reweighted_tables(law: JointLaw, px: np.ndarray):
    """The output-history tables of many behavioral policies' laws, each
    valued as a reweighting of the trajectories of ``law``: it forms no
    trajectory, so one law serves every batch of policies a search values.

    ``law`` is the law of a behavioral policy with no zero entry, such as
    the uniform one, so its support contains every policy's.  ``px[g]``
    holds policy g's rows P(x_t | x^{t-1}, y^{t-1}), one per key of
    ``_policy_row_keys(law.channel, N)`` in that order, shape (policies,
    rows, X).

    Per step, each trajectory's probability is ``forward_joint``'s product
    ((p * px) * ps) * q with the policy's factor px, and a trajectory is
    live when its parent is and px > 0: ``forward_joint`` prunes on a zero
    factor, not on an underflowed product.  A pruned trajectory keeps
    probability 0.0, which adds an exact 0.0 to every table sum, so the
    tables hold ``_level_tables``' sums over the policy's own trajectories,
    in their order.  A node with no live trajectory is one the policy
    cannot reach; the rest are numbered, level by level, by their first live
    trajectory, which is ``forward_joint``'s order of first appearance.
    That order can differ from the law's when a channel row has a zero: with
    Q[x=0] = (0, 1), a policy that never sends 0 reaches y = 0 first.

    Returns (sizes, index, node_prob, xy_node): the shared level sizes and,
    per policy, its nodes' ``_hist_index``, probability and (levels
    0..N-1) joint P(X_t, Y_t | y^{t-1}), in its own node order.  The nodes
    a policy cannot reach come last in their level, with probability 0.0
    and joint rows of 0.0, so they add exact zeros to any sum.
    """
    plan = law.__dict__.get("_reweighting")
    if plan is None:
        plan = _reweighting_plan(law)
        object.__setattr__(law, "_reweighting", plan)
    levels, rows, index = plan
    spec = law.channel.spec
    if px.ndim != 3 or px.shape[1:] != (rows, spec.x_size):
        raise SchemaError(f"policy rows of shape {px.shape} are not (policies, {rows}, "
                          f"{spec.x_size})")
    laws = px.shape[0]
    px = px.reshape(laws, -1)
    prob = np.ones((laws, 1))
    live = np.ones((laws, 1), dtype=bool)
    firsts = [(np.zeros((laws, 1), dtype=np.intp), live)]  # the root
    for par, entry, ps, q, groups, base in levels:
        factor = px.take(entry, axis=1)
        prob = ((prob.take(par, axis=1) * factor) * ps) * q
        live = live.take(par, axis=1) & (factor > 0.0)
        firsts.append(_first_live(live, *groups, base))
    return _own_order_tables(prob, np.zeros(prob.shape[1], dtype=np.intp), law.steps, law.sizes,
                             1, spec.x_size, spec.y_size, firsts, index)


def _node_groups(node: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A level's trajectories grouped by output node: an ordering by node,
    and each node's first place in it."""
    by_node = np.argsort(node, kind="stable")
    return by_node, np.flatnonzero(np.diff(node.take(by_node), prepend=-1))


def _first_live(live, by_node, starts, base):
    """Per law (row of ``live``, laws x trajectories of one level), the sort
    key of each of the level's output nodes, base plus its first live
    trajectory (base plus the trajectory count when it has none), and
    whether it has one; ``by_node`` and ``starts`` are ``_node_groups``."""
    count = live.shape[1]
    first = np.minimum.reduceat(
        np.where(live, np.arange(count), count).take(by_node, axis=1), starts, axis=1)
    return first + base, first < count


def _own_order_tables(prob, msg, steps, sizes, m, xn, yn, firsts, index):
    """``_level_tables``' node_prob and xy_node of laws over shared
    trajectories, each law's nodes in its own order, sorted by the
    per-level ``_first_live`` results ``firsts``: (sizes, index,
    node_prob, xy_node), ``index`` the shared nodes' ``_hist_index`` taken
    in each law's order."""
    keys, reach = (np.concatenate(part, axis=1) for part in zip(*firsts))
    order = np.argsort(keys, axis=1, kind="stable")
    node_prob, _, xy_node, _ = _level_tables(prob, msg, steps, sizes, m, xn, yn, reach)
    lanes = np.arange(prob.shape[0])[:, None]
    return (tuple(sizes), index.take(order), node_prob[lanes, order],
            xy_node[lanes, order[:, : xy_node.shape[1]]])


def _reweighting_plan(law: JointLaw):
    """The policy-free part of ``reweighted_tables``: per step, each
    trajectory's parent, the position of its policy factor among the
    flattened rows, its state and channel factors, the level's
    ``_node_groups`` and key base; the row count; and each node's
    ``_hist_index``."""
    if law.is_message_form or law.policy.rows.min() <= 0.0:
        raise SchemaError("reweighting needs the law of a behavioral policy with no zero entry")
    spec, kernel = law.channel.spec, law.channel.kernel
    xn, sn, yn = spec.x_size, spec.s_size, spec.y_size
    check_tree_size(yn, law.horizon)
    s_mem = x_mem = np.zeros(1, dtype=np.intp)
    levels, row, base = [], _row_index(xn, yn), 1
    for t, (par, (node, x, y, s)) in enumerate(law.steps, start=1):
        at, s_mem, x_mem = kernel.rows(t, s_mem, x_mem)
        ps = kernel.use_table(t).reshape(-1, sn)[at.take(par), s]
        entry = row(t, law.steps[: t - 1]).take(par) * xn + x
        levels.append((par, entry, ps, spec.q[s, x, y], _node_groups(node), base))
        base += par.size + 1
        s_mem, x_mem = kernel.advance(s_mem.take(par), x_mem.take(par), s, x)
    rows = _policy_row_count(xn, yn, law.horizon)
    return levels, rows, _node_index(law.node_parent, law.node_symbol, law.sizes, yn)


def _level_tables(prob, msg, steps, sizes, m, xn, yn, reach=None):
    """(node_prob, w_post, xy_node, wy_node) from the level arrays of
    ``_grow``, of one law per row of ``prob`` (laws x trajectories): laws
    over the same trajectories with their own probabilities, such as the
    policies of ``reweighted_tables``.  Each table has that leading axis.
    A step's rows are (output node, x, y, s), with one x row that the laws
    share, or one per law.

    Each table is one ``np.bincount`` over every full trajectory at every
    level, of every law, with the output nodes of all levels numbered in one
    sequence and a bin offset per law.  bincount adds the weights of a bin
    in input order from 0.0, so each entry is the same running sum, over
    trajectories in order, as a per-node accumulation.  Every node has a
    trajectory through it, so no row divides 0 by 0 unless its probability
    underflows; nodes outside ``reach`` (a mask shaped as node_prob) have no
    mass, and their conditional rows are 0.0.

    A bin belongs to one level, so the levels can be counted in passes,
    from the horizon down, without changing a sum; a pass covers at most
    ``_PASS_SIZE`` trajectory-levels, which bounds the index arrays of a
    large law.  A small law takes one pass.
    """
    horizon = len(steps)
    laws, count = prob.shape
    width = len(steps[0][1]) - 1 if steps else 3  # (output node, x..., y)
    offsets = list(itertools.accumulate(sizes, initial=0))
    nodes, inner = offsets[-1], offsets[-2]  # levels 0..N, and 0..N-1
    span = max(1, _PASS_SIZE // (laws * count))
    up = np.arange(count)  # each trajectory's prefix at the level being read
    lane = np.arange(laws)[:, None, None]  # the law of each weight
    above = None  # (x, y) of the level above the pass
    parts = []
    for hi in range(horizon, -1, -span):
        lo = max(hi - span + 1, 0)
        k, ks = hi - lo + 1, min(hi, horizon - 1) - lo + 1
        # cols[:, j] = (output node, x, y) of every trajectory at level
        # lo + j; column k is the level above, which only needs (x, y)
        cols = np.empty((width, k + 1, count), dtype=np.intp)
        for t in range(hi, max(lo, 1) - 1, -1):
            par, info = steps[t - 1]
            cols[:, t - lo] = info[:width].take(up, axis=1)
            up = par.take(up)
        if lo == 0:
            cols[0, 0] = 0
        if above is not None:
            cols[1:, k] = above
        above = cols[1:, 0].copy()
        node, x, y = cols[0, :k], cols[1:-1, 1 : ks + 1], cols[-1, 1 : ks + 1]
        if offsets[lo]:
            node -= offsets[lo]
        prev = node[:ks]
        weights = np.broadcast_to(prob[:, None], (laws, k, count)).ravel()
        inner_weights = weights.reshape(laws, k * count)[:, : ks * count].ravel()
        size, size_inner = offsets[hi + 1] - offsets[lo], offsets[lo + ks] - offsets[lo]
        parts.append((
            np.bincount((lane * size + node).ravel(), weights, laws * size),
            np.bincount((lane * (size * m) + (node * m + msg)).ravel(), weights,
                        laws * size * m),
            np.bincount((lane * (size_inner * xn * yn) + ((prev * xn + x) * yn + y)).ravel(),
                        inner_weights, laws * size_inner * xn * yn),
            np.bincount((lane * (size_inner * m * yn) + ((prev * m + msg) * yn + y)).ravel(),
                        inner_weights, laws * size_inner * m * yn),
        ))
    node_mass, w_mass, xy_mass, wy_mass = (
        part[0].reshape(laws, -1) if len(parts) == 1
        else np.concatenate([a.reshape(laws, -1) for a in part[::-1]], axis=1)
        for part in zip(*parts)
    )
    den = node_mass if reach is None else np.where(reach, node_mass, 1.0)
    return (
        node_mass,
        w_mass.reshape(laws, nodes, m) / den[:, :, None],
        xy_mass.reshape(laws, inner, xn, yn) / den[:, :inner, None, None],
        wy_mass.reshape(laws, inner, m, yn) / den[:, :inner, None, None],
    )
