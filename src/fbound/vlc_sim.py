"""Variable-length feedback coding simulator: send-and-confirm schemes with
block repeats, Monte Carlo and exact evaluation.

A scheme runs in blocks of n1 data uses plus n2 confirm uses.  The receiver
decodes the data block by maximum metric (ties to the lowest message), the
transmitter — which sees the outputs over the feedback link — sends the
"ack" symbol when the decode is right and the "nack" symbol otherwise, and
the receiver accepts when the confirm log-likelihood ratio clears the
threshold.  Rejected blocks repeat with the same message, up to ``cap``
blocks; the final block's tentative decision is forced.

Randomness convention (load-bearing for reproducibility): trial ``t`` of a
run with seed ``s`` draws everything from ``Philox(key=[s, t])`` (two
unsigned 64-bit key words) as one flat uniform vector
``d = Generator(Philox(key=[s, t])).random(1 + 2*N)`` with
``N = cap*(n1+n2)``: ``d[0]`` picks the message, ``d[1:N+1]`` drive the
state draws position by position, ``d[N+1:]`` drive the output draws (a
single-state channel draws its one state too).  Each chunk of trials keeps
one Philox bit generator and one ``Generator``; before each trial it sets
the bit generator's state, as plain Python ints, to a fresh
``Philox(key=[s, t])``'s (zero counter, empty buffer) and draws the trial's
row straight into the chunk's block (``_draw_uniforms``).  That gives the
same draws as a fresh generator per trial, for every seed up to 2**64 - 1.
A draw ``u`` picks the first index whose cumulative probability reaches
``u`` (searchsorted, side "left"), so a draw on a cumulative entry goes to
the lower index.

There is one Monte Carlo path for every channel, and it and the exact
evaluation are array passes: a chunk of trials, or one level of a message's
output tree, advances one channel use at a time, the state process stepped
through the kernel's per-use table.  Every sum that reaches a result runs
in the order of a per-trial or depth-first recursive loop (metrics in
position order from 0.0, exact Pe and E[T] sequentially over the leaves in
depth-first order), and every product is one a per-node loop computes bit
for bit, so outputs are the same bits as those loops give
(``tests/oracles.py`` keeps them).

Decoding on channels with states uses the entry-wise state-averaged matrix
under the initial state law as a (mismatched) memoryless metric; on a
single-state channel this is exact maximum likelihood.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .channel_model import BudgetExceededError, Channel, SchemaError, check_seed
from .info_measures import ordered_sum, row_divergences

__all__ = [
    "SchemeSpec",
    "RunStats",
    "ExactStats",
    "build_yamamoto_itoh",
    "build_repetition_confirm",
    "parse_scheme",
    "serialize_scheme",
    "load_scheme",
    "dump_scheme",
    "simulate",
    "exact_stats",
    "exponent_sweep",
    "CSV_COLUMNS",
]

SCHEME_VARIANTS = ("yamamoto_itoh", "repetition_confirm", "user_table")
EXACT_BUDGET = 10**6
SIM_CHUNK = 20_000  # trials per array pass of the Monte Carlo
CSV_COLUMNS = (
    "M", "n1", "n2", "cap", "trials",
    "Pe", "Pe_lo", "Pe_hi", "ET", "R", "E", "E_lo", "E_hi",
)


@dataclass(frozen=True)
class SchemeSpec:
    """A send-and-confirm scheme: data codebook plus confirm symbol pair."""

    variant: str
    m: int
    n1: int
    n2: int
    cap: int
    x_size: int
    codebook: tuple[tuple[int, ...], ...]
    confirm: tuple[int, int]
    threshold: float = 0.0
    name: str = ""

    def __post_init__(self) -> None:
        if self.variant not in SCHEME_VARIANTS:
            raise SchemaError(f"unknown scheme variant {self.variant!r}")
        if self.m < 2:
            raise SchemaError("need at least two messages")
        if min(self.n1, self.n2, self.cap) < 1:
            raise SchemaError("n1, n2 and cap must be positive")
        if len(self.codebook) != self.m:
            raise SchemaError("codebook must have one row per message")
        seen = set()
        for row in self.codebook:
            if len(row) != self.n1:
                raise SchemaError("codeword length must equal n1")
            if not all(0 <= x < self.x_size for x in row):
                raise SchemaError("codeword symbol out of range")
            if row in seen:
                raise SchemaError("codewords must be distinct")
            seen.add(row)
        xa, xn = self.confirm
        if xa == xn or not (0 <= xa < self.x_size and 0 <= xn < self.x_size):
            raise SchemaError("confirm pair must be two distinct valid symbols")
        if math.isnan(self.threshold):
            raise SchemaError("confirm threshold must be a number, not NaN")

    @property
    def block_len(self) -> int:
        return self.n1 + self.n2

    @property
    def max_uses(self) -> int:
        return self.cap * self.block_len


def serialize_scheme(scheme: SchemeSpec) -> str:
    payload = {
        "variant": scheme.variant,
        "name": scheme.name,
        "m": scheme.m,
        "n1": scheme.n1,
        "n2": scheme.n2,
        "cap": scheme.cap,
        "x_size": scheme.x_size,
        "threshold": scheme.threshold,
        "codebook": [list(row) for row in scheme.codebook],
        "confirm": list(scheme.confirm),
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def parse_scheme(text: str) -> SchemeSpec:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as e:
        raise SchemaError(f"scheme file is not valid JSON: {e}") from e
    try:
        return SchemeSpec(
            variant=payload["variant"],
            name=payload.get("name", ""),
            m=int(payload["m"]),
            n1=int(payload["n1"]),
            n2=int(payload["n2"]),
            cap=int(payload["cap"]),
            x_size=int(payload["x_size"]),
            threshold=float(payload.get("threshold", 0.0)),
            codebook=tuple(tuple(int(x) for x in row) for row in payload["codebook"]),
            confirm=tuple(int(x) for x in payload["confirm"]),
        )
    except KeyError as e:
        raise SchemaError(f"scheme file missing field {e}") from e


def load_scheme(path) -> SchemeSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scheme(fh.read())


def dump_scheme(scheme: SchemeSpec, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_scheme(scheme))


def _metric_matrix(ch: Channel) -> np.ndarray:
    """State-averaged single-letter matrix under the initial state law."""
    init = ch.kernel.distribution(1, (), ())
    return np.einsum("s,sxy->xy", init, ch.spec.q)


def _confirm_pair(qbar: np.ndarray) -> tuple[int, int]:
    """Row pair a != b of largest D(a || b); ties to the lowest (a, b)."""
    if qbar.shape[0] < 2:
        return (0, 1)
    div = row_divergences(qbar)
    np.fill_diagonal(div, -np.inf)
    a, b = np.unravel_index(np.argmax(div), div.shape)
    return int(a), int(b)


def build_yamamoto_itoh(
    ch: Channel,
    m: int,
    n1: int,
    n2: int,
    cap: int,
    seed: int = 0,
    threshold: float = 0.0,
    name: str = "",
) -> SchemeSpec:
    """Random distinct data codebook (seeded) + the most distinguishable
    confirm pair (largest one-way divergence, ties to the lowest indices)."""
    x_size = ch.spec.x_size
    if x_size**n1 < m:
        raise SchemaError("codeword space too small for m distinct rows")
    rng = np.random.default_rng(seed)
    rows: list[tuple[int, ...]] = []
    seen = set()
    while len(rows) < m:
        row = tuple(int(v) for v in rng.integers(0, x_size, size=n1))
        if row not in seen:
            seen.add(row)
            rows.append(row)
    qbar = _metric_matrix(ch)
    return SchemeSpec(
        variant="yamamoto_itoh",
        m=m, n1=n1, n2=n2, cap=cap, x_size=x_size,
        codebook=tuple(rows),
        confirm=_confirm_pair(qbar),
        threshold=threshold,
        name=name or f"yi_m{m}_n{n1}+{n2}_cap{cap}",
    )


def build_repetition_confirm(
    ch: Channel, m: int, n1: int, n2: int, cap: int, threshold: float = 0.0, name: str = ""
) -> SchemeSpec:
    """Each message repeats its own symbol through the data phase."""
    if m > ch.spec.x_size:
        raise SchemaError("repetition data phase needs m <= |X|")
    qbar = _metric_matrix(ch)
    return SchemeSpec(
        variant="repetition_confirm",
        m=m, n1=n1, n2=n2, cap=cap, x_size=ch.spec.x_size,
        codebook=tuple((w,) * n1 for w in range(m)),
        confirm=_confirm_pair(qbar),
        threshold=threshold,
        name=name or f"rep_m{m}_n{n1}+{n2}_cap{cap}",
    )


# ---------------------------------------------------------------------------
# run statistics
# ---------------------------------------------------------------------------


def _clopper_pearson(k: int, n: int, level: float = 0.95) -> tuple[float, float]:
    """Exact binomial interval from beta quantiles (``betaincinv``).

    scipy is imported here, not at module level: only ``simulate`` needs
    the interval, and ``scipy.special`` would otherwise be most of every
    command's start-up."""
    from scipy.special import betaincinv

    a = (1.0 - level) / 2.0
    lo = 0.0 if k == 0 else float(betaincinv(k, n - k + 1, a))
    hi = 1.0 if k == n else float(betaincinv(k + 1, n - k, 1.0 - a))
    return lo, hi


@dataclass(frozen=True)
class RunStats:
    """Monte Carlo outcome with exact binomial error bars and propagated
    rate/exponent intervals (worst-case corner propagation)."""

    m: int
    trials: int
    errors: int
    pe: float
    pe_lo: float
    pe_hi: float
    et: float
    et_lo: float
    et_hi: float
    rate: float
    rate_lo: float
    rate_hi: float
    exponent: float
    exp_lo: float
    exp_hi: float

    @classmethod
    def from_counts(cls, m: int, trials: int, errors: int, t_sum: float, t_sqsum: float) -> "RunStats":
        pe = errors / trials
        pe_lo, pe_hi = _clopper_pearson(errors, trials)
        et = t_sum / trials
        var = max(t_sqsum / trials - et * et, 0.0)
        half = 1.96 * math.sqrt(var / trials)
        et_lo, et_hi = max(et - half, 1e-300), et + half
        logm = math.log2(m)
        rate = logm / et
        rate_lo, rate_hi = logm / et_hi, logm / et_lo
        exponent = math.inf if pe == 0.0 else -math.log2(pe) / et
        exp_lo = -math.log2(pe_hi) / et_hi if pe_hi > 0 else math.inf
        exp_hi = math.inf if pe_lo == 0.0 else -math.log2(pe_lo) / et_lo
        return cls(
            m=m, trials=trials, errors=errors,
            pe=pe, pe_lo=pe_lo, pe_hi=pe_hi,
            et=et, et_lo=et_lo, et_hi=et_hi,
            rate=rate, rate_lo=rate_lo, rate_hi=rate_hi,
            exponent=exponent, exp_lo=exp_lo, exp_hi=exp_hi,
        )


@dataclass(frozen=True)
class ExactStats:
    pe: float
    et: float
    rate: float
    exponent: float
    leaves: int


def csv_row(scheme: SchemeSpec, stats: RunStats) -> dict:
    return {
        "M": scheme.m,
        "n1": scheme.n1,
        "n2": scheme.n2,
        "cap": scheme.cap,
        "trials": stats.trials,
        "Pe": stats.pe,
        "Pe_lo": stats.pe_lo,
        "Pe_hi": stats.pe_hi,
        "ET": stats.et,
        "R": stats.rate,
        "E": stats.exponent,
        "E_lo": stats.exp_lo,
        "E_hi": stats.exp_hi,
    }


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------


def _log_metric(qbar: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.where(qbar > 0, np.log2(np.where(qbar > 0, qbar, 1.0)), -np.inf)


def _draw_uniforms(seed: int, start: int, count: int, width: int) -> np.ndarray:
    """The uniform vectors of trials start..start+count-1, one row each: for
    trial t, ``Generator(Philox(key=[seed, t])).random(width)``.

    One bit generator and one ``Generator`` serve every trial.  Before each
    row the bit generator's state is set to that of a fresh
    ``Philox(key=[seed, t])`` (zero counter, empty buffer), given as plain
    Python ints, and the row is drawn straight into its place, without the
    per-trial construction and its entropy draw.
    """
    # a uint64 array: numpy casts a list key word of 2**63 or more through
    # float64, which merges seeds; the state setter takes plain ints as they are
    bits = np.random.Philox(key=np.array([seed, start], dtype=np.uint64))
    gen = np.random.Generator(bits)
    key = [seed, start]
    fresh = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": key},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    out = np.empty((count, width))
    for i in range(count):
        key[1] = start + i
        bits.state = fresh
        gen.random(out=out[i])
    return out


def _columns(cum: np.ndarray) -> tuple[np.ndarray, ...]:
    """The last-axis entries of a cumulative table, each flattened in C order
    over the leading axes into one contiguous column."""
    return tuple(cum[..., k].ravel() for k in range(cum.shape[-1]))


def _count_below(cols: tuple[np.ndarray, ...], row: np.ndarray, u: np.ndarray) -> np.ndarray:
    """For each draw ``u``, the number of entries of its cumulative row
    (``row`` indexes the flattened leading axes of the table ``cols`` came
    from) that lie below it: the index of the first entry at or above u,
    as searchsorted(side="left"), so a draw on an entry goes to that entry."""
    idx = np.zeros(row.shape, dtype=np.int64)
    for col in cols:
        idx += col.take(row) < u
    return idx


def _simulate_generic(
    scheme: SchemeSpec, ch: Channel, trials: int, seed: int, start: int
) -> tuple[int, float, float]:
    """Monte Carlo of trials start..start+trials-1: every trial of a chunk
    of ``SIM_CHUNK`` advances one channel use at a time as one array pass.

    A chunk's uniforms come from ``_draw_uniforms``, one re-keyed Philox
    row per trial.  At use t, every trial reads its state law from the
    kernel's cumulative ``use_table(t)`` at row ``s_mem * X_mem + x_mem``
    of its state- and input-history indices, and its output law from the
    cumulative channel matrix at row ``s * X + x``; ``_count_below`` draws
    each by counting, column by column of the table, the entries below the
    trial's uniform (searchsorted, side "left"), as a per-trial loop would.
    The data metric is summed from 0.0 in codeword position order and the
    confirm log-likelihood ratio from 0.0 in use order, so every trial's
    outcome is bit-identical to running it alone.  A single-state channel
    takes the same pass.
    """
    kernel = ch.kernel
    x_size, s_size = ch.spec.x_size, ch.spec.s_size
    q_cols = _columns(np.cumsum(ch.spec.q, axis=2))  # rows s * X + x
    logq = _log_metric(_metric_matrix(ch))
    m, n1, cap = scheme.m, scheme.n1, scheme.cap
    block = scheme.block_len
    n_uses = scheme.max_uses
    hcap = kernel.horizon_cap()
    if hcap is not None and n_uses > hcap:
        raise SchemaError("scheme needs more channel uses than the kernel defines")
    xa, xn = scheme.confirm
    cb = np.array(scheme.codebook)
    lq_pos = logq[cb].transpose(1, 2, 0)  # (n1, y, m): the data metric of each position
    llr_row = logq[xa] - logq[xn]
    cum_state = [np.cumsum(kernel.use_table(t), axis=2) for t in range(1, n_uses + 1)]
    state_cols = [_columns(cum) for cum in cum_state]

    errors = 0
    t_sum = 0.0
    t_sqsum = 0.0
    for lo in range(0, trials, SIM_CHUNK):
        n = min(SIM_CHUNK, trials - lo)
        d = _draw_uniforms(seed, start + lo, n, 1 + 2 * n_uses)
        w = np.minimum((d[:, 0] * m).astype(int), m - 1)
        us, uy = d[:, 1 : n_uses + 1], d[:, n_uses + 1 :]
        s_mem = x_mem = np.zeros(n, dtype=np.int64)  # state- and input-history indices
        alive = np.ones(n, dtype=bool)
        stop_block = np.zeros(n, dtype=int)
        final_err = np.zeros(n, dtype=bool)
        for b in range(cap):
            ll = np.zeros((n, m))
            for pos in range(block):
                t = b * block + pos
                s_rows, x_rows = cum_state[t].shape[:2]
                s_mem, x_mem = s_mem % s_rows, x_mem % x_rows
                x = cb[w, pos] if pos < n1 else np.where(w_hat == w, xa, xn)
                s = _count_below(state_cols[t], s_mem * x_rows + x_mem, us[:, t])
                y = _count_below(q_cols, s * x_size + x, uy[:, t])
                s_mem, x_mem = s_mem * s_size + s, x_mem * x_size + x
                if pos < n1:
                    ll = ll + lq_pos[pos].take(y, axis=0)
                    if pos == n1 - 1:
                        w_hat = np.argmax(ll, axis=1)
                        llr = np.zeros(n)
                else:
                    llr = llr + llr_row[y]
            done = alive & ((llr >= scheme.threshold) | (b == cap - 1))
            stop_block[done] = b + 1
            final_err[done] = (w_hat != w)[done]
            alive &= ~done
        t_stop = stop_block * block
        errors += int(final_err.sum())
        t_sum += float(t_stop.sum())
        t_sqsum += float((t_stop.astype(float) ** 2).sum())
    return errors, t_sum, t_sqsum


# ``perfbench/layer_trace.py`` looks up both names; a missing one aborts
# every traced command.
_simulate_fast_dmc = _simulate_generic


def simulate(
    scheme: SchemeSpec,
    ch: Channel,
    trials: int,
    seed: int = 0,
) -> RunStats:
    """Monte Carlo run: one array pass (``_simulate_generic``) for every
    channel, single-state or not.  ``seed`` is an integer in 0..2**64 - 1."""
    if isinstance(trials, bool) or not isinstance(trials, (int, np.integer)):
        raise SchemaError(f"trials must be an integer, got {trials!r}")
    if trials < 1:
        raise SchemaError("need at least one trial")
    trials = int(trials)
    check_seed(seed, "seed")
    if scheme.x_size != ch.spec.x_size:
        raise SchemaError("scheme and channel disagree on the input alphabet")
    return RunStats.from_counts(scheme.m, trials, *_simulate_generic(scheme, ch, trials, seed, 0))


# ---------------------------------------------------------------------------
# exact evaluation over the stopped output tree
# ---------------------------------------------------------------------------


def _depth_first_leaves(ends: list, block: int):
    """(mass, stop time, error flag) of a message's leaves in depth-first
    order, from the block-end levels ``ends[b] = (mass, stop, err, up)``,
    where ``up`` is each node's index among the previous block's end nodes.

    Merged from the last block back: the leaves below a continuing node sit
    where that node sits among its block's end nodes, in their own order.
    """
    mass, t, err = np.empty(0), np.empty(0, dtype=np.int64), np.empty(0, dtype=bool)
    at = np.empty(0, dtype=np.int64)  # each leaf's ancestor among block b's end nodes
    for b in reversed(range(len(ends))):
        e_mass, e_stop, e_err, e_up = ends[b]
        own = np.flatnonzero(e_stop)
        key = np.concatenate((own, at))
        order = np.argsort(key, kind="stable")
        mass = np.concatenate((e_mass[own], mass))[order]
        t = np.concatenate((np.full(own.size, (b + 1) * block), t))[order]
        err = np.concatenate((e_err[own], err))[order]
        at = e_up[key[order]]
    return mass, t, err


def exact_stats(scheme: SchemeSpec, ch: Channel, budget: int = EXACT_BUDGET) -> ExactStats:
    """Exact error probability and expected stop time by forward recursion
    of the per-state mass over every output branch of every block.

    Supported for memoryless and one-step state kernels (the state mass is
    a finite vector); the node budget guards the tree size.

    One message at a time, the output tree is walked one channel use per
    level.  A level holds, for each live node in depth-first (output path
    lexicographic) order, its state mass ``(N, S)``, its last input, and
    either its data log-likelihoods ``(N, m)`` (summed from 0.0 in
    codeword-position order) or its confirm log-likelihood ratio (from 0.0
    in use order).  Children are formed in C order ``(node, y)`` and those
    of mass 0.0 dropped.  On a markov1 kernel the mass advances as the
    stacked product ``alpha[:, None, :] @ T`` with ``T[k]`` the transition
    matrix of node k's last input, the product a node-by-node walk computes
    bit for bit; a plain ``(N, S) @ (S, S)`` product is not, from S = 4 up.
    Pe and E[T] are summed over the leaves in the depth-first order of a
    recursive walk (by message, then by output path), one sequential sum
    carried across messages, so they are bit-identical to it; the budget
    counts every tree node and fails as soon as the count passes it.
    """
    if ch.kernel.variant not in ("memoryless", "markov1"):
        raise SchemaError("exact evaluation supports memoryless and markov1 kernels")
    if scheme.x_size != ch.spec.x_size:
        raise SchemaError("scheme and channel disagree on the input alphabet")
    s_size, y_size = ch.spec.s_size, ch.spec.y_size
    q_x = np.moveaxis(ch.spec.q, 0, -1)  # (x, y, s)
    logq = _log_metric(_metric_matrix(ch))
    m, n1, cap = scheme.m, scheme.n1, scheme.cap
    block = scheme.block_len
    xa, xn = scheme.confirm
    cb = np.array(scheme.codebook)
    lq_pos = logq[cb].transpose(1, 2, 0)  # (n1, y, m): the data metric of each position
    llr_row = logq[xa] - logq[xn]

    p_state = ch.kernel.use_table(1)[0, 0]
    later = ch.kernel.use_table(2)  # the table of every use after the first
    # without memory every use draws from p_state; with one step of it,
    # trans_x[x] = later[:, x, :] is the state transition under input x
    trans_x = None if later.shape[:2] == (1, 1) else np.moveaxis(later, 1, 0)

    nodes = 0

    def grow(alpha, x_last, x, w, b, pos):
        # use ``pos`` of block ``b`` of message ``w``: advance the state mass,
        # then split on the output symbol; x is the input, per node or shared
        nonlocal nodes
        if trans_x is None or (b == 0 and pos == 0):
            a = alpha.sum(axis=1)[:, None] * p_state
        else:
            a = np.matmul(alpha[:, None, :], trans_x[x_last])[:, 0, :]
        child = (a[:, None, :] * q_x[x]).reshape(-1, s_size)
        keep = np.flatnonzero(child.sum(axis=1) > 0.0)
        nodes += keep.size
        if nodes > budget:
            raise BudgetExceededError(
                f"{nodes} tree nodes by use {pos + 1} of block {b + 1} of {cap} "
                f"(message {w + 1} of {m}) exceed the exact-evaluation budget {budget}"
            )
        return child[keep], keep // y_size, keep % y_size

    pe = 0.0
    et = 0.0
    leaves = 0
    for w in range(m):
        alpha = np.full((1, 1), 1.0 / m)
        x_last = np.zeros(1, dtype=np.int64)
        up = np.zeros(1, dtype=np.int64)  # block-start nodes among the last block's ends
        ends = []
        for b in range(cap):
            src = np.arange(alpha.shape[0])  # each node's block-start ancestor
            ll = np.zeros((alpha.shape[0], m))
            for pos in range(n1):
                x = cb[w, pos]
                alpha, node, y = grow(alpha, x_last, x, w, b, pos)
                x_last = np.full(node.size, x)
                ll = ll[node] + lq_pos[pos, y]
                src = src[node]
            w_hat = np.argmax(ll, axis=1)
            xc = np.where(w_hat == w, xa, xn)
            llr = np.zeros(alpha.shape[0])
            for pos in range(n1, block):
                alpha, node, y = grow(alpha, x_last, xc, w, b, pos)
                xc, w_hat, src = xc[node], w_hat[node], src[node]
                x_last = xc
                llr = llr[node] + llr_row[y]
            stop = (llr >= scheme.threshold) | (b == cap - 1)
            ends.append((alpha.sum(axis=1), stop, w_hat != w, up[src]))
            up = np.flatnonzero(~stop)
            if not up.size:
                break
            alpha, x_last = alpha[up], x_last[up]
        mass, t, err = _depth_first_leaves(ends, block)
        leaves += mass.size
        pe = float(ordered_sum(np.concatenate(([pe], mass[err]))))
        et = float(ordered_sum(np.concatenate(([et], mass * t))))

    rate = math.log2(m) / et
    exponent = math.inf if pe == 0.0 else -math.log2(pe) / et
    return ExactStats(pe=pe, et=et, rate=rate, exponent=exponent, leaves=leaves)


def exponent_sweep(
    ch: Channel,
    schemes: list[SchemeSpec],
    trials: int,
    seed: int = 0,
) -> list[tuple[SchemeSpec, RunStats]]:
    """Simulate each scheme with the same seed and trial count."""
    return [(sc, simulate(sc, ch, trials, seed=seed)) for sc in schemes]
