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
single-state channel has its state positions too, though it never reads
them).  Philox is counter-based: ``d[p]`` is ``(w >> 11) * 2**-53`` for
the word ``w = p % 4`` of the Philox4x64-10 block of counter
``(p // 4 + 1, 0, 0, 0)`` under that key, so any position can be computed
without the ones before it.  The simulator (``_draw_uniforms``) computes,
with numpy's multipliers and key increments in uint64 array arithmetic,
only the blocks holding the positions a scheme block reads, and only for
the trials still running: the message position, then per scheme block its
output positions, and its state positions when one of its uses' state
tables can count a draw.  The values are those of a fresh generator per
trial, for every seed up to 2**64 - 1.  A draw ``u`` picks the first index
whose cumulative probability reaches ``u`` (searchsorted, side "left"), so
a draw on a cumulative entry goes to the lower index.

There is one Monte Carlo path for every channel, and it and the exact
evaluation are array passes: a chunk of trials (each scheme block only on
the trials still running), or one level of a message's output tree,
advances one channel use at a time, the state read only through
``StateKernel.rows`` and ``advance`` or the filter step ``predict``.  Every
sum that reaches a result runs in the order of a per-trial or depth-first
recursive loop (metrics in position order from 0.0, exact Pe and E[T]
sequentially over the leaves in depth-first order), and every product is
one a per-node loop computes bit for bit, so outputs are the same bits as
those loops give (``tests/oracles.py`` keeps them).

Decoding on channels with states uses the entry-wise state-averaged matrix
under the initial state law as a (mismatched) memoryless metric; on a
single-state channel this is exact maximum likelihood.
"""

from __future__ import annotations

import importlib.util
import json
import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .channel_model import (
    BudgetExceededError, Channel, SchemaError, _SeededIntegers, _as_int, check_seed,
)
from .info_measures import ordered_sum, row_divergences

__all__ = [
    "SchemeSpec",
    "RunStats",
    "ExactStats",
    "build_yamamoto_itoh",
    "build_repetition_confirm",
    "parse_scheme",
    "load_scheme",
    "simulate",
    "exact_stats",
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
        if (len(self.confirm) != 2 or self.confirm[0] == self.confirm[1]
                or not all(0 <= x < self.x_size for x in self.confirm)):
            raise SchemaError("confirm pair must be two distinct valid symbols")
        if math.isnan(self.threshold):
            raise SchemaError("confirm threshold must be a number, not NaN")

    @property
    def block_len(self) -> int:
        return self.n1 + self.n2

    @property
    def max_uses(self) -> int:
        return self.cap * self.block_len


def parse_scheme(text: str) -> SchemeSpec:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as e:
        raise SchemaError(f"scheme file is not valid JSON: {e}") from e
    if not isinstance(payload, dict):
        raise SchemaError("scheme file must be a JSON object")
    try:
        fields = dict(
            variant=payload["variant"],
            name=payload.get("name", ""),
            m=_as_int(payload["m"]),
            n1=_as_int(payload["n1"]),
            n2=_as_int(payload["n2"]),
            cap=_as_int(payload["cap"]),
            x_size=_as_int(payload["x_size"]),
            threshold=float(payload.get("threshold", 0.0)),
            codebook=tuple(tuple(_as_int(x) for x in row) for row in payload["codebook"]),
            confirm=tuple(_as_int(x) for x in payload["confirm"]),
        )
    except KeyError as e:
        raise SchemaError(f"scheme file missing field {e}") from e
    except (TypeError, ValueError, OverflowError) as e:
        raise SchemaError(f"scheme file has a malformed field: {e}") from None
    return SchemeSpec(**fields)


def load_scheme(path) -> SchemeSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scheme(fh.read())


def _metric_matrix(ch: Channel) -> np.ndarray:
    """State-averaged single-letter matrix under the initial state law."""
    return np.einsum("s,sxy->xy", ch.kernel.use_table(1)[0, 0], ch.spec.q)


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
    """Random distinct data codebook (seeded: each row n1 draws of
    ``default_rng(seed).integers(0, |X|)``'s stream, a repeated row
    dropped) + the most distinguishable confirm pair (largest one-way
    divergence, ties to the lowest indices)."""
    x_size = ch.spec.x_size
    if x_size**n1 < m:
        raise SchemaError("codeword space too small for m distinct rows")
    rng = _SeededIntegers(seed)
    rows: list[tuple[int, ...]] = []
    seen = set()
    while len(rows) < m:
        row = tuple(rng.integers(0, x_size) for _ in range(n1))
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


def _betaincinv():
    """scipy's compiled ``betaincinv`` ufunc, the object ``scipy.special``
    exports, loaded without running that package's ``__init__``.

    The package body (array-API backend set-up, whose attribute probes
    load ``numpy.f2py`` and ``numpy.random``, and docstring parsing) costs
    more than a CSV run's own work, and the ufunc needs none of it, only
    its compiled ``_ufuncs`` module, which imports its siblings relatively.
    So that import runs under a ``scipy.special`` package module made from
    the package's spec but not executed, and registered only while the
    import runs.  A later ``import scipy.special`` runs the real
    ``__init__``, which reuses the loaded ``_ufuncs``."""
    special = sys.modules.get("scipy.special")
    if special is not None:
        return special.betaincinv
    ufuncs = sys.modules.get("scipy.special._ufuncs")
    if ufuncs is None:
        package = importlib.util.module_from_spec(importlib.util.find_spec("scipy.special"))
        sys.modules["scipy.special"] = package
        try:
            ufuncs = importlib.import_module("scipy.special._ufuncs")
        finally:
            del sys.modules["scipy.special"]
    return ufuncs.betaincinv


def _clopper_pearson(k: int, n: int, level: float = 0.95) -> tuple[float, float]:
    """Exact binomial interval from beta quantiles (``betaincinv``): the
    one source of the interval's bits, in CSV rows and ``RunStats``.

    ``_betaincinv`` gives the ufunc; its first call loads only scipy's
    compiled special-function module, not ``scipy.special``'s package
    body.  The printed digits come from ``_clopper_pearson_text``, without
    scipy, where it can certify them."""
    betaincinv = _betaincinv()
    a = (1.0 - level) / 2.0
    lo = 0.0 if k == 0 else float(betaincinv(k, n - k + 1, a))
    hi = 1.0 if k == n else float(betaincinv(k + 1, n - k, 1.0 - a))
    return lo, hi


# Relative half-width of the bracket around a pure-math Clopper–Pearson
# bound that must print as one ``.6g`` string, and hold the root of the
# tail equation, before that string is printed.  It is ~180x the largest
# gap measured between the pure quantile and ``betaincinv`` (1.1e-10 at
# 10^7 trials, mostly betaincinv's own error), so betaincinv's value lies
# in the bracket too (tests/test_vlc_sim.py sweeps it).
CP_DELTA = 2e-8
_CF_TOL = 1e-15  # relative step at which the continued fraction has converged
_CF_MAX = 100_000  # continued-fraction terms before a bound is given up
_SUM_TERMS = 500  # a beta tail of at most this many binomial terms is summed


def _stirling_tail(z: float) -> float:
    """lgamma(z) minus its Stirling main part (z - 1/2) log z - z +
    log(2 pi)/2, as the asymptotic series to the z**-9 term: for z >= 16
    the first term left out is below 2e-16."""
    r = 1.0 / (z * z)
    return (1 / 12 - r * (1 / 360 - r * (1 / 1260 - r * (1 / 1680 - r / 1188)))) / z


def _log_beta(a: int, b: int) -> float:
    """log B(a, b) for positive integer shapes, without the cancellation of
    lgamma(a) + lgamma(b) - lgamma(a + b), whose terms grow as n log n while
    the result does not.  With a the smaller shape, B(a, b) is
    (a - 1)! / (b (b + 1) ... (b + a - 1)) up to a = 15; above that,
    Stirling's series for each lgamma with the large terms combined."""
    a, b = min(a, b), max(a, b)
    if a < 16:
        return math.lgamma(a) - math.fsum(math.log(b + i) for i in range(a))
    return (0.5 * math.log(2.0 * math.pi / b) + (a - 0.5) * math.log(a / (a + b))
            - b * math.log1p(a / b) + _stirling_tail(a) + _stirling_tail(b)
            - _stirling_tail(a + b))


def _beta_cf(a: int, b: int, x: float) -> float | None:
    """Continued fraction of the regularized incomplete beta function,
    I_x(a, b) = x**a (1 - x)**b / (a B(a, b)) * cf, summed by the modified
    Lentz method (DiDonato & Morris, ACM TOMS 1992; Numerical Recipes'
    betacf).  It converges fast for x below (a + 1) / (a + b + 2); None when
    it has not converged in ``_CF_MAX`` terms."""
    tiny = 1e-300
    c = 1.0
    d = 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, _CF_MAX):
        for num in (m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            step = c * d
            h *= step
        if abs(step - 1.0) < _CF_TOL:
            return h
    return None


def _binomial_tail(x: float, a: int, b: int, upper: bool) -> float:
    """The tail of ``_log_tail`` over its prefactor x**a (1 - x)**b / B(a, b),
    as a finite sum: with N = a + b - 1, I_x(a, b) = P(Bin(N, x) >= a), b
    terms, and 1 - I_x(a, b) = P(Bin(N, x) < a), a terms.  Each binomial
    term is the previous one times a ratio, from the one next to the
    boundary: pmf(a) = front / (a (1 - x)), pmf(a - 1) = front / (b x)."""
    n = a + b - 1
    total = 0.0
    if upper:
        term, r = 1.0 / (b * x), (1.0 - x) / x
        for j in range(a - 1, -1, -1):
            total += term
            term *= j / (n - j + 1) * r
    else:
        term, r = 1.0 / (a * (1.0 - x)), x / (1.0 - x)
        for j in range(a, n + 1):
            total += term
            term *= (n - j) / (j + 1) * r
    return total


def _log_tail(x: float, a: int, b: int, upper: bool) -> tuple[float, float] | None:
    """(log T, x f(x) / T) at x in (0, 1), where T is the lower tail
    I_x(a, b) of the Beta(a, b) law or, if ``upper``, the upper tail
    1 - I_x(a, b), and f its density.

    log x and log1p(-x) enter the prefactor as given, so a quantile near 0
    or 1 keeps its relative precision.  A tail of at most ``_SUM_TERMS``
    binomial terms is their sum.  Otherwise the tail below the law's mean
    is the continued fraction at x, the one above it the fraction of the
    mirrored law at 1 - x, and the other tail one minus it; the rounding of
    1 - x, amplified in that fraction by about b / sqrt(a) when x is small,
    stays far below ``CP_DELTA`` for a above ``_SUM_TERMS``.  None when the
    fraction does not converge or the tail is not positive."""
    log_front = a * math.log(x) + b * math.log1p(-x) - _log_beta(a, b)
    if (a if upper else b) <= _SUM_TERMS:
        t = math.exp(log_front) * _binomial_tail(x, a, b, upper)
    else:
        if x < (a + 1.0) / (a + b + 2.0):
            cf, near, mirrored = _beta_cf(a, b, x), a, upper
        else:
            cf, near, mirrored = _beta_cf(b, a, 1.0 - x), b, not upper
        if cf is None:
            return None
        t = math.exp(log_front) * cf / near
        if mirrored:
            t = 1.0 - t
    if not 0.0 < t < math.inf:
        return None
    log_t = math.log(t)
    return log_t, math.exp(log_front - log_t) / (1.0 - x)


def _beta_quantile(a: int, b: int, p: float, upper: bool) -> float | None:
    """The x in (0, 1) whose lower tail I_x(a, b) (upper tail, if
    ``upper``) equals p, by Newton's method on log T in t = log x (in
    t = log(1 - x) for the upper tail).  For shapes of at least 1 that
    function of t is increasing and concave, so the steps never pass the
    root from below, and from above they land below it.  None when a step
    leaves (0, 1) or a tail cannot be evaluated."""
    x = a / (a + b)
    log_p = math.log(p)
    for _ in range(100):
        tail = _log_tail(x, a, b, upper)
        if tail is None:
            return None
        log_t, slope = tail
        if upper:
            # dt/dx = -1/(1 - x), and T falls as x rises
            step = (log_t - log_p) / (slope * (1.0 - x) / x)
            x_new = -math.expm1(math.log1p(-x) - step)
        else:
            x_new = x * math.exp(-(log_t - log_p) / slope)
        if not 0.0 < x_new < 1.0:
            return None
        if abs(x_new - x) <= 1e-12 * x_new:
            return x_new
        x = x_new
    return None


def _certified_digits(a: int, b: int, p: float, upper: bool) -> str | None:
    """The ``.6g`` string of the beta quantile ``_beta_quantile`` solves
    for, when certified: every value within a relative ``CP_DELTA`` of the
    pure estimate prints as one string (formatting is monotone, so the two
    bracket ends settle it), and the tail crosses p between the two ends.
    None otherwise."""
    q = _beta_quantile(a, b, p, upper)
    if q is None:
        return None
    ends = (q * (1.0 - CP_DELTA), q * (1.0 + CP_DELTA))
    text = f"{q:.6g}"
    if not (0.0 < ends[0] and ends[1] < 1.0):
        return None
    if any(f"{e:.6g}" != text for e in ends):
        return None
    log_p = math.log(p)
    below, above = (_log_tail(e, a, b, upper) for e in ends)
    if below is None or above is None:
        return None
    # the lower tail rises through p across the bracket, the upper one falls
    sign = -1.0 if upper else 1.0
    if not sign * (below[0] - log_p) < 0.0 < sign * (above[0] - log_p):
        return None
    return text


def _clopper_pearson_text(k: int, n: int, level: float = 0.95) -> tuple[str, str] | None:
    """``_clopper_pearson(k, n, level)`` formatted ``.6g``, from the
    pure-math quantile (no scipy); None when a bound is not certified.
    The upper bound solves for the upper tail 1 - fl(1 - a), the exact
    complement of what ``betaincinv`` is given."""
    a = (1.0 - level) / 2.0
    lo = "0" if k == 0 else _certified_digits(k, n - k + 1, a, upper=False)
    hi = "1" if k == n else _certified_digits(k + 1, n - k, 1.0 - (1.0 - a), upper=True)
    return None if lo is None or hi is None else (lo, hi)


@dataclass(frozen=True)
class RunStats:
    """Monte Carlo outcome with exact binomial error bars and propagated
    rate/exponent intervals (worst-case corner propagation).

    The Clopper–Pearson bounds ``pe_lo``/``pe_hi`` and the exponent bounds
    ``exp_lo``/``exp_hi`` drawn from them are computed on first read, from
    ``_clopper_pearson`` (scipy's ``betaincinv``), and kept; they are
    functions of the fields, so ``==`` over the fields compares them too.
    ``pe_interval_text`` gives their printed digits without scipy where it
    can certify them."""

    m: int
    trials: int
    errors: int
    pe: float
    et: float
    et_lo: float
    et_hi: float
    rate: float
    rate_lo: float
    rate_hi: float
    exponent: float

    @classmethod
    def from_counts(cls, m: int, trials: int, errors: int, t_sum: float, t_sqsum: float) -> "RunStats":
        pe = errors / trials
        et = t_sum / trials
        var = max(t_sqsum / trials - et * et, 0.0)
        half = 1.96 * math.sqrt(var / trials)
        et_lo, et_hi = max(et - half, 1e-300), et + half
        logm = math.log2(m)
        rate = logm / et
        rate_lo, rate_hi = logm / et_hi, logm / et_lo
        exponent = math.inf if pe == 0.0 else -math.log2(pe) / et
        return cls(
            m=m, trials=trials, errors=errors, pe=pe,
            et=et, et_lo=et_lo, et_hi=et_hi,
            rate=rate, rate_lo=rate_lo, rate_hi=rate_hi,
            exponent=exponent,
        )

    @cached_property
    def _pe_bounds(self) -> tuple[float, float]:
        return _clopper_pearson(self.errors, self.trials)

    @property
    def pe_lo(self) -> float:
        return self._pe_bounds[0]

    @property
    def pe_hi(self) -> float:
        return self._pe_bounds[1]

    @property
    def exp_lo(self) -> float:
        return -math.log2(self.pe_hi) / self.et_hi if self.pe_hi > 0 else math.inf

    @property
    def exp_hi(self) -> float:
        return math.inf if self.pe_lo == 0.0 else -math.log2(self.pe_lo) / self.et_lo

    def pe_interval_text(self) -> tuple[str, str]:
        """``pe_lo`` and ``pe_hi`` formatted ``.6g``: the certified pure-math
        digits of ``_clopper_pearson_text``, or, where a digit is not
        certified, the exact bounds'.  The text depends only on ``errors``
        and ``trials``, not on which bound was read first."""
        text = _clopper_pearson_text(self.errors, self.trials)
        if text is not None:
            return text
        return f"{self.pe_lo:.6g}", f"{self.pe_hi:.6g}"


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


def _scheme_tables(scheme: SchemeSpec, ch: Channel):
    """The codebook as an (m, n1) array, the data metric of each codeword
    position, shape (n1, y, m), and the confirm log-likelihood ratio of each
    output; refuses a scheme whose input alphabet is not the channel's."""
    if scheme.x_size != ch.spec.x_size:
        raise SchemaError("scheme and channel disagree on the input alphabet")
    logq = _log_metric(_metric_matrix(ch))
    cb = np.array(scheme.codebook)
    xa, xn = scheme.confirm
    return cb, logq[cb].transpose(1, 2, 0), logq[xa] - logq[xn]


# Philox4x64-10's round multipliers and key increments, as numpy's philox.h
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_LO32 = np.uint64(0xFFFFFFFF)


def _mulhilo(a: np.ndarray, m: int, hi: np.ndarray, lo: np.ndarray, scratch) -> None:
    """Write the high and low words of the 128-bit products ``a * m`` of
    unsigned 64-bit words into ``hi`` and ``lo``, from 32-bit halves (numpy's
    uint64 product wraps).  Every step writes into a given array: a fresh
    array for each step would cost more than the arithmetic."""
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    a_lo, a_hi, t = scratch
    np.multiply(a, np.uint64(m), out=lo)
    np.bitwise_and(a, _LO32, out=a_lo)
    np.right_shift(a, 32, out=a_hi)
    np.multiply(a_lo, m_lo, out=hi)
    np.right_shift(hi, 32, out=hi)
    np.multiply(a_lo, m_hi, out=t)
    np.add(t, hi, out=t)  # a_lo * m_hi + carry-in: below 2**64
    np.multiply(a_hi, m_lo, out=a_lo)
    np.bitwise_and(t, _LO32, out=hi)
    np.add(a_lo, hi, out=a_lo)  # the middle sum: below 2**64
    np.multiply(a_hi, m_hi, out=hi)
    np.right_shift(t, 32, out=t)
    np.add(hi, t, out=hi)
    np.right_shift(a_lo, 32, out=a_lo)
    np.add(hi, a_lo, out=hi)


def _draw_uniforms(seed: int, trials: np.ndarray, first: int, width: int) -> np.ndarray:
    """Positions first..first+width-1 of the uniform vectors of the given
    trial ids, one row per trial: for trial t, the same numbers as
    ``Generator(Philox(key=[seed, t])).random(first + width)[first:]``.

    Philox is counter-based: position p of that vector is word p % 4 of the
    Philox4x64-10 block of counter ``(p // 4 + 1, 0, 0, 0)`` under key
    ``[seed, t]``, as ``(word >> 11) * 2**-53``.  Only the blocks the
    positions lie in are computed, for all trials at once: each counter
    word is a (block, trial) array, advanced through the ten rounds in place.
    The result is the transpose of a (position, trial) array, so that a
    position's column is contiguous.
    """
    j0, j1 = first // 4, (first + width - 1) // 4
    k1 = np.asarray(trials, dtype=np.uint64)[None, :]
    shape = (j1 - j0 + 1, k1.shape[1])
    c = [np.zeros(shape, dtype=np.uint64) for _ in range(4)]
    c[0][:] = np.arange(j0 + 1, j1 + 2, dtype=np.uint64)[:, None]
    free = [np.empty(shape, dtype=np.uint64) for _ in range(4)]
    scratch = [np.empty(shape, dtype=np.uint64) for _ in range(3)]
    k0 = seed
    for r in range(10):
        if r:
            k0 = (k0 + _PHILOX_W[0]) & 0xFFFFFFFFFFFFFFFF
            k1 = k1 + np.uint64(_PHILOX_W[1])
        hi0, lo0, hi1, lo1 = free
        _mulhilo(c[0], _PHILOX_M[0], hi0, lo0, scratch)
        _mulhilo(c[2], _PHILOX_M[1], hi1, lo1, scratch)
        np.bitwise_xor(hi1, c[1], out=hi1)
        np.bitwise_xor(hi1, np.uint64(k0), out=hi1)
        np.bitwise_xor(hi0, c[3], out=hi0)
        np.bitwise_xor(hi0, k1, out=hi0)
        free, c = c, [hi1, lo1, hi0, lo0]
    out = np.empty((width, shape[1]))
    for i in range(width):
        j, w = divmod(first + i, 4)
        out[i] = c[w][j - j0] >> 11
    out *= 2.0**-53
    return out.T


def _columns(cum: np.ndarray) -> tuple[np.ndarray, ...]:
    """The last-axis entries of a cumulative table, each flattened in C order
    over the leading axes into one contiguous column.  A column at or above
    1.0 in every row is left out: no draw exceeds 1.0, so it never counts
    one (a single-state table has no column left)."""
    cols = (cum[..., k].ravel() for k in range(cum.shape[-1]))
    return tuple(col for col in cols if (col < 1.0).any())


def _count_below(
    cols: tuple[np.ndarray, ...], row: np.ndarray, u: np.ndarray | None
) -> np.ndarray:
    """For each draw ``u``, the number of entries of its cumulative row
    (``row`` indexes the flattened leading axes of the table ``cols`` came
    from) that lie below it: the index of the first entry at or above u,
    as searchsorted(side="left"), so a draw on an entry goes to that entry.
    With no column left every count is 0 and ``u`` is not read (None when
    the use drew no uniform)."""
    idx = np.zeros(row.shape, dtype=np.int64)
    for col in cols:
        idx += col.take(row) < u
    return idx


def _simulate_generic(
    scheme: SchemeSpec, ch: Channel, trials: int, seed: int, start: int
) -> tuple[int, float, float]:
    """Monte Carlo of trials start..start+trials-1: the trials of a chunk of
    ``SIM_CHUNK`` advance one channel use at a time as one array pass.

    Each scheme block runs on the trials still alive after the last one,
    and draws (``_draw_uniforms``) only those trials' positions of that
    block: its output uniforms, and its state uniforms only when one of its
    uses' state tables has a column left (``_columns``), so a single-state
    channel draws no state uniform.  At use t, every live trial reads its
    state law from the kernel's cumulative ``use_table(t)`` at its
    ``StateKernel.rows`` (``advance`` steps the indices), and its output
    law from the cumulative channel matrix at row ``s * X + x``;
    ``_count_below`` draws each by counting, column by column of the table,
    the entries below the trial's uniform (searchsorted, side "left"), as a
    per-trial loop would.  The data metric is summed from 0.0 in codeword
    position order and the confirm log-likelihood ratio from 0.0 in use
    order, so every trial's outcome is bit-identical to running it alone.
    """
    cb, lq_pos, llr_row = _scheme_tables(scheme, ch)
    kernel, x_size = ch.kernel, ch.spec.x_size
    q_cols = _columns(np.cumsum(ch.spec.q, axis=2))  # rows s * X + x
    m, n1, cap = scheme.m, scheme.n1, scheme.cap
    block = scheme.block_len
    n_uses = scheme.max_uses
    hcap = kernel.horizon_cap()
    if hcap is not None and n_uses > hcap:
        raise SchemaError("scheme needs more channel uses than the kernel defines")
    xa, xn = scheme.confirm
    state_cols = [_columns(np.cumsum(kernel.use_table(t), axis=2))
                  for t in range(1, n_uses + 1)]
    state_draws = [any(state_cols[b * block : (b + 1) * block]) for b in range(cap)]

    errors = 0
    t_sum = 0.0
    t_sqsum = 0.0
    for lo in range(0, trials, SIM_CHUNK):
        n = min(SIM_CHUNK, trials - lo)
        ids = np.arange(start + lo, start + lo + n, dtype=np.uint64)
        w_all = np.minimum((_draw_uniforms(seed, ids, 0, 1)[:, 0] * m).astype(int), m - 1)
        live = np.arange(n)  # chunk rows of the trials still running
        s_mem = x_mem = np.zeros(n, dtype=np.int64)  # state- and input-history indices
        stop_block = np.zeros(n, dtype=int)
        final_err = np.zeros(n, dtype=bool)
        for b in range(cap):
            t0 = b * block
            uy = _draw_uniforms(seed, ids[live], n_uses + 1 + t0, block)
            us = _draw_uniforms(seed, ids[live], 1 + t0, block) if state_draws[b] else None
            w = w_all[live]
            ll = np.zeros((live.size, m))
            for pos in range(block):
                t = t0 + pos
                row, s_mem, x_mem = kernel.rows(t + 1, s_mem, x_mem)
                x = cb[w, pos] if pos < n1 else np.where(w_hat == w, xa, xn)
                u_s = None if us is None else us[:, pos]
                s = _count_below(state_cols[t], row, u_s)
                y = _count_below(q_cols, s * x_size + x, uy[:, pos])
                s_mem, x_mem = kernel.advance(s_mem, x_mem, s, x)
                if pos < n1:
                    ll = ll + lq_pos[pos].take(y, axis=0)
                    if pos == n1 - 1:
                        w_hat = np.argmax(ll, axis=1)
                        llr = np.zeros(live.size)
                else:
                    llr = llr + llr_row[y]
            done = (llr >= scheme.threshold) | (b == cap - 1)
            stop_block[live[done]] = b + 1
            final_err[live[done]] = (w_hat != w)[done]
            go_on = ~done
            live, s_mem, x_mem = live[go_on], s_mem[go_on], x_mem[go_on]
            if not live.size:
                break
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
    in use order).  Each use advances the state mass by the kernel's filter
    step (``StateKernel.predict``) and forms the children in C order
    ``(node, y)``, dropping those of mass 0.0.  Pe and E[T] are summed over
    the leaves in the depth-first order of a recursive walk (by message,
    then by output path), one sequential sum carried across messages, so
    they are bit-identical to it; the budget counts every tree node and
    fails as soon as the count passes it.

    The levels are formed breadth first, so the working set is the widest
    level's arrays plus the block-end columns that the merge reads.  A
    use that drops no child keeps the children as formed, with no gathered
    copy; the log-likelihoods add each use's terms in place, into the
    gathered rows; and a message's level arrays are released before its
    leaves are merged.
    """
    if ch.kernel.variant not in ("memoryless", "markov1"):
        raise SchemaError("exact evaluation supports memoryless and markov1 kernels")
    cb, lq_pos, llr_row = _scheme_tables(scheme, ch)
    s_size, y_size = ch.spec.s_size, ch.spec.y_size
    q_x = np.moveaxis(ch.spec.q, 0, -1)  # (x, y, s)
    m, n1, cap = scheme.m, scheme.n1, scheme.cap
    block = scheme.block_len
    xa, xn = scheme.confirm

    nodes = 0

    def grow(alpha, x_last, x, w, b, pos):
        # use ``pos`` of block ``b`` of message ``w``: advance the state mass,
        # then split on the output symbol; x is the input, per node or shared
        nonlocal nodes
        a = ch.kernel.predict(b * block + pos + 1, alpha, x_last)
        child = (a[:, None, :] * q_x[x]).reshape(-1, s_size)
        keep = np.flatnonzero(child.sum(axis=1) > 0.0)
        nodes += keep.size
        if nodes > budget:
            raise BudgetExceededError(
                f"{nodes} tree nodes by use {pos + 1} of block {b + 1} of {cap} "
                f"(message {w + 1} of {m}) exceed the exact-evaluation budget {budget}"
            )
        if keep.size < child.shape[0]:
            child = child[keep]
        return child, keep // y_size, keep % y_size

    def block_ends(w):
        # the block-end levels of message ``w``; its level arrays are
        # released on return, before the leaves are merged
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
                ll = ll[node]
                ll += lq_pos[pos, y]
                src = src[node]
            w_hat = np.argmax(ll, axis=1)
            xc = np.where(w_hat == w, xa, xn)
            llr = np.zeros(alpha.shape[0])
            for pos in range(n1, block):
                alpha, node, y = grow(alpha, x_last, xc, w, b, pos)
                xc, w_hat, src = xc[node], w_hat[node], src[node]
                x_last = xc
                llr = llr[node]
                llr += llr_row[y]
            stop = (llr >= scheme.threshold) | (b == cap - 1)
            ends.append((alpha.sum(axis=1), stop, w_hat != w, up[src]))
            up = np.flatnonzero(~stop)
            if not up.size:
                break
            alpha, x_last = alpha[up], x_last[up]
        return ends

    pe = 0.0
    et = 0.0
    leaves = 0
    for w in range(m):
        mass, t, err = _depth_first_leaves(block_ends(w), block)
        leaves += mass.size
        pe = float(ordered_sum(np.concatenate(([pe], mass[err]))))
        et = float(ordered_sum(np.concatenate(([et], mass * t))))

    rate = math.log2(m) / et
    exponent = math.inf if pe == 0.0 else -math.log2(pe) / et
    return ExactStats(pe=pe, et=et, rate=rate, exponent=exponent, leaves=leaves)
