"""Parsers for the text the ``fbound`` commands print, and the reference
checks each benchmark invocation must pass.

A check returns a list of problems; an empty list means the invocation
produced the recorded result.  The recorded CSV bytes depend on the
workload seed and are checked only at seed 0.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
VALUE_TOL = 1e-12


@dataclass(frozen=True)
class Outcome:
    """What one finished (or killed) child process left behind."""

    returncode: int | None  # None when the process was killed on timeout
    stdout: str
    stderr: str
    csv: bytes | None       # contents of the ``--out`` file, when one was asked for
    wall_s: float
    maxrss_kb: int


# ---------------------------------------------------------------------------
# parsers
# ---------------------------------------------------------------------------


def parse_bound(stdout: str) -> dict:
    """Fields of the plain-text ``bound-capacity``/``bound-exponent`` report."""
    out: dict = {"diag": {}}
    for line in stdout.splitlines():
        key, _, rest = line.partition(" ")
        if key == "kind":
            out["kind"] = rest
        elif key == "horizon":
            out[key] = int(rest)
        elif key in ("rate", "value"):
            out[key] = float(rest)
        elif key == "flags":
            out["flags"] = () if rest == "none" else tuple(rest.split(","))
        elif key == "diag":
            name, _, val = rest.partition(" ")
            out["diag"][name] = val
    return out


_VERIFY_SUMMARY = re.compile(r"^verify: (\d+)/(\d+) checks passed$", re.M)
_VERDICT_TAG = re.compile(r"^\[(PASS|FAIL)\] ", re.M)


def parse_verify(stdout: str) -> dict:
    """Verdict tags in order and the ``passed/total`` summary line."""
    m = _VERIFY_SUMMARY.search(stdout)
    return {
        "tags": tuple(_VERDICT_TAG.findall(stdout)),
        "passed": int(m.group(1)) if m else None,
        "total": int(m.group(2)) if m else None,
    }


_SCHEME_LINE = re.compile(
    r"^scheme (?P<name>\S+): M=(?P<m>\d+) trials=(?P<trials>\d+) "
    r"Pe=(?P<pe>\S+) \[(?P<pe_lo>[^,]+),(?P<pe_hi>[^\]]+)\] ET=(?P<et>\S+) "
)
_EXACT_LINE = re.compile(r"^  exact: Pe=(?P<pe>\S+) ET=(?P<et>\S+) ")


def parse_simulate(stdout: str) -> list[dict]:
    """One dict per scheme line, with the exact values of the line after it."""
    rows: list[dict] = []
    for line in stdout.splitlines():
        m = _SCHEME_LINE.match(line)
        if m:
            rows.append({
                "name": m["name"],
                "m": int(m["m"]),
                "trials": int(m["trials"]),
                "pe": float(m["pe"]),
                "pe_lo": float(m["pe_lo"]),
                "pe_hi": float(m["pe_hi"]),
                "et": float(m["et"]),
            })
            continue
        m = _EXACT_LINE.match(line)
        if m and rows:
            rows[-1]["exact_pe"] = float(m["pe"])
            rows[-1]["exact_et"] = float(m["et"])
    return rows


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= VALUE_TOL


def _exit_problem(out: Outcome, want: int) -> list[str]:
    if out.returncode is None:
        return ["killed after the time limit"]
    if out.returncode != want:
        tail = out.stderr.strip().splitlines()[-1:] or [""]
        return [f"exit code {out.returncode}, expected {want}: {tail[0]}"]
    return []


def _csv_problem(out: Outcome, reference: str | None, seed: int) -> list[str]:
    if reference is None or seed != 0:
        return []
    want = (REFERENCE_DIR / reference).read_bytes()
    if out.csv != want:
        return [f"CSV differs from reference/{reference}"]
    return []


@dataclass(frozen=True)
class BoundCheck:
    """A bound search: exit code, value and flag string against references."""

    kind: str
    exit_code: int
    value: float
    flags: tuple[str, ...] = ()

    def __call__(self, out: Outcome, seed: int) -> list[str]:
        problems = _exit_problem(out, self.exit_code)
        if problems:
            return problems
        res = parse_bound(out.stdout)
        if res.get("kind") != self.kind:
            return [f"kind {res.get('kind')!r}, expected {self.kind!r}"]
        if "value" not in res or "flags" not in res:
            return ["no value or flags line"]
        if not _close(res["value"], self.value):
            problems.append(f"value {res['value']!r}, expected {self.value!r}")
        if not math.isfinite(res["value"]):
            problems.append(f"value {res['value']!r} is not finite")
        # flags are compared as printed, in order: an order that follows the
        # hash seed must show up as a failure
        if res["flags"] != self.flags:
            problems.append(f"flags {res['flags']}, expected {self.flags}")
        return problems


@dataclass(frozen=True)
class VerifyCheck:
    """A verification suite: exit code, verdict tags and the summary line."""

    exit_code: int
    passed: int
    total: int
    csv_reference: str | None = None

    def __call__(self, out: Outcome, seed: int) -> list[str]:
        problems = _exit_problem(out, self.exit_code)
        if problems:
            return problems
        res = parse_verify(out.stdout)
        if (res["passed"], res["total"]) != (self.passed, self.total):
            problems.append(
                f"summary {res['passed']}/{res['total']}, expected {self.passed}/{self.total}"
            )
        want_fail = self.total - self.passed
        if len(res["tags"]) != self.total or res["tags"].count("FAIL") != want_fail:
            problems.append(f"verdict tags {res['tags']}")
        return problems + _csv_problem(out, self.csv_reference, seed)


@dataclass(frozen=True)
class SimExpect:
    """Exact values for one scheme of a ``simulate --exact`` run."""

    m: int
    exact_pe: float
    exact_et: float


def et_half_width(exact_et: float, block: int, cap: int, trials: int) -> float:
    """95% normal half-width of the Monte Carlo mean stop time.

    The stop time lies in [block, cap*block], so its variance is at most
    (mu - block)(cap*block - mu) (Bhatia-Davis); with cap 2 the stop time
    takes only the two end values and the bound is the exact variance.
    """
    var = max((exact_et - block) * (cap * block - exact_et), 0.0)
    return 1.96 * math.sqrt(var / trials)


@dataclass(frozen=True)
class SimulateCheck:
    """A ``simulate --exact`` run: exact values against references and the
    Monte Carlo estimates within three confidence half-widths of them."""

    trials: int
    block: int
    cap: int
    schemes: tuple[SimExpect, ...]
    csv_reference: str | None = None

    def __call__(self, out: Outcome, seed: int) -> list[str]:
        problems = _exit_problem(out, 0)
        if problems:
            return problems
        rows = parse_simulate(out.stdout)
        if [r["m"] for r in rows] != [s.m for s in self.schemes]:
            return [f"schemes M={[r['m'] for r in rows]}, expected {[s.m for s in self.schemes]}"]
        for row, want in zip(rows, self.schemes):
            tag = f"M={want.m}"
            if "exact_pe" not in row:
                problems.append(f"{tag}: no exact line")
                continue
            if row["trials"] != self.trials:
                problems.append(f"{tag}: trials {row['trials']}, expected {self.trials}")
            if not _close(row["exact_pe"], want.exact_pe):
                problems.append(f"{tag}: exact Pe {row['exact_pe']!r}, expected {want.exact_pe!r}")
            if not _close(row["exact_et"], want.exact_et):
                problems.append(f"{tag}: exact ET {row['exact_et']!r}, expected {want.exact_et!r}")
            pe_half = (row["pe_hi"] - row["pe_lo"]) / 2
            if abs(row["pe"] - want.exact_pe) > 3 * pe_half:
                problems.append(f"{tag}: Monte Carlo Pe {row['pe']} is over 3 half-widths from exact")
            et_half = et_half_width(want.exact_et, self.block, self.cap, self.trials)
            if abs(row["et"] - want.exact_et) > 3 * et_half:
                problems.append(f"{tag}: Monte Carlo ET {row['et']} is over 3 half-widths from exact")
        return problems + _csv_problem(out, self.csv_reference, seed)
