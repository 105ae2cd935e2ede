"""fbound benchmark: timed CLI workloads, or one traced pass per layer.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  Each ``fbound`` invocation is a fresh child
process (``python3 -m fbound.cli``), so process start and import are part
of every timing; one child runs at a time, each started when the previous
one exits.  Every invocation's exit code and output are checked against the
references in ``workloads.py``; a failed check, crash or timeout counts as a
failed invocation and the run goes on.

``--trace 0`` runs rounds of the set-up probe (a fresh interpreter that
imports ``fbound.cli`` and parses the workload's channel files), each of the
workload's three commands once and the calibration child (``CAL_CODE``)
twice, in a fixed order, for ``--seconds``: the first round always runs
whole, and after it each step runs while its last duration still fits in
the window.  So every step samples the same stretch of the run.  It reports
each command's mean, ``wall_s`` as the sum of the three means and
``setup_s`` as the probes' mean, all scaled to the reference host speed:
times ``CAL_REF_S`` over the calibration's mean.

``--trace 1`` runs each command once untraced and once through
``traced_cli.py``, asserts that both give the same exit code, standard output
and CSV bytes, and reports the per-layer metrics of ``layer_trace.py``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Outputs, spans and
the run record go to ``.perfbench/`` under the repository root.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from time import perf_counter, time

from checks import Outcome
from layer_trace import PER_LAYER, SpanTable, dominant_layer, layer_metrics
from workloads import WORKLOADS, Command, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_ROOT = ROOT / ".perfbench"
RUN_LIMIT_S = 170.0   # the whole run, set-up included, ends well inside 180 s
SETUP_CODE = (
    "import sys\n"
    "import fbound.cli\n"
    "from fbound.channel_model import load_channel\n"
    "for path in sys.argv[1:]:\n"
    "    load_channel(path)\n"
)

# The calibration child: a fresh interpreter that imports what ``fbound``
# imports (numpy and scipy.stats) and runs a little fixed numpy work.  None
# of it is ``fbound`` code.
CAL_CODE = (
    "import numpy as np\n"
    "import scipy.stats\n"
    "a = np.random.default_rng(0).random(4096)\n"
    "for _ in range(1_000):\n"
    "    a = np.sort(np.sqrt(a * a + 1.0) - 0.5)[::-1].copy()\n"
)
# Seconds the calibration child takes at the reference host speed; the
# timed run reports every duration in seconds at that speed.
CAL_REF_S = 1.2

# (metric name, unit) of the timed run, in report order
END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("cmd_a_s", "s"),
    ("cmd_b_s", "s"),
    ("cmd_c_s", "s"),
)
# the metrics of a workload's commands (a), (b) and (c), in order
CMD_METRICS = ("cmd_a_s", "cmd_b_s", "cmd_c_s")


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------


def child_env() -> dict:
    """The caller's environment with the checkout's ``src`` first on the
    import path.  PYTHONHASHSEED is left as it is: output that depends on
    the hash seed must fail a check."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list[str], env: dict, stem: Path, timeout: float,
              csv_path: Path | None = None) -> Outcome:
    """Run one child to completion (or kill it at ``timeout``) and collect
    its exit code, output, wall time and peak resident set size."""
    out_path, err_path = stem.with_suffix(".stdout"), stem.with_suffix(".stderr")
    killed = threading.Event()
    with open(out_path, "wb") as fo, open(err_path, "wb") as fe:
        t0 = perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=fo, stderr=fe)

        def kill() -> None:
            killed.set()
            proc.kill()

        timer = threading.Timer(max(timeout, 0.0), kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    csv = csv_path.read_bytes() if csv_path is not None and csv_path.exists() else None
    return Outcome(
        returncode=None if killed.is_set() else proc.returncode,
        stdout=out_path.read_text(errors="replace"),
        stderr=err_path.read_text(errors="replace"),
        csv=csv,
        wall_s=wall,
        maxrss_kb=usage.ru_maxrss,
    )


@dataclass
class Ledger:
    """Invocations attempted and those that failed a check."""

    attempted: int = 0
    problems: list[str] = field(default_factory=list)
    failed: int = 0

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


class Runner:
    """Starts the workload's children one at a time inside the run's time
    limit and output directory."""

    def __init__(self, workdir: Path, seed: int, deadline: float):
        self.workdir = workdir
        self.seed = seed
        self.deadline = deadline
        self.env = child_env()
        self.count = 0

    def remaining(self) -> float:
        return self.deadline - perf_counter()

    def _stem(self, label: str) -> Path:
        self.count += 1
        return self.workdir / f"{self.count:04d}-{label}"

    def command(self, cmd: Command, workload: str, traced: bool) -> tuple[Outcome, Path]:
        """Run one command; returns its outcome and the stem of its files."""
        stem = self._stem(cmd.name + ("-traced" if traced else ""))
        csv_path = stem.with_suffix(".csv") if cmd.writes_csv else None
        args = cmd.expand(self.seed, str(csv_path.relative_to(ROOT)) if csv_path else "")
        if traced:
            spans = stem.with_suffix(".spans.npz")
            argv = [sys.executable, str(HERE / "traced_cli.py"), str(spans), workload, cmd.name, "--", *args]
        else:
            argv = [sys.executable, "-m", "fbound.cli", *args]
        return run_child(argv, {**self.env, **cmd.env}, stem, self.remaining(), csv_path), stem

    def setup_probe(self, wl: Workload) -> Outcome:
        argv = [sys.executable, "-c", SETUP_CODE, *wl.channels]
        return run_child(argv, self.env, self._stem("setup"), self.remaining())

    def calibration(self) -> Outcome:
        return run_child([sys.executable, "-c", CAL_CODE], self.env, self._stem("calibration"),
                         self.remaining())


# ---------------------------------------------------------------------------
# statistics and reporting
# ---------------------------------------------------------------------------


def summary(values: list[float]) -> dict:
    """Median, quartiles and sample count."""
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def run_record(workload: str, seed: int, trace: int) -> dict:
    def git(*args: str) -> str | None:
        if not (ROOT / ".git").exists():
            return None
        try:
            res = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return res.stdout.strip() if res.returncode == 0 else None

    def version(pkg: str) -> str | None:
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    status = git("status", "--porcelain")
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "commit": git("rev-parse", "HEAD"),
        "dirty": None if status is None else bool(status),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        "started_unix": time(),
        "loadavg_start": os.getloadavg(),
    }


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------


def timed_run(wl: Workload, runner: Runner, seconds: float, ledger: Ledger, log) -> dict:
    # one round: the set-up probe, the commands, and the calibration child
    # twice, so that a run has about twice as many calibrations as samples
    # of any command
    probe = ("setup", lambda: runner.setup_probe(wl), None)
    cal = ("calibration", runner.calibration, None)
    cmds = [(cmd.name, lambda cmd=cmd: runner.command(cmd, wl.name, traced=False)[0], cmd)
            for cmd in wl.commands]
    steps = [probe, cal, *cmds[:2], cal, *cmds[2:]]
    walls: dict[str, list[float]] = {name: [] for name, _, _ in steps}
    peak_kb = 0
    t_start = perf_counter()
    for i in itertools.count():
        name, run, cmd = steps[i % len(steps)]
        if i >= len(steps):
            expected = walls[name][-1]
            if perf_counter() - t_start + expected > seconds or runner.remaining() < 1.5 * expected:
                break
        out = run()
        if cmd is None:
            ledger.record(name, [] if out.returncode == 0 else [f"{name} exit {out.returncode}"])
        else:
            ledger.record(f"{name} run {len(walls[name]) + 1}", cmd.check(out, runner.seed))
            peak_kb = max(peak_kb, out.maxrss_kb)
        walls[name].append(out.wall_s)

    # Seconds at the reference host speed: every mean times CAL_REF_S over
    # the calibration's mean.  The host's speed drifts between runs by far
    # more than the samples of one run spread, and the drift slows the
    # calibration child about as much as the fbound children.  A run has
    # only a few samples of each step, and of those few the mean varied
    # less from run to run than the median.
    factor = CAL_REF_S / statistics.fmean(walls["calibration"])
    means = [factor * statistics.fmean(walls[cmd.name]) for cmd in wl.commands]
    values = {
        "wall_s": sum(means),
        "setup_s": factor * statistics.fmean(walls["setup"]),
        "peak_rss_mb": peak_kb / 1024.0,
        **dict(zip(CMD_METRICS, means)),
    }
    log(f"times are raw means x {factor:.6f} ({CAL_REF_S:g} s over the calibration's mean)")
    log(f"wall_s: {values['wall_s']:.6f} s (sum of the commands' means)")
    for label, name in (("setup_s", "setup"),
                        *((f"{m} = {cmd.name}", cmd.name) for m, cmd in zip(CMD_METRICS, wl.commands)),
                        ("calibration", "calibration")):
        s = summary(walls[name])
        log(f"{label}: raw mean {statistics.fmean(walls[name]):.6f} s  median {s['median']:.6f}"
            f"  q1 {s['q1']:.6f}  q3 {s['q3']:.6f}  n {s['n']}"
            "  samples " + " ".join(f"{v:.3f}" for v in walls[name]))
    log(f"peak_rss_mb: {values['peak_rss_mb']:.3f} MB")
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def traced_run(wl: Workload, runner: Runner, ledger: Ledger, log) -> dict:
    tables = []
    plain_wall = traced_wall = 0.0
    for cmd in wl.commands:
        plain, _ = runner.command(cmd, wl.name, traced=False)
        ledger.record(f"{cmd.name} untraced", cmd.check(plain, runner.seed))
        traced, stem = runner.command(cmd, wl.name, traced=True)
        problems = cmd.check(traced, runner.seed)
        if (traced.returncode, traced.stdout, traced.csv) != (plain.returncode, plain.stdout, plain.csv):
            problems.append("traced exit code, output or CSV differs from the untraced run")
        ledger.record(f"{cmd.name} traced", problems)
        plain_wall += plain.wall_s
        traced_wall += traced.wall_s
        spans = stem.with_suffix(".spans.npz")
        if spans.exists():
            tables.append(SpanTable.load(str(spans)))
        log(f"{cmd.name}: untraced {plain.wall_s:.6f} s  traced {traced.wall_s:.6f} s")
    overhead = traced_wall / plain_wall - 1.0 if plain_wall > 0 else 0.0
    metrics = layer_metrics(SpanTable.concat(tables), overhead)
    units = {name: unit for name, unit, _ in PER_LAYER}
    for name, _unit, _better in PER_LAYER:
        log(f"{name}: {metrics[name]!r} {units[name]}")
    layer, share = dominant_layer(metrics)
    log(f"dominant layer by self time: {layer} ({share:.1%} of traced layer self time)")
    return {name: {"value": metrics[name], "unit": units[name]} for name, _, _ in PER_LAYER}


# ---------------------------------------------------------------------------


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    t0 = perf_counter()
    missing = [p for p in ("src/fbound/cli.py", *WORKLOADS[args.workload].channels)
               if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not an fbound checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    workdir = OUT_ROOT / f"{wl.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    log_lines: list[str] = []

    def log(line: str) -> None:
        log_lines.append(line)
        print(line, flush=True)

    record = run_record(wl.name, args.seed, args.trace)
    log(f"fbound benchmark: workload {wl.name}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    runner = Runner(workdir, args.seed, t0 + RUN_LIMIT_S)
    ledger = Ledger()
    if args.trace:
        metrics = traced_run(wl, runner, ledger, log)
    else:
        metrics = timed_run(wl, runner, args.seconds, ledger, log)
    for problem in ledger.problems:
        log(f"check failed: {problem}")
    log(f"failed_frac: {ledger.failed}/{ledger.attempted} = {ledger.failed_frac!r}")
    record["loadavg_end"] = os.getloadavg()
    record["elapsed_s"] = perf_counter() - t0
    log("record " + json.dumps(record, sort_keys=True))
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }
    (workdir / "record.json").write_text(json.dumps({**record, "result": result, "log": log_lines}, indent=2) + "\n")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
