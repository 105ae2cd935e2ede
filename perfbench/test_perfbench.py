"""Self-tests of the benchmark's own code: output parsers and checks, span
arithmetic, failure accounting, and agreement with BENCHMARK.json.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
from checks import (
    BoundCheck,
    Outcome,
    SimExpect,
    SimulateCheck,
    VerifyCheck,
    et_half_width,
    parse_bound,
    parse_simulate,
    parse_verify,
)
from layer_trace import PER_LAYER, SpanTable, Tracer, dominant_layer, layer_metrics
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent

EXPONENT_OUT = """kind exponent
horizon 3
rate 0.25
value 1.3420045222115322
flags m4_encoders_restricted_to_per_step_maps
diag candidates 61440
diag et 3.0
"""

VERIFY_OUT = """[PASS] linear-drift  instance=bsc02 M=2 N=12  cases=4095  worst-margin=-1.3e-14
  constants: tol=1e-10

[FAIL] log-drift  instance=bsc02 M=2 N=12  cases=1898  worst-margin=-0.47

verify: 1/2 checks passed
"""

SIMULATE_OUT = """scheme yi_m2_n5+4_cap2: M=2 trials=100000 Pe=0.00272 [0.00240669,0.00306268] ET=9.27918 R=0.107768 E=0.918419
  exact: Pe=0.002581233054400338 ET=9.27118799998394 R=0.107861 E=0.927359
scheme yi_m4_n5+4_cap2: M=4 trials=100000 Pe=0.02425 [0.0233054,0.0252223] ET=10.1158 R=0.19771 E=0.530444
  exact: Pe=0.024379546693602344 ET=10.110762719985212 R=0.197809 E=0.529949
"""


def outcome(stdout: str, returncode: int | None = 0, csv: bytes | None = None) -> Outcome:
    return Outcome(returncode=returncode, stdout=stdout, stderr="", csv=csv, wall_s=1.0, maxrss_kb=1)


# ---------------------------------------------------------------------------
# parsers and checks
# ---------------------------------------------------------------------------


def test_parse_bound_reads_value_flags_and_diagnostics():
    res = parse_bound(EXPONENT_OUT)
    assert res["kind"] == "exponent"
    assert res["horizon"] == 3
    assert res["value"] == 1.3420045222115322
    assert res["flags"] == ("m4_encoders_restricted_to_per_step_maps",)
    assert res["diag"]["candidates"] == "61440"
    assert parse_bound("flags none\n")["flags"] == ()


def test_parse_verify_counts_tags_and_summary():
    res = parse_verify(VERIFY_OUT)
    assert res["tags"] == ("PASS", "FAIL")
    assert (res["passed"], res["total"]) == (1, 2)
    assert parse_verify("no summary")["passed"] is None


def test_parse_simulate_pairs_each_scheme_with_its_exact_line():
    rows = parse_simulate(SIMULATE_OUT)
    assert [r["m"] for r in rows] == [2, 4]
    assert rows[0]["pe_lo"] == 0.00240669 and rows[0]["pe_hi"] == 0.00306268
    assert rows[1]["exact_et"] == 10.110762719985212


def test_bound_check_accepts_the_reference_and_rejects_a_wrong_value():
    flags = ("m4_encoders_restricted_to_per_step_maps",)
    good = BoundCheck("exponent", 1, 1.3420045222115322, flags)
    assert good(outcome(EXPONENT_OUT, 1), seed=0) == []
    wrong = BoundCheck("exponent", 1, 1.3420045222115322 + 1e-9, flags)
    assert any("value" in p for p in wrong(outcome(EXPONENT_OUT, 1), seed=0))


def test_bound_check_compares_flags_in_printed_order():
    out = outcome(EXPONENT_OUT.replace("flags m4_", "flags b,m4_"), 1)
    check = BoundCheck("exponent", 1, 1.3420045222115322, ("m4_encoders_restricted_to_per_step_maps", "b"))
    assert any("flags" in p for p in check(out, seed=0))


def test_exit_code_and_timeout_fail_the_check():
    check = BoundCheck("exponent", 1, 1.3420045222115322, ("m4_encoders_restricted_to_per_step_maps",))
    assert "exit code 0" in check(outcome(EXPONENT_OUT, 0), seed=0)[0]
    assert "killed" in check(outcome(EXPONENT_OUT, None), seed=0)[0]


def test_verify_check_needs_summary_tags_and_reference_csv():
    check = VerifyCheck(1, 1, 2)
    assert check(outcome(VERIFY_OUT, 1), seed=0) == []
    assert check(outcome(VERIFY_OUT.replace("[FAIL]", "[PASS]"), 1), seed=0) != []
    with_csv = WORKLOADS["paths"].commands[0].check
    assert any("CSV" in p for p in with_csv(outcome("verify: 9/9 checks passed\n" + "[PASS] x\n" * 9, 0, b"x"), seed=0))
    assert with_csv(outcome("verify: 9/9 checks passed\n" + "[PASS] x\n" * 9, 0, b"x"), seed=1) == []


def test_simulate_check_accepts_reference_and_rejects_far_estimates():
    check = SimulateCheck(100000, 9, 2, (
        SimExpect(2, 0.002581233054400338, 9.27118799998394),
        SimExpect(4, 0.024379546693602344, 10.110762719985212),
    ))
    assert check(outcome(SIMULATE_OUT), seed=5) == []
    far = SIMULATE_OUT.replace("Pe=0.02425 ", "Pe=0.03 ")
    assert any("Monte Carlo Pe" in p for p in check(outcome(far), seed=5))
    wrong_exact = SIMULATE_OUT.replace("ET=9.27118799998394", "ET=9.27118799998")
    assert any("exact ET" in p for p in check(outcome(wrong_exact), seed=5))


def test_et_half_width_matches_two_point_variance():
    # with cap 2 the stop time is block or 2*block: mean 9.5 means p = 0.5
    assert math.isclose(et_half_width(13.5, 9, 2, 100), 1.96 * math.sqrt(4.5 * 4.5 / 100))
    assert et_half_width(9.0, 9, 2, 100) == 0.0


def test_recorded_csv_references_exist():
    for wl in WORKLOADS.values():
        for cmd in wl.commands:
            ref = getattr(cmd.check, "csv_reference", None)
            if ref:
                assert (ROOT / "perfbench" / "reference" / ref).read_bytes().startswith(b"# manifest: ")


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------


def table(spans):
    """spans: (name, parent, depth, start, end, value) rows in start order."""
    names = sorted({s[0] for s in spans})
    cols = list(zip(*spans))
    return SpanTable(
        names=names,
        name_id=np.array([names.index(n) for n in cols[0]], dtype=np.int32),
        parent=np.array(cols[1], dtype=np.int32),
        depth=np.array(cols[2], dtype=np.int32),
        start=np.array(cols[3], dtype=float),
        end=np.array(cols[4], dtype=float),
        value=np.array(cols[5], dtype=float),
    )


TREE = table([
    ("cli.main", -1, 0, 0.0, 10.0, 0),                            # 0
    ("bound_engine.exponent_candidates", 0, 1, 1.0, 9.0, 7),     # 1
    ("channel_model.forward_joint", 1, 2, 1.5, 3.5, 40),          # 2
    ("info_measures.kl", 1, 2, 4.0, 5.0, 0),                      # 3
    ("info_measures.expected_stop_time", 1, 2, 5.0, 8.0, 0),      # 4
    ("info_measures.directed_kl_stopped", 4, 3, 6.0, 7.5, 0),     # 5
    ("info_measures.kl", 5, 4, 6.5, 7.0, 0),                      # 6
])


def test_self_time_subtracts_direct_children_only():
    self_t = TREE.self_time()
    assert self_t.tolist() == pytest.approx([2.0, 2.0, 2.0, 1.0, 1.5, 1.0, 0.5])
    assert self_t.sum() == pytest.approx(10.0)  # self times tile the root span


def test_busy_counts_nested_group_members_once():
    stopped = ("info_measures.expected_stop_time", "info_measures.directed_kl_stopped")
    assert TREE.busy(stopped) == pytest.approx(3.0)
    assert TREE.calls(stopped) == 2
    assert TREE.busy(["info_measures.kl"]) == pytest.approx(1.5)
    assert TREE.work(["channel_model.forward_joint"]) == 40


def test_concat_offsets_parents_and_merges_names():
    both = SpanTable.concat([TREE, TREE])
    assert len(both.name_id) == 14
    assert both.parent[7] == -1 and both.parent[8] == 7
    assert both.self_time().sum() == pytest.approx(20.0)
    assert both.busy(["info_measures.kl"]) == pytest.approx(3.0)


def test_layer_metrics_cover_every_per_layer_name():
    m = layer_metrics(TREE, overhead_frac=0.05)
    assert set(m) == {name for name, _, _ in PER_LAYER}
    assert m["bound_engine.exponent_candidates.self_s"] == pytest.approx(2.0)
    assert m["bound_engine.candidates"] == 7
    assert m["info_measures.self_s"] == pytest.approx(4.0)
    assert m["vlc_sim.simulate_dmc.trials_per_s"] == 0.0  # layer bypassed
    assert dominant_layer(m)[0] == "info_measures"


def test_tracer_records_nesting_and_closes_spans_on_error():
    tr = Tracer()

    def inner(x):
        if x < 0:
            raise ValueError
        return x

    inner_t = tr.wrap("m.inner", inner, counter=lambda a, k, r: r)
    outer_t = tr.wrap("m.outer", lambda x: inner_t(x) + inner_t(x))
    assert outer_t(3) == 6
    with pytest.raises(ValueError):
        outer_t(-1)
    assert list(tr.parent) == [-1, 0, 0, -1, 3]
    assert list(tr.depth) == [0, 1, 1, 0, 1]
    assert list(tr.value)[:3] == [0.0, 3.0, 3.0]
    assert all(e >= s for s, e in zip(tr.start, tr.end))
    assert tr._stack == [-1]


def test_traced_command_matches_untraced_and_records_layers(tmp_path):
    env = run.child_env()
    argv = ["burnashev", "--channel", "channels/bsc01.json", "--rate", "0.25"]
    spans = tmp_path / "s.npz"
    plain = subprocess.run([sys.executable, "-m", "fbound.cli", *argv], cwd=ROOT, env=env,
                           capture_output=True, text=True, timeout=120)
    traced = subprocess.run([sys.executable, str(ROOT / "perfbench" / "traced_cli.py"),
                             str(spans), "w", "c", "--", *argv], cwd=ROOT, env=env,
                            capture_output=True, text=True, timeout=120)
    assert plain.returncode == 0
    assert (traced.returncode, traced.stdout) == (plain.returncode, plain.stdout)
    t = SpanTable.load(str(spans))
    called = {t.names[i] for i in t.name_id}
    assert {"cli.import", "cli.main", "bound_engine.burnashev", "channel_model.load_channel"} <= called
    # the burnashev line resolves kl through bound_engine's own name for it
    assert "info_measures.kl" in called


# ---------------------------------------------------------------------------
# failure accounting and the run's contract
# ---------------------------------------------------------------------------


def test_ledger_counts_failed_invocations_not_problems():
    led = run.Ledger()
    led.record("a", [])
    led.record("b", ["x", "y"])
    led.record("c", [])
    assert (led.attempted, led.failed) == (3, 1)
    assert led.failed_frac == pytest.approx(1 / 3)
    assert led.problems == ["b: x", "b: y"]


def test_run_child_reports_exit_code_and_kills_on_timeout(tmp_path):
    env = run.child_env()
    crash = run.run_child([sys.executable, "-c", "import sys; print('hi'); sys.exit(3)"],
                          env, tmp_path / "crash", timeout=60)
    assert (crash.returncode, crash.stdout) == (3, "hi\n")
    assert crash.maxrss_kb > 0
    slow = run.run_child([sys.executable, "-c", "import time; time.sleep(30)"],
                         env, tmp_path / "slow", timeout=0.5)
    assert slow.returncode is None and slow.wall_s < 10


def test_summary_gives_median_quartiles_and_count():
    s = run.summary([1.0, 2.0, 3.0, 4.0, 5.0])
    assert (s["q1"], s["median"], s["q3"], s["n"]) == (2.0, 3.0, 4.0, 5)
    assert run.summary([2.5])["median"] == 2.5


def test_timed_run_scales_every_mean_by_the_calibration():
    def timed(wall_s: float) -> Outcome:
        return Outcome(returncode=0, stdout="", stderr="", csv=None, wall_s=wall_s, maxrss_kb=2048)

    wl = WORKLOADS["bounds"]
    walls = {cmd.name: 1.0 + i for i, cmd in enumerate(wl.commands)}

    class Runner:
        seed = 1

        def remaining(self):
            return 100.0

        def setup_probe(self, _wl):
            return timed(0.5)

        def calibration(self):
            return timed(2 * run.CAL_REF_S)

        def command(self, cmd, _workload, traced):
            return timed(walls[cmd.name]), None

    ledger = run.Ledger()
    got = run.timed_run(wl, Runner(), 0.0, ledger, lambda line: None)   # one round only
    assert {k: v["value"] for k, v in got.items()} == pytest.approx(
        {"wall_s": 3.0, "setup_s": 0.25, "peak_rss_mb": 2.0, "cmd_a_s": 0.5, "cmd_b_s": 1.0, "cmd_c_s": 1.5})
    assert ledger.attempted == 6     # probe, two calibrations, three commands


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(PER_LAYER)
    assert all(m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_run_refuses_a_directory_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in (ROOT / "perfbench").glob("*.py"):
        (bench / f.name).write_bytes(f.read_bytes())
    res = subprocess.run([sys.executable, str(bench / "run.py"), "--workload", "paths",
                          "--seed", "0", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert res.returncode != 0
    assert res.stdout == ""
