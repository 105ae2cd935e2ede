"""CLI behavior: exit codes, output parsing, manifest reproducibility."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import child_env
from fbound.channel_model import SchemaError, check_seed
from fbound.cli import build_parser, main, read_manifest, rerun_from_manifest
from fbound.vlc_sim import _clopper_pearson_text, build_yamamoto_itoh, load_scheme

_CHANNELS = Path(__file__).resolve().parents[1] / "channels"
BSC01 = str(_CHANNELS / "bsc01.json")
FLIP2 = str(_CHANNELS / "flip2.json")
Z01 = str(_CHANNELS / "z01.json")
CAP01 = 0.5310044064107188
C1_01 = 2.5359400011538495
# the scheme build_yamamoto_itoh(bsc01, 2, 3, 4, 2, seed=5) builds
YI_SEED5 = {
    "variant": "yamamoto_itoh", "name": "yi_m2_n3+4_cap2", "m": 2, "n1": 3, "n2": 4,
    "cap": 2, "x_size": 2, "threshold": 0.0, "codebook": [[1, 1, 0], [1, 0, 1]],
    "confirm": [0, 1],
}


def _parse_kv_line(line: str) -> dict:
    return {k: float(v) for k, v in (tok.split("=") for tok in line.split())}


def test_burnashev_halfway_rate_prints_closed_form(capsys):
    rc = main(["burnashev", "--channel", BSC01, "--rate", repr(CAP01 / 2)])
    assert rc == 0
    vals = _parse_kv_line(capsys.readouterr().out.strip().splitlines()[-1])
    assert vals["C"] == pytest.approx(CAP01, abs=1e-6)
    assert vals["C1"] == pytest.approx(C1_01, abs=1e-6)
    assert vals["E"] == pytest.approx(C1_01 / 2, abs=1e-6)


def test_usage_and_domain_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as e:
        main(["burnashev", "--channel", BSC01])  # missing --rate
    assert e.value.code == 2
    assert main(["burnashev", "--channel", BSC01, "--rate", "0.9"]) == 2
    assert main(["burnashev", "--channel", FLIP2, "--rate", "0.1"]) == 2
    assert main(["burnashev", "--channel", str(_CHANNELS / "missing.json"), "--rate", "0.1"]) == 2
    with pytest.raises(SystemExit) as e:
        main(["simulate", "--channel", BSC01, "--trials", "10"])  # no scheme
    assert e.value.code == 2
    capsys.readouterr()


def test_verify_all_passes_and_mutation_fails(capsys):
    assert main(["verify", "--channel", BSC01, "--trials", "3000"]) == 0
    out = capsys.readouterr().out
    assert "verify: 9/9 checks passed" in out
    assert "[FAIL]" not in out

    assert main(["verify", "--channel", BSC01, "--trials", "3000",
                 "--mutate", "halve_kl_drift"]) == 1
    out = capsys.readouterr().out
    failed = {ln.split()[1] for ln in out.splitlines() if ln.startswith("[FAIL]")}
    assert failed == {"log-drift", "pruned-submartingale", "kl-transfer"}


def test_verify_epsilon_domain_error_exits_2(capsys):
    assert main(["verify", "--channel", BSC01, "--suite", "lemma4",
                 "--epsilon", "0.2"]) == 2
    capsys.readouterr()


def test_capacity_bound_pinned_stop_recovers_capacity(tmp_path, capsys):
    out = tmp_path / "cap.csv"
    rc = main(["bound-capacity", "--channel", BSC01, "--horizon", "2",
               "--fixed-t", "2", "--restarts", "2", "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    value = float([ln for ln in text.splitlines() if ln.startswith("value ")][0].split()[1])
    assert value == pytest.approx(CAP01, abs=5e-3)
    lines = out.read_text().splitlines()
    assert lines[1] == "kind,horizon,rate,value,flags"
    kind, horizon, rate, val, flags = lines[2].split(",")
    assert (kind, horizon, rate, flags) == ("capacity", "2", "", "")
    assert float(val) == value
    man = read_manifest(out)
    assert man["command"] == "bound-capacity"
    assert "workers" not in man["config"] and "out" not in man["config"]
    assert len(man["channel"]["sha256"]) == 64


def test_bound_json_output_is_parseable(capsys):
    rc = main(["bound-capacity", "--channel", BSC01, "--horizon", "2",
               "--fixed-t", "2", "--restarts", "0", "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "capacity" and payload["horizon"] == 2


def test_exponent_flagged_search_exits_1(capsys):
    rc = main(["bound-exponent", "--channel", Z01,
               "--rate", "0.1", "--horizon", "2", "--messages", "2"])
    assert rc == 1
    out = capsys.readouterr().out
    assert "infinite_divergence" in out
    assert "value inf" in out


@pytest.mark.parametrize("channel,stopping", [(BSC01, "fixed"), (BSC01, "all"), (Z01, "all")])
def test_bound_exponent_prints_plain_numbers(channel, stopping, capsys):
    # a numpy scalar would print as np.float64(...) under numpy 2
    main(["bound-exponent", "--channel", channel, "--rate", "0.25", "--horizon", "2",
          "--stopping", stopping, "--messages", "2"])
    lines = [ln for ln in capsys.readouterr().out.splitlines()
             if ln.startswith(("value ", "diag "))]
    assert len(lines) == 6
    assert not [ln for ln in lines if "np." in ln or "(" in ln]


def test_simulate_csv_identical_on_manifest_rerun(tmp_path, capsys):
    base = ["simulate", "--channel", BSC01, "--m", "2,4", "--n1", "3",
            "--n2", "4", "--cap", "2", "--trials", "600", "--seed", "11"]
    a, c = tmp_path / "a.csv", tmp_path / "c.csv"
    assert main(base + ["--out", str(a)]) == 0

    man = read_manifest(a)
    assert man["config"]["m"] == [2, 4]
    assert rerun_from_manifest(man, out=str(c)) == 0
    assert c.read_bytes() == a.read_bytes()
    capsys.readouterr()


def test_rerun_refuses_stale_hash(tmp_path):
    out = tmp_path / "x.csv"
    assert main(["simulate", "--channel", BSC01, "--m", "2", "--n1", "2",
                 "--n2", "2", "--cap", "1", "--trials", "50",
                 "--out", str(out)]) == 0
    man = read_manifest(out)
    man["channel"]["sha256"] = "0" * 64
    with pytest.raises(SchemaError):
        rerun_from_manifest(man, out=str(tmp_path / "y.csv"))


def test_simulate_accepts_scheme_file(tmp_path, capsys, bsc01):
    path = tmp_path / "scheme.json"
    path.write_text(json.dumps(YI_SEED5))
    assert load_scheme(path) == build_yamamoto_itoh(bsc01, 2, 3, 4, 2, seed=5)
    flags = tmp_path / "f.csv"
    built = tmp_path / "g.csv"
    assert main(["simulate", "--channel", BSC01, "--scheme", str(path),
                 "--trials", "400", "--seed", "1", "--out", str(flags)]) == 0
    assert main(["simulate", "--channel", BSC01, "--m", "2", "--n1", "3",
                 "--n2", "4", "--cap", "2", "--scheme-seed", "5",
                 "--trials", "400", "--seed", "1", "--out", str(built)]) == 0
    capsys.readouterr()
    # same scheme by file or by construction: identical data rows
    assert flags.read_text().splitlines()[1:] == built.read_text().splitlines()[1:]
    man = read_manifest(flags)
    assert len(man["scheme"]["sha256"]) == 64


def test_budget_env_var_exits_3(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("FBOUND_BUDGET", "10")
    rc = main(["simulate", "--channel", BSC01, "--m", "2", "--n1", "3",
               "--n2", "4", "--cap", "2", "--trials", "20", "--exact"])
    assert rc == 3
    monkeypatch.setenv("FBOUND_BUDGET", "not-a-number")
    rc = main(["simulate", "--channel", BSC01, "--m", "2", "--n1", "3",
               "--n2", "4", "--cap", "2", "--trials", "20", "--exact"])
    assert rc == 2
    capsys.readouterr()


def test_exact_budget_error_says_how_far_the_walk_got(capsys, monkeypatch):
    monkeypatch.setenv("FBOUND_BUDGET", "20000")
    rc = main(["simulate", "--channel", BSC01, "--m", "2", "--n1", "3", "--n2", "4",
               "--cap", "2", "--scheme-seed", "5", "--trials", "20", "--exact"])
    assert rc == 3
    captured = capsys.readouterr()
    # the scheme line prints even though the walk it now follows was refused
    assert captured.out == (
        "scheme yi_m2_n3+4_cap2: M=2 trials=20 Pe=0 [0,0.168433] ET=7.35 R=0.136054 E=inf\n"
    )
    assert captured.err == (
        "error: 20828 tree nodes by use 7 of block 2 of 2 (message 2 of 2) exceed the "
        "exact-evaluation budget 20000\n"
    )


def test_exact_walk_refusing_the_kernel_still_prints_the_scheme_line(capsys):
    rc = main(["simulate", "--channel", str(_CHANNELS / "histk2.json"), "--m", "2", "--n1", "1",
               "--n2", "1", "--cap", "1", "--trials", "2000", "--exact"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == (
        "scheme yi_m2_n1+1_cap1: M=2 trials=2000 Pe=0.349 [0.328094,0.370349] ET=2 R=0.5 "
        "E=0.759351\n"
    )
    assert captured.err == "error: exact evaluation supports memoryless and markov1 kernels\n"


def test_verify_honours_the_budget_env_var(capsys, monkeypatch):
    # bsc02, M=2, horizon 11: 4,096 trajectories, 128 of them by step 6
    monkeypatch.setenv("FBOUND_BUDGET", "100")
    rc = main(["verify", "--channel", str(_CHANNELS / "bsc02.json"), "--suite", "all",
               "--horizon", "11"])
    assert rc == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: 128 live trajectories at step 6 of horizon 11 exceed the trajectory "
        "budget 100\n"
    )


SIMULATE = ["simulate", "--channel", BSC01, "--m", "2", "--n1", "3", "--n2", "4",
            "--cap", "2", "--trials", "20"]


@pytest.mark.parametrize("argv,message", [
    (["verify", "--channel", BSC01, "--suite", "lemma7", "--seed", "-1"],
     "--seed must be an integer in 0..2**64 - 1, got -1"),
    (["verify", "--channel", BSC01, "--suite", "lemma7", "--seed", str(2**64)],
     f"--seed must be an integer in 0..2**64 - 1, got {2**64}"),
    (["bound-capacity", "--channel", BSC01, "--horizon", "2", "--seed", "-1",
      "--restarts", "1"],
     "seed must be an integer in 0..2**64 - 1, got -1"),
    (["bound-exponent", "--channel", BSC01, "--rate", "0.1", "--seed", str(2**64)],
     f"seed must be an integer in 0..2**64 - 1, got {2**64}"),
    (SIMULATE + ["--seed", "-1"], "--seed must be an integer in 0..2**64 - 1, got -1"),
    (SIMULATE + ["--seed", str(2**64)],
     f"--seed must be an integer in 0..2**64 - 1, got {2**64}"),
    (SIMULATE + ["--scheme-seed", "-1"],
     "--scheme-seed must be an integer in 0..2**64 - 1, got -1"),
], ids=["verify-neg", "verify-2**64", "capacity-neg", "exponent-2**64", "simulate-neg",
        "simulate-2**64", "scheme-seed-neg"])
def test_seed_outside_64_bits_exits_2(argv, message, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def test_seed_range_ends_are_accepted(capsys):
    check_seed(0, "seed")
    check_seed(2**64 - 1, "seed")
    for bad in (-1, 2**64, 1.0, True, "3"):
        with pytest.raises(SchemaError, match="must be an integer in 0..2"):
            check_seed(bad, "seed")
    # the top seed runs with warnings as errors, and not on seed 0's draws
    outs = []
    for seed in (2**64 - 1, 0):
        assert main(SIMULATE + ["--seed", str(seed), "--scheme-seed", str(seed)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        outs.append(captured.out.replace(str(seed), "SEED"))
    assert outs[0] != outs[1]


def test_exact_flag_reports_enumeration(capsys):
    rc = main(["simulate", "--channel", BSC01, "--m", "2", "--n1", "3",
               "--n2", "4", "--cap", "2", "--scheme-seed", "5",
               "--trials", "2000", "--seed", "11", "--exact"])
    assert rc == 0
    out = capsys.readouterr().out
    exact_line = [ln for ln in out.splitlines() if "exact:" in ln][0]
    assert "Pe=0.021233584000000274" in exact_line


def test_verify_suite_round_trip_via_manifest(tmp_path, capsys):
    out = tmp_path / "v.csv"
    assert main(["verify", "--channel", BSC01, "--suite", "fano",
                 "--out", str(out)]) == 0
    again = tmp_path / "v2.csv"
    assert rerun_from_manifest(read_manifest(out), out=str(again)) == 0
    assert out.read_bytes() == again.read_bytes()
    lines = out.read_text().splitlines()
    assert lines[1] == "check,instance,cases,worst,passed"
    assert lines[2].startswith("decoder-entropy-ceiling,")
    capsys.readouterr()


# The three search commands of the benchmark's ``bounds`` workload, with
# their ``--json`` output recorded before the search moved to rule tables.
_REFERENCE = Path(__file__).resolve().parent / "reference"
BOUNDS_COMMANDS = [
    (["bound-exponent", "--channel", BSC01, "--rate", "0.25", "--horizon", "3",
      "--stopping", "all", "--messages", "2", "--json"],
     {"FBOUND_BUDGET": "1000"}, 1, "bound_exponent_bsc01_h3_all.json"),
    (["bound-capacity", "--channel", FLIP2, "--horizon", "3", "--stopping", "all",
      "--restarts", "0", "--seed", "0", "--json"],
     {}, 0, "bound_capacity_flip2_h3_all.json"),
    (["bound-capacity", "--channel", str(_CHANNELS / "histk2.json"), "--horizon", "2",
      "--stopping", "all", "--seed", "0", "--json"],
     {}, 0, "bound_capacity_histk2_h2_all.json"),
]


@pytest.mark.parametrize("argv,env,code,reference", BOUNDS_COMMANDS,
                         ids=[c[3].removesuffix(".json") for c in BOUNDS_COMMANDS])
def test_bound_search_json_is_byte_identical_to_reference(
        argv, env, code, reference, capsys, monkeypatch):
    for key, val in env.items():
        monkeypatch.setenv(key, val)
    assert main(argv) == code
    assert capsys.readouterr().out == (_REFERENCE / reference).read_text()


def test_restarts_at_the_largest_seed_are_byte_identical_to_reference(capsys):
    # recorded when the restarts were drawn by numpy.random; on bsc02 the
    # uniform start stays the maximizer, so the value pins the seed's path
    # through the search, and test_seeded_draws pins the stream
    argv = ["bound-capacity", "--channel", str(_CHANNELS / "bsc02.json"), "--horizon", "2",
            "--restarts", "3", "--seed", str(2**64 - 1), "--json"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out == (_REFERENCE / "bound_capacity_bsc02_h2_r3_seed_max.json").read_text()


def test_readme_z01_exponent_json_is_byte_identical_to_reference(capsys):
    # z01's zero entry gives encoders different node orders; the reference
    # was recorded when each encoder's law was built on its own path
    argv = ["bound-exponent", "--channel", Z01, "--rate", "0.3", "--horizon", "3", "--json"]
    assert main(argv) == 1
    out = capsys.readouterr().out
    assert out == (_REFERENCE / "bound_exponent_z01_h3.json").read_text()


def test_capacity_budget_boundary_is_the_uniform_laws_trajectory_count(capsys, monkeypatch):
    # flip2 at H = 3: the uniform policy's law, the one law the search
    # builds and the largest any policy reaches, has 8**3 = 512 trajectories
    argv = BOUNDS_COMMANDS[1][0]
    monkeypatch.setenv("FBOUND_BUDGET", "511")
    assert main(argv) == 3
    assert capsys.readouterr() == (
        "", "error: 512 live trajectories at step 3 of horizon 3 exceed the trajectory "
        "budget 511\n")
    monkeypatch.setenv("FBOUND_BUDGET", "512")
    assert main(argv) == 0
    assert capsys.readouterr().out == (_REFERENCE / "bound_capacity_flip2_h3_all.json").read_text()


@pytest.mark.parametrize("budget,messages,error", [
    ("16", "2", "32 live trajectories at step 2 of horizon 2 exceed the trajectory budget 16"),
    ("4", "1,2", "16 live trajectories at step 2 of horizon 2 exceed the trajectory budget 4"),
    # the M = 1 laws fit; the first M = 2 law does not
    ("16", "1,2", "32 live trajectories at step 2 of horizon 2 exceed the trajectory budget 16"),
    ("8", "2", "even the per-step encoder family for m=2 exceeds cap 8"),
], ids=["trajectories", "trajectories-m1", "trajectories-second-m", "encoder-cap"])
def test_exponent_search_over_the_budget_exits_3(budget, messages, error, capsys, monkeypatch):
    # recorded from the one-law-per-encoder search: the budget caps the
    # trajectories of each encoder's law and the encoders per message count
    monkeypatch.setenv("FBOUND_BUDGET", budget)
    argv = ["bound-exponent", "--channel", FLIP2, "--rate", "0.1", "--horizon", "2",
            "--messages", messages]
    assert main(argv) == 3
    assert capsys.readouterr() == ("", f"error: {error}\n")


def test_an_encoder_family_past_the_int64_index_exits_3(capsys, monkeypatch):
    # under a budget of 2e19, the 2**64 per-step encoders of 32 messages at
    # H = 2 are within the cap, but their indices do not fit an int64
    monkeypatch.setenv("FBOUND_BUDGET", "2e19")
    argv = ["bound-exponent", "--channel", FLIP2, "--rate", "0.1", "--horizon", "2",
            "--messages", "32"]
    assert main(argv) == 3
    assert capsys.readouterr() == ("", "error: the per_step encoder family for m=32 has "
                                   f"{2**64} encoders, over the int64 index cap {2**63 - 1}\n")


@pytest.mark.parametrize("rate,message", [
    ("nan", "rate must be a nonnegative number, got nan"),
    ("1e400", "rate must be finite, got inf"),
])
def test_a_bad_exponent_rate_is_named(rate, message, capsys):
    argv = ["bound-exponent", "--channel", BSC01, "--rate", rate, "--horizon", "2"]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("argv,env", [
    (["bound-capacity", "--channel", BSC01, "--grid", "0"], {}),
    (["bound-capacity", "--channel", BSC01, "--restarts", "-1"], {}),
    (["bound-capacity", "--channel", BSC01, "--sweeps", "-2"], {}),
    (["bound-exponent", "--channel", BSC01, "--rate", "0.1", "--messages", "0"], {}),
    (["bound-capacity", "--channel", BSC01], {"FBOUND_BUDGET": "inf"}),
    (["bound-capacity", "--channel", BSC01], {"FBOUND_BUDGET": "-inf"}),
    (["bound-capacity", "--channel", BSC01], {"FBOUND_BUDGET": "nan"}),
    (["simulate", "--channel", BSC01, "--m", "2", "--n1", "3", "--n2", "4",
      "--cap", "2", "--trials", "20", "--threshold", "nan"], {}),
    (["burnashev", "--channel", BSC01, "--rate", "nan"], {}),
    (["bound-exponent", "--channel", BSC01, "--rate", "nan", "--messages", "2"], {}),
    (["bound-exponent", "--channel", BSC01, "--rate", "inf", "--messages", "2"], {}),
    (["verify", "--channel", BSC01, "--suite", "maximal", "--trials", "0"], {}),
], ids=["grid-0", "restarts-neg", "sweeps-neg", "messages-0", "budget-inf",
        "budget-neg-inf", "budget-nan", "threshold-nan", "burnashev-rate-nan",
        "exponent-rate-nan", "exponent-rate-inf", "verify-trials-0"])
def test_bad_search_inputs_exit_2_with_a_message(argv, env, capsys, monkeypatch):
    for key, val in env.items():
        monkeypatch.setenv(key, val)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_import_loads_no_scipy_module():
    # scipy is only for simulate's interval; each import runs in a fresh
    # interpreter, since this one has loaded scipy already
    for module in ("fbound", "fbound.cli"):
        code = (f"import sys, {module}; "
                "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=child_env(), check=True).stdout
        assert out.strip() == "[]", module


# ``verify`` runs whose stdout and ``--out`` CSV (or error line) were
# recorded before the drift checks became node-table reductions; every
# printed margin must stay the same to the last bit.
VERIFY_COMMANDS = [
    ("verify_bsc02_h11_all", ["channels/bsc02.json", "--suite", "all", "--horizon", "11",
                              "--seed", "0"], 0),
    ("verify_bsc01_h8_m2_all", ["channels/bsc01.json", "--suite", "all", "--horizon", "8",
                                "--messages", "2"], 0),
    # lemma 4 refuses this law: re-recorded when ``--suite all`` began to
    # print the other checks' verdicts, each the bytes of its own suite's run
    ("verify_bsc01_h8_m4_all", ["channels/bsc01.json", "--suite", "all", "--horizon", "8",
                                "--messages", "4"], 2),
    ("verify_bsc01_h8_m4_eps05_all", ["channels/bsc01.json", "--suite", "all", "--horizon",
                                      "8", "--messages", "4", "--epsilon", "0.5"], 0),
    ("verify_flip2_h8_drift", ["channels/flip2.json", "--suite", "drift", "--horizon", "8"], 0),
    ("verify_flip2_h8_fano", ["channels/flip2.json", "--suite", "fano", "--horizon", "8"], 0),
    ("verify_flip2_h8_maximal", ["channels/flip2.json", "--suite", "maximal", "--horizon",
                                 "8"], 0),
    ("verify_bsc02_h11_lemma1_halve", ["channels/bsc02.json", "--suite", "lemma1", "--horizon",
                                       "11", "--mutate", "halve_kl_drift"], 1),
]


@pytest.mark.parametrize("name,args,code", VERIFY_COMMANDS, ids=[c[0] for c in VERIFY_COMMANDS])
def test_verify_output_is_byte_identical_to_reference(name, args, code, tmp_path, capsys,
                                                      monkeypatch):
    monkeypatch.chdir(_CHANNELS.parent)  # the manifest records the channel path as given
    out = tmp_path / "v.csv"
    assert main(["verify", "--channel", *args, "--out", str(out)]) == code
    captured = capsys.readouterr()
    assert captured.out == (_REFERENCE / f"{name}.out").read_text()
    if code == 2:
        assert captured.err == (_REFERENCE / f"{name}.err").read_text()
        assert not out.exists()
    else:
        assert out.read_bytes() == (_REFERENCE / f"{name}.csv").read_bytes()


# ``simulate --exact`` runs whose stdout and ``--out`` CSV were recorded
# before the exact walk and the state path became array passes: the
# benchmark's two commands at seed 0 and an M=4, cap-3 run with a confirm
# threshold, on the markov1 channel.
SIMULATE_COMMANDS = [
    ("simulate_bsc01_m2_exact", ["channels/bsc01.json", "--m", "2", "--n1", "5", "--n2", "4",
                                 "--cap", "2", "--trials", "100000", "--seed", "0"]),
    ("simulate_flip2_m2_exact", ["channels/flip2.json", "--m", "2", "--n1", "3", "--n2", "4",
                                 "--cap", "2", "--trials", "20000", "--seed", "0"]),
    ("simulate_flip2_m4_cap3_t15_exact", ["channels/flip2.json", "--m", "4", "--n1", "3",
                                          "--n2", "2", "--cap", "3", "--threshold", "1.5",
                                          "--trials", "5000", "--seed", "0"]),
]


@pytest.mark.parametrize("name,args", SIMULATE_COMMANDS, ids=[c[0] for c in SIMULATE_COMMANDS])
def test_simulate_exact_output_is_byte_identical_to_reference(name, args, tmp_path, capsys,
                                                              monkeypatch):
    monkeypatch.chdir(_CHANNELS.parent)  # the manifest records the channel path as given
    out = tmp_path / "s.csv"
    assert main(["simulate", "--channel", *args, "--exact", "--out", str(out)]) == 0
    assert capsys.readouterr().out == (_REFERENCE / f"{name}.out").read_text()
    assert out.read_bytes() == (_REFERENCE / f"{name}.csv").read_bytes()


def test_simulate_in_a_fresh_process_matches_reference(tmp_path):
    # the in-process runs above cannot catch a broken lazy scipy import:
    # other test modules have loaded scipy by the time they run.  The CSV's
    # interval bits need only scipy's compiled ufunc module; the package
    # body, with its array-API backends, never runs
    name, args = SIMULATE_COMMANDS[1]
    out = tmp_path / "s.csv"
    code = ("import sys; from fbound.cli import main; rc = main(sys.argv[1:]); "
            "print([m in sys.modules for m in ('scipy.special._ufuncs', 'scipy.special', "
            "'scipy.special._support_alternative_backends')], file=sys.stderr); "
            "sys.exit(rc)")
    proc = subprocess.run([sys.executable, "-c", code, "simulate", "--channel", *args,
                           "--exact", "--out", str(out)], capture_output=True, text=True,
                          cwd=_CHANNELS.parent, env=child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "[True, False, False]\n"
    assert proc.stdout == (_REFERENCE / f"{name}.out").read_text()
    assert out.read_bytes() == (_REFERENCE / f"{name}.csv").read_bytes()


def test_simulate_without_out_loads_no_scipy():
    # no CSV, so the printed interval needs no betaincinv bits: the certified
    # pure-math digits print the reference bytes without importing scipy
    name, args = SIMULATE_COMMANDS[1]
    code = ("import sys; from fbound.cli import main; rc = main(sys.argv[1:]); "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'], file=sys.stderr); "
            "sys.exit(rc)")
    proc = subprocess.run([sys.executable, "-c", code, "simulate", "--channel", *args,
                           "--exact"], capture_output=True, text=True,
                          cwd=_CHANNELS.parent, env=child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "[]\n"
    assert proc.stdout == (_REFERENCE / f"{name}.out").read_text()


# Runs ``fbound.cli.main`` on argv with ``vlc_sim.exact_stats`` wrapped so
# that each walk records whether scipy is loaded as it starts; prints those
# records and then whether scipy is loaded at exit.
_WALK_PROBE = """
import sys
import fbound.cli as cli
from fbound import vlc_sim

def scipy_loaded():
    return any(m.split(".")[0] == "scipy" for m in sys.modules)

walk, seen = vlc_sim.exact_stats, []

def probe(*args, **kw):
    seen.append(scipy_loaded())
    return walk(*args, **kw)

vlc_sim.exact_stats = probe
rc = cli.main(sys.argv[1:])
print(seen, scipy_loaded(), file=sys.stderr)
sys.exit(rc)
"""


@pytest.mark.parametrize("seed", ["0", "6"])
def test_exact_walk_runs_before_scipy_loads(seed, tmp_path):
    # scipy (betaincinv, for the CSV and any uncertified printed digit) loads
    # only after the walk, so it never adds its memory on top of the walk's
    # level arrays.  Seed 0's digits are certified; seed 6 draws 256 errors,
    # whose digits are not, so its scheme line falls back to betaincinv.
    name, args = SIMULATE_COMMANDS[0]
    assert args[-2:] == ["--seed", "0"]
    out = tmp_path / "s.csv"
    proc = subprocess.run([sys.executable, "-c", _WALK_PROBE, "simulate", "--channel",
                           *args[:-1], seed, "--exact", "--out", str(out)],
                          capture_output=True, text=True, cwd=_CHANNELS.parent,
                          env=child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "[False] True\n"
    if seed == "0":
        assert proc.stdout == (_REFERENCE / f"{name}.out").read_text()
        assert out.read_bytes() == (_REFERENCE / f"{name}.csv").read_bytes()
    else:
        assert _clopper_pearson_text(256, 100000) is None
        assert proc.stdout.startswith("scheme yi_m2_n5+4_cap2: M=2 trials=100000 Pe=0.00256 "
                                      "[0.00225631,0.00289308] ")


@pytest.mark.parametrize("argv,loaded", [
    (["bound-exponent", "--channel", BSC01, "--rate", "0.25"], []),
    (["bound-capacity", "--channel", FLIP2, "--restarts", "0"], []),
    # a manifest loads hashlib; a random restart draws without numpy.random
    (["bound-capacity", "--channel", FLIP2, "--restarts", "1", "--out", "{out}"],
     ["_hashlib"]),
    # nor does a codebook draw, and with no CSV neither module loads
    (["simulate", "--channel", BSC01, "--m", "2", "--n1", "3", "--n2", "4", "--cap", "2",
      "--scheme-seed", "5", "--trials", "1000", "--exact"], []),
    # a CSV's manifest loads hashlib, and its interval bits load scipy's
    # compiled special functions, whose package body would import numpy.random
    (["simulate", "--channel", BSC01, "--m", "2", "--n1", "3", "--n2", "4", "--cap", "2",
      "--scheme-seed", "5", "--trials", "1000", "--out", "{out}"], ["_hashlib"]),
])
def test_bound_commands_load_openssl_and_numpy_random_only_when_used(argv, loaded, tmp_path):
    code = ("import sys; from fbound.cli import main; rc = main(sys.argv[1:]); "
            "print([m for m in ('_hashlib', 'numpy.random') if m in sys.modules], "
            "file=sys.stderr)")
    argv = [a.replace("{out}", str(tmp_path / "b.csv")) for a in argv]
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                          text=True, env=child_env(), timeout=120)
    assert proc.stderr == f"{loaded}\n"


# Runs ``fbound.cli.main`` on argv, or with no argv the benchmark's set-up
# probe (import the CLI, parse a channel file), and prints the fbound
# modules that executed.  ``type()`` reads no attribute of a module, so it
# does not itself execute one that is registered but not yet loaded.
_EXECUTED_PROBE = """
import sys, types
import fbound.cli
if sys.argv[1:]:
    rc = fbound.cli.main(sys.argv[1:])
else:
    from fbound.channel_model import load_channel
    load_channel("channels/bsc01.json")
    rc = 0
print(sorted(n for n, m in sys.modules.items()
             if n.startswith("fbound.") and type(m) is types.ModuleType), file=sys.stderr)
sys.exit(rc)
"""
_BOUNDS = ["fbound.bound_engine", "fbound.channel_model", "fbound.cli", "fbound.info_measures"]


# the set-up probe, each command of the benchmark's two workloads, and burnashev
@pytest.mark.parametrize("argv,env,rc,executed", [
    ([], {}, 0, ["fbound.channel_model", "fbound.cli"]),
    (["bound-exponent", "--channel", "channels/bsc01.json", "--rate", "0.25", "--horizon", "3",
      "--stopping", "all", "--messages", "2"], {"FBOUND_BUDGET": "1000"}, 1, _BOUNDS),
    (["bound-capacity", "--channel", "channels/flip2.json", "--horizon", "3", "--stopping",
      "all", "--restarts", "0", "--seed", "0"], {}, 0, _BOUNDS),
    (["bound-capacity", "--channel", "channels/histk2.json", "--horizon", "2", "--stopping",
      "all", "--seed", "0"], {}, 0, _BOUNDS),
    (["burnashev", "--channel", "channels/bsc01.json", "--rate", "0.25"], {}, 0, _BOUNDS),
    (["verify", "--channel", "channels/bsc02.json", "--suite", "all", "--horizon", "11",
      "--seed", "0", "--out", "{out}"], {}, 0,
     ["fbound.channel_model", "fbound.cli", "fbound.drift_verify", "fbound.info_measures"]),
    (["simulate", "--channel", "channels/bsc01.json", "--m", "2", "--n1", "5", "--n2", "4",
      "--cap", "2", "--trials", "100000", "--seed", "0", "--exact", "--out", "{out}"], {}, 0,
     ["fbound.channel_model", "fbound.cli", "fbound.info_measures", "fbound.vlc_sim"]),
    (["simulate", "--channel", "channels/flip2.json", "--m", "2", "--n1", "3", "--n2", "4",
      "--cap", "2", "--trials", "20000", "--seed", "0", "--exact"], {}, 0,
     ["fbound.channel_model", "fbound.cli", "fbound.info_measures", "fbound.vlc_sim"]),
], ids=["setup", "exponent_rules", "capacity", "capacity_hist", "burnashev", "verify",
        "simulate_dmc", "simulate_state"])
def test_each_command_executes_only_the_modules_it_calls(argv, env, rc, executed, tmp_path):
    argv = [a.replace("{out}", str(tmp_path / "o.csv")) for a in argv]
    proc = subprocess.run([sys.executable, "-c", _EXECUTED_PROBE, *argv], capture_output=True,
                          text=True, cwd=_CHANNELS.parent, env=child_env(**env), timeout=120)
    assert proc.returncode == rc, proc.stderr
    assert proc.stderr == f"{executed}\n"


def test_mutate_choices_are_drift_verify_mutations(monkeypatch, capsys):
    import argparse

    from fbound import drift_verify

    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    (mutate,) = [a for a in sub.choices["verify"]._actions if a.dest == "mutate"]
    assert mutate.choices is drift_verify.MUTATIONS
    # the help and the usage error read as they did when drift_verify held
    # the names itself (recorded at an 80-column width)
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as e:
        main(["verify", "--help"])
    assert e.value.code == 0
    assert capsys.readouterr().out == (_REFERENCE / "verify_help.out").read_text()
    with pytest.raises(SystemExit) as e:
        main(["verify", "--channel", BSC01, "--mutate", "nope"])
    assert e.value.code == 2
    assert capsys.readouterr().err == (_REFERENCE / "verify_bad_mutate.err").read_text()


def test_verify_rejects_several_message_counts(capsys):
    assert main(["verify", "--channel", BSC01, "--suite", "fano", "--messages", "2,4"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: verify checks one message count, got --messages 2,4\n"
    assert captured.out == ""


_LIMITED = """
import resource, sys
cap = 2 * 1024**3
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
from fbound.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("suite", ["all", "fano", "lemma4", "drift"])
def test_oversized_output_tree_is_a_budget_error(suite):
    # 2^70 output paths: refused before any table is allocated, under a
    # 2 GB address-space cap so that a regression fails instead of
    # exhausting memory
    argv = ["verify", "--channel", str(_CHANNELS / "perfect2.json"), "--suite", suite,
            "--horizon", "70"]
    proc = subprocess.run([sys.executable, "-c", _LIMITED, *argv], capture_output=True,
                          text=True, timeout=120,
                          env=child_env(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1"))
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == ("error: the output tree has 2^70 paths at horizon 70, "
                           "over the limit 10000000\n")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("suite", ["fano", "lemma4"])
def test_zero_probability_stop_history_exits_2(suite, tmp_path, capsys):
    # crossovers of 1e-200 underflow a horizon-4 path to probability 0.0;
    # the decoder checks read its 0/0 posterior (a traceback before)
    faint = tmp_path / "faint.json"
    faint.write_text(json.dumps({
        "Q": [[[1.0, 1e-200], [1e-200, 1.0]]], "name": "faint", "s_size": 1,
        "state_kernel": {"table": [1.0], "type": "memoryless"}, "x_size": 2, "y_size": 2,
    }))
    assert main(["verify", "--channel", str(faint), "--suite", suite, "--horizon", "4"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: stop history (0, 0, 1, 1) at time 4 has probability 0.0\n"
    assert captured.out == ""


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("suite", ["lemma1", "all"])
def test_zero_message_entropy_in_the_pruned_process_exits_2(suite, tmp_path, capsys):
    # the same channel: after (0, 0) the posterior of message 1 underflows to
    # 0.0, so H = 0 there and log2 H in Z failed (a math domain error before)
    faint = tmp_path / "faint.json"
    faint.write_text(json.dumps({
        "Q": [[[1.0, 1e-200], [1e-200, 1.0]]], "name": "faint", "s_size": 1,
        "state_kernel": {"table": [1.0], "type": "memoryless"}, "x_size": 2, "y_size": 2,
    }))
    assert main(["verify", "--channel", str(faint), "--suite", suite, "--horizon", "4"]) == 2
    captured = capsys.readouterr()
    reason = ("history (0, 0) at time 2 has message entropy 0.0 (an underflowed posterior), "
              "where Z takes log2 H")
    if suite == "lemma1":
        assert captured.err == f"error: {reason}\n"
        assert captured.out == ""
    else:
        # --suite all names the refused check and keeps the others' verdicts
        assert captured.err.splitlines()[0] == f"error: lemma1 check refused: {reason}"
        assert captured.out.endswith("verify: 6/6 checks passed, 3 refused\n")


def test_verify_all_prints_the_verdicts_a_refusal_used_to_hide(tmp_path, capsys):
    # at the defaults (M=2, H=3) lemma 1 and lemma 4 refuse bsc02; that used
    # to end the whole suite with empty stdout.  The seven other verdicts
    # print as their own suites print them, each refusal is named on
    # stderr, and the run still exits 2 without a CSV.
    bsc02 = str(_CHANNELS / "bsc02.json")
    out = tmp_path / "v.csv"
    assert main(["verify", "--channel", bsc02, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        "error: lemma1 check refused: the entropy path never crosses eps before the end: "
        "no divergence window\n"
        "error: lemma4 check refused: eps=0.3 must exceed the decoder entropy ceiling "
        "0.585549\n")
    assert not out.exists()
    alone = []
    for suite in ("drift", "fano", "maximal", "lemma7", "proposition", "lemma5"):
        assert main(["verify", "--channel", bsc02, "--suite", suite]) == 0
        alone.append(capsys.readouterr().out.rsplit("verify: ", 1)[0])
    assert captured.out == "".join(alone) + "verify: 7/7 checks passed, 2 refused\n"


def test_verify_builds_the_law_only_for_the_checks_that_read_it(tmp_path, capsys):
    # histk2's kernel defines 2 steps, short of the default horizon 3, so no
    # law can be built; lemma 7 and the proposition never read one.  Alone
    # they pass; under --suite all they print as alone, each law-reading
    # check is refused, and the run exits 2 without a CSV.
    histk2 = str(_CHANNELS / "histk2.json")
    alone = []
    for suite in ("lemma7", "proposition"):
        assert main(["verify", "--channel", histk2, "--suite", suite]) == 0
        alone.append(capsys.readouterr().out.rsplit("verify: ", 1)[0])
    out = tmp_path / "v.csv"
    assert main(["verify", "--channel", histk2, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "".join(alone) + "verify: 2/2 checks passed, 7 refused\n"
    reason = "state kernel only defines 2 steps, horizon=3"
    assert captured.err == "".join(
        f"error: {suite} check refused: {reason}\n"
        for suite in ("drift", "drift", "lemma1", "lemma4", "fano", "maximal", "lemma5"))
    assert not out.exists()
    assert main(["verify", "--channel", histk2, "--suite", "fano"]) == 2
    assert capsys.readouterr().err == f"error: {reason}\n"


_BSC01_FILE = json.loads(Path(BSC01).read_text())
# one field of channels/bsc01.json replaced, and the error each replacement gets
_CHANNEL_EDITS = {
    "x_size-two": ({"x_size": "two"}, "alphabet sizes must be integers, got ['two', 2, 1]"),
    "x_size-null": ({"x_size": None}, "alphabet sizes must be integers, got [None, 2, 1]"),
    "x_size-2.7": ({"x_size": 2.7}, "alphabet sizes must be integers, got [2.7, 2, 1]"),
    "s_size-true": ({"s_size": True}, "alphabet sizes must be integers, got [2, 2, True]"),
    # once read through int(), so the copy ran as the file it quotes
    "x_size-string-2": ({"x_size": "2"}, "alphabet sizes must be integers, got ['2', 2, 1]"),
    "Q-non-numeric": ({"Q": [[["a", 0.1], [0.1, 0.9]]]}, "Q is not a numeric array"),
    "Q-ragged": ({"Q": [[[0.9, 0.1], [0.1, 0.8, 0.1]]]}, "Q is not a numeric array"),
    "Q-nan": ({"Q": [[[float("nan"), 0.1], [0.1, 0.9]]]},
              "Q must be a non-empty array of finite numbers"),
    "memoryless-no-table": ({"state_kernel": {"type": "memoryless"}},
                            "state_kernel table must be a non-empty array of finite numbers"),
    "memoryless-nan": ({"state_kernel": {"type": "memoryless", "table": [float("nan")]}},
                       "state_kernel table must be a non-empty array of finite numbers"),
    "markov1-table-x": ({"state_kernel": {"type": "markov1", "table": "x"}},
                        "state_kernel table is not a numeric array"),
    "history_table-5": ({"state_kernel": {"type": "history_table", "table": 5}},
                        "history_table table must be a list of levels"),
}
# one field of a valid scheme file replaced (None: the file is a JSON array)
_SCHEME_EDITS = {
    "codebook-5": ({"codebook": 5},
                   "scheme file has a malformed field: 'int' object is not iterable"),
    "confirm-one-symbol": ({"confirm": [0]}, "confirm pair must be two distinct valid symbols"),
    "array": (None, "scheme file must be a JSON object"),
    "m-x": ({"m": "x"},
            "scheme file has a malformed field: invalid literal for int() with base 10: 'x'"),
    "threshold-abc": ({"threshold": "abc"},
                      "scheme file has a malformed field: could not convert string to float: "
                      "'abc'"),
    "m-2.9": ({"m": 2.9}, "scheme file has a malformed field: 2.9 is not an integer"),
    "m-string-2": ({"m": "2"}, "scheme file has a malformed field: '2' is not an integer"),
    "codeword-string-1": ({"codebook": [[1, 1, "1"], [1, 0, 1]]},
                          "scheme file has a malformed field: '1' is not an integer"),
    "codeword-0.5": ({"codebook": [[1, 1, 0.5], [1, 0, 1]]},
                     "scheme file has a malformed field: 0.5 is not an integer"),
}


@pytest.mark.parametrize("kind,edit,message", [
    *(("channel", *case) for case in _CHANNEL_EDITS.values()),
    *(("scheme", *case) for case in _SCHEME_EDITS.values()),
], ids=[*_CHANNEL_EDITS, *_SCHEME_EDITS])
def test_malformed_input_file_exits_2_with_one_error_line(kind, edit, message, tmp_path,
                                                          capsys):
    path = tmp_path / f"{kind}.json"
    if kind == "channel":
        path.write_text(json.dumps({**_BSC01_FILE, **edit}))
        argv = ["bound-capacity", "--channel", str(path)]
    else:
        path.write_text(json.dumps([YI_SEED5] if edit is None else {**YI_SEED5, **edit}))
        argv = ["simulate", "--channel", BSC01, "--scheme", str(path), "--trials", "10"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert "Traceback" not in captured.err and captured.out == ""


@pytest.mark.parametrize("suite", ["maximal", "all"])
def test_verify_at_horizon_0_refuses_the_maximal_check(suite, capsys):
    # every check that reads the law is refused for the horizon; lemma 7 and
    # the proposition still print
    argv = ["verify", "--channel", BSC01, "--suite", suite, "--horizon", "0", "--trials", "200"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    reason = "the checks that read a law need --horizon >= 1, got 0"
    if suite == "maximal":
        assert captured.err == f"error: {reason}\n"
    else:
        assert captured.err == "".join(
            f"error: {name} check refused: {reason}\n"
            for name in ("drift", "drift", "lemma1", "lemma4", "fano", "maximal", "lemma5"))
        assert captured.out.endswith("verify: 2/2 checks passed, 7 refused\n")


def test_a_grid_over_the_budget_exits_3(capsys, monkeypatch):
    monkeypatch.setenv("FBOUND_BUDGET", "100")
    assert main(["bound-capacity", "--channel", BSC01, "--grid", "200"]) == 3
    captured = capsys.readouterr()
    assert captured.err == "error: the policy grid has 201 points per row, over the budget 100\n"
    assert captured.out == ""
