"""Acceptance gate: ten numbered criteria, each reporting one PASS/FAIL line.

The verdict lines are echoed in the terminal summary (see conftest) so they
remain visible under output capturing.  Every criterion states its checked
condition and tolerance inline; failures still record their line before the
assertion fires.
"""

from __future__ import annotations

import functools
import math
import time

import pytest

import conftest
from fbound.bound_engine import (
    SearchConfig,
    burnashev,
    capacity_bound,
    dmc_capacity,
    dmc_consistency,
)
from fbound.channel_model import (
    forward_joint,
    repetition_encoder,
    rotating_encoder,
)
from fbound.cli import main, read_manifest, rerun_from_manifest
from fbound.drift_verify import (
    verify_entropy_proposition,
    verify_lemma4_budget,
    verify_lemma5_kl_transfer,
    verify_lemma7,
    verify_linear_drift,
    verify_log_drift,
    verify_maximal_inequality,
    verify_submartingale_L,
)
from fbound.vlc_sim import build_yamamoto_itoh, exact_stats, exponent_sweep

CAP01 = 0.5310044064107188
C1_01 = 2.5359400011538495


def criterion(num: int, title: str):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.time()
            try:
                detail = fn(*args, **kwargs)
            except BaseException as e:
                conftest.ACCEPTANCE_LINES.append(
                    f"criterion {num:2d} [{title}]: FAIL — {type(e).__name__}: {e}"
                )
                raise
            conftest.ACCEPTANCE_LINES.append(
                f"criterion {num:2d} [{title}]: PASS — {detail} "
                f"({time.time() - start:.1f}s)"
            )
        return wrapper
    return deco


@pytest.fixture(scope="module")
def law_m2(bsc01):
    return forward_joint(bsc01, repetition_encoder(2, 2, 3), 3)


@pytest.fixture(scope="module")
def law_m4(bsc01):
    return forward_joint(bsc01, rotating_encoder(4, 2, 3), 3)


@pytest.fixture(scope="module")
def law_flip(flip2):
    return forward_joint(flip2, repetition_encoder(2, 2, 3), 3)


@pytest.fixture(scope="module")
def z01_channel(channels_dir):
    from fbound.channel_model import load_channel

    return load_channel(str(channels_dir / "z01.json"))


@criterion(1, "classical closed form via CLI")
def test_criterion_01(channels_dir, capsys):
    rc = main(["burnashev", "--channel", str(channels_dir / "bsc01.json"),
               "--rate", repr(CAP01 / 2)])
    line = capsys.readouterr().out.strip().splitlines()[-1]
    vals = {k: float(v) for k, v in (tok.split("=") for tok in line.split())}
    assert rc == 0
    assert vals["C"] == pytest.approx(CAP01, abs=1e-6)
    assert vals["C1"] == pytest.approx(C1_01, abs=1e-6)
    assert vals["E"] == pytest.approx(C1_01 / 2, abs=1e-6)
    return (f"C={vals['C']:.6f} C1={vals['C1']:.6f} E(C/2)={vals['E']:.6f}, "
            f"each within 1e-6 of the closed form")


@criterion(2, "memoryless specialization of the exponent bound")
def test_criterion_02(bsc01, bsc02):
    devs = {}
    for name, ch in (("bsc01", bsc01), ("bsc02", bsc02)):
        report = dmc_consistency(ch, horizon=2)
        assert not report.degenerate
        assert len(report.rows) == 5
        assert report.max_deviation <= 2e-2
        devs[name] = report.max_deviation
    return ("max |searched - classical| over 5 interior rates: "
            + ", ".join(f"{k}={v:.2e}" for k, v in devs.items())
            + " (tolerance 2e-2)")


@criterion(3, "fixed-length specialization of the capacity bound")
def test_criterion_03(bsc01, bsc02, z01_channel):
    devs = {}
    for name, ch in (("bsc01", bsc01), ("bsc02", bsc02), ("z01", z01_channel)):
        cap_true, _, _ = dmc_capacity(ch.spec.q[0])
        res = capacity_bound(ch, 2, SearchConfig(fixed_t=2, restarts=2))
        dev = abs(res.value - cap_true)
        assert dev <= 5e-3
        devs[name] = dev
    return ("capacity recovered with T pinned to N: "
            + ", ".join(f"{k} dev={v:.2e}" for k, v in devs.items())
            + " (tolerance 5e-3)")


@criterion(4, "exact linear entropy-drift identity")
def test_criterion_04(law_m2, law_m4, law_flip):
    worsts = []
    for law in (law_m2, law_m4, law_flip):
        v = verify_linear_drift(law)
        assert v.passed and v.count > 0
        assert abs(v.constants["max_abs_gap"]) <= 1e-10
        worsts.append(v.constants["max_abs_gap"])
    return ("identity residual on DMC M=2 / DMC M=4 / two-state M=2 at N=3: "
            + ", ".join(f"{w:.1e}" for w in worsts) + " (tolerance 1e-10)")


@criterion(5, "pruned submartingale with mutation sensitivity")
def test_criterion_05(law_m2):
    clean = verify_submartingale_L(law_m2, 0.2)
    assert clean.passed
    assert clean.worst >= -1e-10
    lam = clean.constants["lambda_best"]
    assert not math.isnan(lam)
    mutated = verify_submartingale_L(law_m2, 0.2, lam_grid=(lam,),
                                     mutate="halve_kl_drift")
    assert not mutated.passed
    huge = verify_submartingale_L(law_m2, 0.2, lam_grid=(1000.0,))
    assert not huge.passed
    return (f"clean pass at lambda={lam} (worst {clean.worst:.1e} >= -1e-10); "
            f"halved-divergence and lambda=1e3 arms both fail")


@criterion(6, "logarithmic drift and divergence transfer constants")
def test_criterion_06(law_m2):
    v_log = verify_log_drift(law_m2, 0.3)
    v_kl = verify_lemma5_kl_transfer(law_m2, 0.3)
    details = []
    for v, key in ((v_log, "c"), (v_kl, "cprime")):
        default = v.constants[key]
        minimal = v.constants.get(f"{key}_minimal_passing", math.nan)
        assert v.passed or (math.isfinite(minimal) and minimal <= 10 * default)
        details.append(f"{v.check}: default {key}={default:.3f} "
                       f"{'passes' if v.passed else f'minimal={minimal:.3f}'}")
    return "; ".join(details)


@criterion(7, "compensator budget under the entropy ceiling")
def test_criterion_07(law_m2):
    v = verify_lemma4_budget(law_m2, 0.3)
    assert v.passed
    ceiling = v.constants["entropy_ceiling"]
    assert 0.3 > ceiling
    return (f"E[S] within E[T](1+V) at eps=0.3 > ceiling {ceiling:.6f}; "
            f"margin {v.worst:.3f}")


@criterion(8, "randomized utility checks")
def test_criterion_08():
    v7 = verify_lemma7(trials=10**5, seed=0, tol=1e-9)
    assert v7.passed and v7.count >= 10**5
    vp = verify_entropy_proposition(trials=10**5, seed=0, tol=1e-12)
    assert vp.passed and vp.count >= 10**5
    assert vp.worst >= -1e-12
    vm = verify_maximal_inequality(trials=10**4, seed=0)
    assert vm.passed
    return (f"log-sum split 1e5 instances worst {v7.worst:.2e}; "
            f"entropy floor 1e5 instances worst {vp.worst:.1e} >= -1e-12; "
            f"maximal inequality 1e4 paths margin {vm.worst:.3f}")


@criterion(9, "simulated exponents stay below the converse line")
def test_criterion_09(bsc01):
    schemes = [
        build_yamamoto_itoh(bsc01, 2, 3, 4, 2, seed=5),
        build_yamamoto_itoh(bsc01, 4, 3, 4, 2, seed=5),
        build_yamamoto_itoh(bsc01, 8, 5, 4, 2, seed=0),
    ]
    points = []
    for scheme, stats in exponent_sweep(bsc01, schemes, 100_000, seed=0):
        line = burnashev(bsc01, stats.rate)
        assert stats.exp_hi < line.exponent
        ex = exact_stats(scheme, bsc01, budget=4_000_000)
        hw_pe = (stats.pe_hi - stats.pe_lo) / 2
        hw_et = (stats.et_hi - stats.et_lo) / 2
        assert abs(stats.pe - ex.pe) <= 3 * hw_pe
        assert abs(stats.et - ex.et) <= 3 * hw_et
        points.append(f"M={scheme.m}: E_hi={stats.exp_hi:.3f}<{line.exponent:.3f}")
    return ("upper CI below the line and exact enumeration within 3 "
            "half-widths at 1e5 trials: " + "; ".join(points))


@criterion(10, "byte-identical CSV from a manifest re-run")
def test_criterion_10(channels_dir, tmp_path, capsys):
    base = ["simulate", "--channel", str(channels_dir / "bsc01.json"),
            "--m", "2,4", "--n1", "3", "--n2", "4", "--cap", "2",
            "--trials", "2000", "--seed", "11"]
    first = tmp_path / "run.csv"
    rerun = tmp_path / "rerun.csv"
    assert main(base + ["--out", str(first)]) == 0
    man = read_manifest(first)
    assert rerun_from_manifest(man, out=str(rerun)) == 0
    assert rerun.read_bytes() == first.read_bytes()
    capsys.readouterr()
    return "simulate CSV identical for a manifest re-run"
