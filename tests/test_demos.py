"""The demos run to completion.

Each demo runs as a child interpreter on this checkout's ``fbound`` and
must exit 0.  Together they take about 2 s on a 2-vCPU VM;
``04_exponent_bound.py``, which runs the exponent search on two channels,
the classical consistency check and the residual terms, takes about 0.7 s
of that.
"""

from __future__ import annotations

import subprocess
import sys

import pytest

from conftest import REPO, child_env

DEMOS = [
    "01_channels_and_laws.py",
    "02_classical_baselines.py",
    "03_capacity_bound_search.py",
    "04_exponent_bound.py",
    "05_drift_verification.py",
    "06_vlc_simulation.py",
]


def test_every_demo_is_listed():
    assert sorted(p.name for p in (REPO / "demos").glob("*.py")) == sorted(DEMOS)


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_exits_0(demo):
    run = subprocess.run([sys.executable, str(REPO / "demos" / demo)], cwd=REPO,
                         env=child_env(), capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout
