from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(Path(__file__).resolve().parent))

import fbound  # noqa: E402
from fbound.channel_model import load_channel  # noqa: E402


def child_env(**extra: str) -> dict:
    """Environment for a child interpreter that imports this ``fbound``."""
    src = str(Path(fbound.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""), **extra)


@pytest.fixture(scope="session")
def channels_dir() -> Path:
    return REPO / "channels"


@pytest.fixture(scope="session")
def bsc01(channels_dir):
    return load_channel(str(channels_dir / "bsc01.json"))


@pytest.fixture(scope="session")
def bsc02(channels_dir):
    return load_channel(str(channels_dir / "bsc02.json"))


@pytest.fixture(scope="session")
def flip2(channels_dir):
    return load_channel(str(channels_dir / "flip2.json"))


# one line per acceptance criterion, echoed after the run so the verdicts
# survive output capturing
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
