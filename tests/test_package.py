"""The package namespace: every exported name is ``fbound.<name>``, a
submodule executes only when one of its attributes is first read, and an
error its body raises fails the command that loads it."""

from __future__ import annotations

import importlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import fbound
from conftest import REPO, child_env

SUBMODULES = ("channel_model", "info_measures", "bound_engine", "drift_verify", "vlc_sim")


@pytest.mark.parametrize("name", SUBMODULES)
def test_every_submodule_name_is_a_package_name(name):
    mod = importlib.import_module(f"fbound.{name}")
    assert getattr(fbound, name) is mod
    assert [n for n in mod.__all__ if getattr(fbound, n) is not getattr(mod, n)] == []


def test_package_all_lists_the_submodules_names_in_order():
    names = ["__version__"] + [n for name in SUBMODULES
                               for n in importlib.import_module(f"fbound.{name}").__all__]
    assert fbound.__all__ == names
    assert len(set(names)) == len(names)
    assert set(names) <= set(dir(fbound))
    namespace: dict = {}
    exec("from fbound import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(names)
    assert all(namespace[n] is getattr(fbound, n) for n in names)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        fbound.no_such_name
    with pytest.raises(ImportError):
        from fbound import no_such_name  # noqa: F401


def test_importing_the_package_executes_no_submodule():
    # ``type()`` reads no attribute, so it does not load a registered module
    code = ("import sys, types, fbound; version = fbound.__version__; "
            "print(version, sorted(n for n, m in sys.modules.items() "
            "if n.startswith('fbound.') and type(m) is types.ModuleType), "
            "'numpy' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0.1.0 [] False\n"


_CHANNEL = str(REPO / "channels" / "bsc01.json")
_BURNASHEV = ["burnashev", "--channel", _CHANNEL, "--rate", "0.25"]
# a command that executes each submodule
_EXECUTES = {
    "channel_model": _BURNASHEV,
    "info_measures": _BURNASHEV,
    "bound_engine": _BURNASHEV,
    "drift_verify": ["verify", "--channel", _CHANNEL, "--suite", "fano", "--horizon", "3"],
    "vlc_sim": ["simulate", "--channel", _CHANNEL, "--m", "2", "--n1", "1", "--n2", "1",
                "--cap", "1", "--trials", "10"],
}


def _package_raising_in(name, tmp_path):
    """A copy of the package under ``tmp_path`` whose ``name`` module
    raises at the end of its body."""
    package = Path(fbound.__file__).resolve().parent
    shutil.copytree(package, tmp_path / "fbound", ignore=shutil.ignore_patterns("__pycache__"))
    with open(tmp_path / "fbound" / f"{name}.py", "a") as f:
        f.write(f"\nraise RuntimeError('{name} failed while loading')\n")
    return str(tmp_path)


def _run_cli(argv, pythonpath):
    return subprocess.run([sys.executable, "-m", "fbound.cli", *argv], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=pythonpath),
                          timeout=120)


@pytest.mark.parametrize("name", SUBMODULES)
def test_a_submodule_that_fails_to_load_fails_the_command(name, tmp_path):
    proc = _run_cli(_EXECUTES[name], _package_raising_in(name, tmp_path))
    assert proc.returncode != 0
    assert f"RuntimeError: {name} failed while loading" in proc.stderr
    assert proc.stdout == ""


def test_a_missing_dependency_is_named(tmp_path):
    (tmp_path / "numpy").mkdir()
    (tmp_path / "numpy" / "__init__.py").write_text(
        "raise ModuleNotFoundError(\"No module named 'numpy'\", name='numpy')\n")
    src = str(Path(fbound.__file__).resolve().parents[1])
    proc = _run_cli(_BURNASHEV, os.pathsep.join((str(tmp_path), src)))
    assert proc.returncode != 0
    assert proc.stderr.splitlines()[-1] == "ModuleNotFoundError: No module named 'numpy'"
    assert proc.stdout == ""


def test_a_failed_load_raises_again_on_the_next_read(tmp_path):
    code = ("import fbound\n"
            "before = sorted(vars(fbound.vlc_sim))\n"
            "for _ in range(2):\n"
            "    try:\n"
            "        fbound.vlc_sim.simulate\n"
            "    except RuntimeError as e:\n"
            "        print(e)\n"
            "print(type(fbound.vlc_sim).__name__, sorted(vars(fbound.vlc_sim)) == before)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=_package_raising_in("vlc_sim", tmp_path)),
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ("vlc_sim failed while loading\n" * 2) + "_LazyModule True\n"
