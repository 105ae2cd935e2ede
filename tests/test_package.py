"""The package namespace: every exported name is ``fbound.<name>``, and a
submodule executes only when one of its attributes is first read."""

from __future__ import annotations

import importlib
import subprocess
import sys

import pytest

import fbound
from conftest import child_env

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
