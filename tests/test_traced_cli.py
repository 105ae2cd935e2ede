"""The benchmark's traced runner (``perfbench/traced_cli.py``) wraps the
package's functions by name, some of them private, so renaming one it looks
up aborts every traced command.  One small command of each benchmark
workload runs traced and untraced in child processes; both must succeed and
print the same bytes."""

from __future__ import annotations

import json
import subprocess
import sys

import numpy as np
import pytest

from conftest import REPO, child_env

COMMANDS = {
    "bounds": ("bound-capacity", "--channel", "channels/flip2.json", "--horizon", "2",
               "--stopping", "all", "--restarts", "0", "--seed", "0"),
    "paths": ("simulate", "--channel", "channels/bsc01.json", "--m", "2", "--n1", "3",
              "--n2", "2", "--cap", "2", "--trials", "2000", "--seed", "0", "--exact"),
}
# a span each command must record: the layer doing its work
SPAN = {"bounds": "bound_engine.capacity_bound", "paths": "vlc_sim._simulate_generic"}


def _run(argv):
    return subprocess.run(argv, cwd=REPO, capture_output=True, text=True, timeout=300,
                          env=child_env(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1"))


@pytest.mark.parametrize("workload", sorted(COMMANDS))
def test_traced_run_prints_what_the_untraced_run_prints(workload, tmp_path):
    args = COMMANDS[workload]
    spans = tmp_path / "spans.npz"
    plain = _run([sys.executable, "-m", "fbound.cli", *args])
    traced = _run([sys.executable, str(REPO / "perfbench" / "traced_cli.py"), str(spans),
                   workload, args[0], "--", *args])
    assert plain.returncode == 0, plain.stderr
    assert traced.returncode == 0, traced.stderr
    assert traced.stdout == plain.stdout
    with np.load(spans, allow_pickle=False) as z:
        assert SPAN[workload] in json.loads(str(z["names"]))


@pytest.mark.parametrize("layer", ["cli", "channel_model", "info_measures", "bound_engine",
                                   "drift_verify", "vlc_sim"])
def test_every_exported_name_of_a_layer_exists(layer):
    # the traced runner wraps each ``__all__`` entry by name, so a stale
    # entry aborts every traced command
    import importlib

    mod = importlib.import_module(f"fbound.{layer}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
