"""Finite feedback channels: capacity and error-exponent upper bounds,
mechanical verification of the entropy-drift lemmas behind them, and a
send-and-confirm variable-length coding simulator.

The submodules load lazily: ``import fbound`` executes none of them, and
each one runs when one of its attributes is first read, so a command
executes only the modules it calls.  A package-level name (``fbound.<name>``
for a name in a submodule's ``__all__``) is read from its submodule; finding
it executes the submodules listed before that one below.  The submodules are
registered through ``importlib.util.LazyLoader`` rather than left unimported
because code that instruments the package, such as the benchmark's tracer,
looks each one up in ``sys.modules`` right after ``import fbound.cli``.
"""

import importlib.util
import sys

__version__ = "0.1.0"


def _lazy(name: str):
    """Put submodule ``name`` in ``sys.modules``, to execute on first use."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


channel_model = _lazy("channel_model")
info_measures = _lazy("info_measures")
bound_engine = _lazy("bound_engine")
drift_verify = _lazy("drift_verify")
vlc_sim = _lazy("vlc_sim")
# in the order their names appear in ``__all__``
_SUBMODULES = (channel_model, info_measures, bound_engine, drift_verify, vlc_sim)


def __getattr__(name: str):
    if name == "__all__":
        return ["__version__"] + [n for mod in _SUBMODULES for n in mod.__all__]
    for mod in _SUBMODULES:
        if name in mod.__all__:
            return getattr(mod, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__getattr__("__all__")))
