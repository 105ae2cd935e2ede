"""Finite feedback channels: capacity and error-exponent upper bounds,
mechanical verification of the entropy-drift lemmas behind them, and a
send-and-confirm variable-length coding simulator.

The submodules load lazily: ``import fbound`` executes none of them, and
each one runs when one of its attributes is first read, so a command
executes only the modules it calls.  A package-level name (``fbound.<name>``
for a name in a submodule's ``__all__``) is read from its submodule; finding
it executes the submodules listed before that one below.  The submodules are
registered in ``sys.modules`` rather than left unimported because code that
instruments the package, such as the benchmark's tracer, looks each one up
there right after ``import fbound.cli``.  A registered submodule
(``_LazyModule``) holds its import attributes, ``__spec__`` among them, from
the start, so the import system reads them without running the body; its
body runs on the first read of any other name, and an error the body raises
reaches that read (``from fbound.x import y`` included) instead of leaving a
half-executed module behind.
"""

import importlib.util
import sys
import types

__version__ = "0.1.0"


class _LazyModule(types.ModuleType):
    """A registered submodule whose body has not run yet.  Reading a name it
    lacks runs the body and becomes a plain module; a body that raises puts
    the module back as it was, so the error reaches the reader and every
    later read raises it again."""

    def __getattr__(self, name: str):
        attrs = dict(vars(self))
        self.__class__ = types.ModuleType
        try:
            self.__spec__.loader.exec_module(self)
        except BaseException:
            vars(self).clear()
            vars(self).update(attrs)
            self.__class__ = _LazyModule
            raise
        return getattr(self, name)


def _lazy(name: str):
    """Put submodule ``name`` in ``sys.modules``, to execute on first use."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    module.__class__ = _LazyModule
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
