"""Exact arithmetic for congruence subgroups of braid groups.

The package evaluates the integral Burau representation at t = -1, decides
membership in level-m congruence subgroups, computes their abelianizations
by coset enumeration and Smith normal form, and provides a normal-form
calculus for the crystallographic quotient of the braid group by the
commutator subgroup of the pure braid group.

Each module's __all__ lists the public names it defines; the package
re-exports exactly those lists, in the order of _MODULES, after
__version__, and writes no name twice.  Submodules load on first use
(PEP 562): ``import braidcong`` runs none of them, and braidcong.X runs only
the module that exports X and what that module imports.  The exporter is
found from the __all__ of each module, read from its source until the module
is loaded.  braidcong.__all__, dir(braidcong) and ``from braidcong import *``
load every module.  No resolved name is kept here, so braidcong.X is always
the defining module's current binding.
"""

import importlib
import importlib.util
import re
import sys

__version__ = "0.1.0"

_MODULES = ("words", "burau", "smith", "congruence", "cryst", "claims")


def _module(name: str):
    return importlib.import_module(f"{__name__}.{name}")


def _source_exports(module: str) -> list[str]:
    """The __all__ of a module that is not loaded, read from its source."""
    fullname = f"{__name__}.{module}"
    source = importlib.util.find_spec(fullname).loader.get_source(fullname) or ""
    start = source.find("\n__all__ = [")
    if start < 0:
        return _module(module).__all__
    return re.findall(r'"(\w+)"', source[start : source.index("]", start)])


def __getattr__(name: str):
    if name == "__all__":
        return ["__version__", *(n for m in _MODULES for n in _module(m).__all__)]
    loaded = [sys.modules.get(f"{__name__}.{m}") for m in _MODULES]
    for module in loaded:
        # a module still running its imports may not have set __all__ yet
        if module is not None and name in getattr(module, "__all__", ()):
            return getattr(module, name)
    # a submodule: one of _MODULES, or the matrices of ``from . import matrices``
    try:
        return _module(name)
    except ModuleNotFoundError as err:
        if err.name != f"{__name__}.{name}":
            raise
    for module in (m for m, mod in zip(_MODULES, loaded) if mod is None):
        if name in _source_exports(module):
            return getattr(_module(module), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULES, *__getattr__("__all__")})
