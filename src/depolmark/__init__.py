"""Non-Markovian depolarizing channels and their non-Markovianity diagnostics.

Every name in a library module's ``__all__`` is importable from here.
Submodules and those names load on first access (PEP 562): ``import
depolmark`` imports nothing else, and ``from depolmark import *`` loads
every library module.
"""

import importlib

__version__ = "0.1.0"

# Name lookup order: the numpy-free kernel first, so ``depolmark.survival``
# loads no numpy, and the oracle helpers of ``dense`` last.
_LIBRARY = ("kernel", "matcore", "channels", "dynmaps", "measures", "geometry", "dense")


def _module(name: str):
    return importlib.import_module(f"{__name__}.{name}")


def __getattr__(name: str):
    if name in _LIBRARY or name == "cli":
        return _module(name)
    if name == "__all__":
        return ["__version__", *(n for m in _LIBRARY for n in _module(m).__all__)]
    if not name.startswith("__"):
        for module in map(_module, _LIBRARY):
            if name in module.__all__:
                return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__getattr__("__all__"), *_LIBRARY, "cli"})
