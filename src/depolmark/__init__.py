"""Non-Markovian depolarizing channels and their non-Markovianity diagnostics.

The package builds the generalized depolarizing Kraus families (qubit,
N-level, multiqubit), their intermediate dynamical maps and Choi matrices,
and every witness and measure of non-Markovianity defined for the family:
Choi spectra and trace-norm witnesses, canonical decay rates and their
normalized integral, distinguishability revivals, the quantum-memory
witness, accessible-state volume and parameter-space trajectories. The
``depolmark`` command line emits the corresponding plot-ready datasets.
The helpers that only check those routes (``vectorize``, the tensor-product
Kraus set, the closed-form qubit Choi matrix, ...) live in ``dense``, which
no command loads.

Submodules and the names they export load on first access (PEP 562):
``import depolmark`` imports nothing else, ``depolmark.survival`` loads
the numpy-free ``kernel`` only, and ``__all__`` (``from depolmark import
*``) loads every library module.
"""

import importlib

__version__ = "0.1.0"

# Each module's __all__ is its public API; a name is looked up in this
# order, the numpy-free kernel first and the oracle helpers of ``dense`` last.
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
