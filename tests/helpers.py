"""Helpers shared by the test modules."""

from types import SimpleNamespace

import numpy as np

from depolmark import kernel


def random_density(rng, dim=2):
    """A random dim x dim density matrix: A A^dagger / tr, with A's entries standard complex normal draws from ``rng``."""
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def trajectory(alpha, grid):
    """``kernel.trajectory`` mapped over a grid: ``p`` and one array per field."""
    p = np.array(grid, dtype=float, ndmin=1)
    fields = map(np.array, zip(*(kernel.trajectory(alpha, x) for x in p.tolist())))
    return SimpleNamespace(p=p, **dict(zip(("lam", "a", "inside_tetrahedron", "cp_divisible"), fields)))
