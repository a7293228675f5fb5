"""Helpers shared by the test modules."""

import numpy as np


def random_density(rng, dim=2):
    """A random dim x dim density matrix: A A^dagger / tr, with A's entries standard complex normal draws from ``rng``."""
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho)
