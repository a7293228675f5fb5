"""Geometric non-Markovianity diagnostics on dense transfer matrices.

* The affine Bloch map M, M_ij = tr(G_i Phi(G_j)) over the orthonormal
  qubit basis (I, X, Y, Z)/sqrt(2), is diag(1, lambda, lambda, lambda)
  for this family, so |det M| = |lambda|^3 is the volume of the
  reachable states.
* The N-level transfer matrix F over I/sqrt(N) and the generalized
  Gell-Mann operators (tr(G_m G_n) = 2 delta_mn), scaled by 1/N^2: its
  trace norm shrinks monotonically for memoryless dynamics.

Every function that takes ``p`` takes one value or a grid, a list or an
array, each point bit-equal to a call on that point alone, and every
function that takes N takes any integral N >= 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channels import apply_channel, qubit_kraus, qudit_kraus
from .kernel import _check_levels
from .matcore import PAULI_I, PAULI_X, PAULI_Y, PAULI_Z, blockwise, trace_norm

__all__ = [
    "AffineMap",
    "bloch_basis",
    "affine_map_of",
    "volume_determinant",
    "gell_mann_matrices",
    "f_matrix",
    "f_norm",
]

@dataclass(frozen=True)
class AffineMap:
    """Real transfer matrix of a channel over a fixed Hermitian operator basis."""

    matrix: np.ndarray = field(repr=False)
    basis: tuple = field(repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "matrix", np.asarray(self.matrix, dtype=float))
        object.__setattr__(self, "basis", tuple(self.basis))

    @property
    def trace_norm(self):
        """||matrix||_1: a float, or an array for a stack."""
        return trace_norm(self.matrix)


def bloch_basis() -> tuple:
    """Orthonormal qubit operator basis (I, X, Y, Z)/sqrt(2)."""
    rt = 1.0 / math.sqrt(2.0)
    return (rt * PAULI_I, rt * PAULI_X, rt * PAULI_Y, rt * PAULI_Z)


def _transfer_table(kraus, basis) -> np.ndarray:
    """Real table tr(G_i Phi(G_j)) over an operator basis, one per channel of the set, with no product matrix held."""
    images = apply_channel(kraus, np.asarray(basis), validate=False).swapaxes(-1, -2)
    return np.stack([(g * images).sum(axis=-1).sum(axis=-1).real for g in basis], axis=-2)


def affine_map_of(alpha: float, p) -> AffineMap:
    """Affine Bloch-vector map tr(G_i Phi(G_j)) of the qubit channel over ``bloch_basis``, through its Kraus set.

    Raises:
        ValueError: for alpha or a p outside [0, 1] (NaN included).
    """
    basis = bloch_basis()
    return AffineMap(_transfer_table(qubit_kraus(alpha, p), basis), basis)


def volume_determinant(alpha: float, p):
    """Volume |det M| = |lambda|^3 of the reachable Bloch vectors: a float for one p, an array for a grid.

    It regrows past the singular parameter when alpha > 0. Raises as
    ``affine_map_of``.
    """
    return blockwise(lambda p: np.abs(np.linalg.det(affine_map_of(alpha, p).matrix)), p, dim=2)


def gell_mann_matrices(levels: int) -> list:
    """Generalized Gell-Mann matrices of dimension N, tr(G_m G_n) = 2 delta_mn.

    Symmetric and antisymmetric pairs for j < k (lexicographic), then the
    N - 1 diagonal operators: X, Y, Z at N = 2.

    Raises:
        ValueError: unless N is an integral number of at least 2.
    """
    n = _check_levels(levels)
    result = []
    for j in range(n):
        for k in range(j + 1, n):
            sym = np.zeros((n, n), dtype=complex)
            sym[j, k] = sym[k, j] = 1.0
            result.append(sym)
            asym = np.zeros((n, n), dtype=complex)
            asym[j, k] = -1j
            asym[k, j] = 1j
            result.append(asym)
    for l in range(1, n):
        diag = np.zeros(n, dtype=complex)
        diag[:l] = 1.0
        diag[l] = -l
        result.append(math.sqrt(2.0 / (l * (l + 1))) * np.diag(diag))
    return result


def f_matrix(alpha: float, p, levels: int) -> AffineMap:
    """Scaled N-level transfer matrix F_kl = (1/N^2) tr(G_k Phi(G_l)) over I/sqrt(N) and ``gell_mann_matrices``.

    For this family it is (1/N^2) diag(1, 2 G, ..., 2 G), G = ``kernel.survival``.

    Raises:
        ValueError: for alpha or a p outside [0, 1] (NaN included), or
            unless N is an integral number of at least 2.
    """
    n = _check_levels(levels)
    basis = [np.eye(n, dtype=complex) / math.sqrt(n)] + gell_mann_matrices(n)
    return AffineMap(_transfer_table(qudit_kraus(alpha, p, n), basis) / (n * n), basis)


def f_norm(alpha: float, p, levels: int):
    """Trace norm ||F||_1 = (1 + 2 (N^2 - 1) |G|)/N^2 of ``f_matrix``: a float for one p, an array for a grid; raises as ``f_matrix``."""
    return blockwise(lambda p: f_matrix(alpha, p, levels).trace_norm, p, dim=_check_levels(levels))
