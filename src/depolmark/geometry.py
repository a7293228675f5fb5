"""Geometric non-Markovianity diagnostics on dense transfer matrices.

Two views of the same family:

* the affine Bloch map M with M_ij = tr(G_i Phi(G_j)) over the orthonormal
  qubit basis G = (I, X, Y, Z)/sqrt(2); for the depolarizing channel it is
  diag(1, lambda, lambda, lambda) with lambda(p) = (3/4) alpha p^2
  - alpha p - p + 1, so |det M| = |lambda|^3 measures the volume of
  reachable states;
* the N-level transfer matrix F built the same way from the basis
  {I/sqrt(N)} + generalized Gell-Mann operators (normalized to
  tr(G_m G_n) = 2 delta_mn) with an extra 1/N^2 prefactor; its trace norm
  shrinks monotonically for memoryless dynamics and turns upward past the
  singular parameter otherwise.

``gell_mann_matrices``, ``f_matrix`` and ``f_norm`` take any level count N
that ``kernel._check_levels`` accepts (an integral number of at least 2),
and refuse any other with its one text; F has no cap of its own.
``affine_map_of``, ``volume_determinant``, ``f_matrix`` and ``f_norm`` take
``p`` as one value or as a grid (a list or an array); a grid gives stacked
transfer matrices or an array of values, point by point bit-equal to
single calls. The two dense columns, ``volume_determinant`` and
``f_norm``, walk a grid in blocks sized by the system dimension
(``matcore.blockwise``), so the stacks they hold stay bounded: a block
holds the images Phi(G_j) and one row of its table at a time, never the
products G_i Phi(G_j) whose traces the table reads. The closed
forms of the same geometry (the tetrahedron ``trajectory`` of the transfer
eigenvalues, its log-derivative A and the ``volume_measure`` 3 alpha/4)
live in ``kernel``.
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
        return trace_norm(self.matrix)


def bloch_basis() -> tuple:
    """Orthonormal qubit operator basis (I, X, Y, Z)/sqrt(2)."""
    rt = 1.0 / math.sqrt(2.0)
    return (rt * PAULI_I, rt * PAULI_X, rt * PAULI_Y, rt * PAULI_Z)


def _transfer_table(kraus, basis) -> np.ndarray:
    """Real table tr(G_i Phi(G_j)) over an operator basis, one per channel of the set.

    Row i is G_i times the transposed images, summed over the last axis and
    then over the next, one basis element at a time: the diagonal of each
    product G_i Phi(G_j), then its trace, with no product matrix held.
    """
    images = apply_channel(kraus, np.asarray(basis), validate=False).swapaxes(-1, -2)
    return np.stack([(g * images).sum(axis=-1).sum(axis=-1).real for g in basis], axis=-2)


def affine_map_of(alpha: float, p) -> AffineMap:
    """Affine Bloch-vector map of the qubit channel.

    Each entry is tr(G_i Phi(G_j)) with Phi applied to the whole basis
    through the Kraus machinery; for this family the result is
    diag(1, lambda, lambda, lambda).
    """
    basis = bloch_basis()
    return AffineMap(_transfer_table(qubit_kraus(alpha, p), basis), basis)


def volume_determinant(alpha: float, p):
    """Volume |det M| of the set of reachable Bloch vectors (= |lambda|^3).

    Shrinks monotonically for the memoryless channel and regrows past the
    singular parameter value when alpha > 0. A grid of p gives an array,
    evaluated block by block.
    """
    return blockwise(lambda p: np.abs(np.linalg.det(affine_map_of(alpha, p).matrix)), p, dim=2)


def gell_mann_matrices(levels: int) -> list:
    """Generalized Gell-Mann matrices of dimension N, tr(G_m G_n) = 2 delta_mn.

    Ordered as symmetric and antisymmetric pairs for j < k (lexicographic),
    followed by the N - 1 diagonal operators. N = 2 reproduces the Pauli
    matrices (X, Y, then Z).
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
    """Scaled N-level transfer matrix F_kl = (1/N^2) tr(G_k Phi(G_l)).

    The basis is I/sqrt(N) followed by the Gell-Mann operators in their
    native tr = 2 delta normalization, so the channel is
    (1/N^2) diag(1, 2 G, ..., 2 G) with G = :func:`depolmark.kernel.survival`,
    and the memoryless channel at p = 0 gives (1/N^2) diag(1, 2, ..., 2).
    Any N >= 2 is taken; at N = 2 the basis is (I/sqrt(2), X, Y, Z), and
    :func:`affine_map_of` gives the qubit map in its orthonormal convention.
    """
    n = _check_levels(levels)
    basis = [np.eye(n, dtype=complex) / math.sqrt(n)] + gell_mann_matrices(n)
    return AffineMap(_transfer_table(qudit_kraus(alpha, p, n), basis) / (n * n), basis)


def f_norm(alpha: float, p, levels: int):
    """Trace norm ||F||_1 = (1 + 2 (N^2 - 1) |G|)/N^2 of :func:`f_matrix`: a float for one p, an array for a grid, evaluated block by block."""
    return blockwise(lambda p: f_matrix(alpha, p, levels).trace_norm, p, dim=_check_levels(levels))
