"""Geometric non-Markovianity diagnostics.

Three views of the same family:

* the affine Bloch map M with M_ij = tr(G_i Phi(G_j)) over the orthonormal
  qubit basis G = (I, X, Y, Z)/sqrt(2); for the depolarizing channel it is
  diag(1, lambda, lambda, lambda) with lambda(p) = (3/4) alpha p^2
  - alpha p - p + 1, so |det M| = |lambda|^3 measures the volume of
  reachable states;
* the N-level transfer matrix F built the same way from the basis
  {I/sqrt(N)} + generalized Gell-Mann operators (normalized to
  tr(G_m G_n) = 2 delta_mn) with an extra 1/N^2 prefactor; its trace norm
  shrinks monotonically for memoryless dynamics and turns upward past the
  singular parameter otherwise;
* the trajectory of the transfer eigenvalues (lambda_1, lambda_2,
  lambda_3) through the tetrahedron of completely positive unital Pauli
  maps, together with the log-derivative vector A(p) whose sign pattern
  decides CP divisibility point by point.

``affine_map_of``, ``volume_determinant`` and ``f_matrix`` take ``p`` as one
value or as a grid; a grid gives stacked transfer matrices, point by point
bit-equal to single calls, and ``trajectory`` returns one array per
field over the whole grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .channels import _check_unit_interval, apply_channel, qubit_kraus, qudit_kraus, survival
from .matcore import PAULI_I, PAULI_X, PAULI_Y, PAULI_Z, trace_norm
from .measures import MeasureValue

__all__ = [
    "AffineMap",
    "Trajectory",
    "bloch_basis",
    "bloch_contraction_derivative",
    "affine_map_of",
    "volume_determinant",
    "volume_measure",
    "gell_mann_matrices",
    "f_matrix",
    "trajectory",
]

#: Transfer eigenvalues closer than this to zero make the log-derivative
#: vector undefined; such trajectory points are kept but marked singular.
_LAMBDA_FLOOR = 1e-12


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

    @property
    def block_trace_norm(self) -> float:
        """Trace norm of the lower block (the map on traceless operators).

        For a unital trace-preserving map the transfer matrix is block
        diagonal, 1 on the identity component and B on the rest; the volume
        rate of change is proportional to this block norm.
        """
        return trace_norm(self.matrix[..., 1:, 1:])


class Trajectory(NamedTuple):
    """The transfer-eigenvalue trajectory over a grid, one array entry per grid point.

    The three transfer eigenvalues are equal, so ``lam`` holds the one
    value; ``a`` is the log-derivative lambda'/lambda shared by all three
    axes of the A vector, NaN where |lambda| <= 1e-12. CP divisibility
    needs the three inequalities A.(-1, 1, 1), A.(1, -1, 1) and
    A.(1, 1, -1) to be <= 1e-12; with equal entries each of them is
    exactly ``a`` in floating point, so ``cp_divisible`` is ``a <= 1e-12``,
    and False where ``a`` is NaN (the propagator through that point is
    undefined).
    """

    p: np.ndarray
    lam: np.ndarray
    a: np.ndarray
    inside_tetrahedron: np.ndarray
    cp_divisible: np.ndarray


def bloch_basis() -> tuple:
    """Orthonormal qubit operator basis (I, X, Y, Z)/sqrt(2)."""
    rt = 1.0 / math.sqrt(2.0)
    return (rt * PAULI_I, rt * PAULI_X, rt * PAULI_Y, rt * PAULI_Z)


def bloch_contraction_derivative(alpha: float, p: float) -> float:
    """d lambda / dp = (3/2) alpha p - alpha - 1 of the Bloch contraction lambda = survival(alpha, p)."""
    # Apart from measures._survival_derivative: same G', other last bits; this one feeds trajectories.
    return 1.5 * alpha * p - alpha - 1.0


def _transfer_table(kraus, basis) -> np.ndarray:
    """Real table tr(G_i Phi(G_j)) over an operator basis, one per channel of the set."""
    basis = np.asarray(basis)
    images = apply_channel(kraus, basis, validate=False)
    return np.trace(basis[:, None] @ images[..., None, :, :, :], axis1=-2, axis2=-1).real


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
    singular parameter value when alpha > 0. A grid of p gives an array.
    """
    volume = np.abs(np.linalg.det(affine_map_of(alpha, p).matrix))
    return float(volume) if volume.ndim == 0 else volume


def volume_measure(alpha: float) -> MeasureValue:
    """Volume-revival measure: integral of max(0, d||M||_1/dp) over [0, 1].

    ||M||_1 = 1 + 3 |lambda| grows only past the singular parameter value,
    so the integral is 3 (|lambda(1)| - 0) = (3/4) alpha, returned in that
    closed form. The alpha = 0 channel yields exactly 0.
    """
    _check_unit_interval("alpha", alpha)
    return MeasureValue("Volume", alpha, 2, 0.75 * alpha)


def gell_mann_matrices(levels: int) -> list:
    """Generalized Gell-Mann matrices of dimension N, tr(G_m G_n) = 2 delta_mn.

    Ordered as symmetric and antisymmetric pairs for j < k (lexicographic),
    followed by the N - 1 diagonal operators. N = 2 reproduces the Pauli
    matrices (X, Y, then Z).
    """
    n = int(levels)
    if n < 2:
        raise ValueError("levels must be >= 2")
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
    native tr = 2 delta normalization, so the memoryless channel at p = 0
    gives (1/N^2) diag(1, 2, ..., 2). Supported for N in {3, 4}; the qubit
    case is covered by :func:`affine_map_of` in its orthonormal convention.
    """
    n = int(levels)
    if n not in (3, 4):
        raise ValueError(f"the scaled transfer matrix is provided for levels in (3, 4), got {n}")
    basis = [np.eye(n, dtype=complex) / math.sqrt(n)] + gell_mann_matrices(n)
    return AffineMap(_transfer_table(qudit_kraus(alpha, p, n), basis) / (n * n), basis)


def trajectory(alpha: float, p_grid) -> Trajectory:
    """Trace the transfer-eigenvalue trajectory over a parameter grid.

    Evaluates, on the whole grid at once, the shared eigenvalue lambda(p),
    the analytic log-derivative A(p) = lambda'/lambda, CP divisibility and
    the tetrahedron membership test 1 +- lambda_3 >= |lambda_1 +- lambda_2|.
    Grid points with lambda = 0 are retained with ``a`` NaN.
    """
    p = np.array(p_grid, dtype=float, ndmin=1)
    if not np.all((0.0 <= p) & (p <= 1.0)):
        raise ValueError(f"grid values must lie in [0, 1], got {p}")
    lam = survival(alpha, p)
    singular = np.abs(lam) <= _LAMBDA_FLOOR
    a = np.divide(bloch_contraction_derivative(alpha, p), lam, out=np.full_like(lam, np.nan), where=~singular)
    inside = (1.0 + lam >= np.abs(lam + lam) - 1e-12) & (1.0 - lam >= np.abs(lam - lam) - 1e-12)
    return Trajectory(p, lam, a, inside, ~singular & (a <= 1e-12))
