"""Dense complex linear algebra primitives shared by the whole package.

Everything here operates on plain ``numpy.ndarray`` values. A column
stacking convention is used throughout: ``vectorize`` gathers the columns
of a matrix on top of one another, and every superoperator built elsewhere
in the package follows from that choice.

Matrices are small (at most 64 x 64), so all routines are dense and
LAPACK-backed. ``kron`` is a broadcast product rather than ``np.kron``: it
performs the same elementwise multiplications, so its result is bit-equal,
without ``np.kron``'s Python-level axis bookkeeping, and it also accepts
stacks of matrices.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "SingularityError",
    "SingularMapError",
    "SingularRateError",
    "PAULI_I",
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "kron",
    "vectorize",
    "devectorize",
    "commutation_matrix",
    "swap_matrix",
    "swap_permutation",
    "hermitian_eigenvalues",
    "trace_norm",
    "inverse",
    "is_hermitian",
    "is_density_matrix",
]


class SingularityError(ArithmeticError):
    """A computation hit the physical singularity of the channel family."""


class SingularMapError(SingularityError):
    """The dynamical map is not invertible, so the propagator is undefined."""


class SingularRateError(SingularityError):
    """The canonical decay rate diverges at the requested parameter."""


PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)

# Relative threshold on singular values below which a matrix is treated as
# non-invertible. The map singularity must surface as a typed error, not as
# a garbage inverse.
_SINGULAR_RTOL = 1e-12


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two matrices (dimensions multiply).

    Leading axes broadcast, so stacks ``(..., m, n)`` and ``(..., r, s)``
    give the stack of products ``(..., m r, n s)``. Each entry is the single
    product ``a[i, j] * b[k, l]``, exactly as in ``np.kron``.
    """
    a, b = np.asarray(a), np.asarray(b)
    (m, n), (r, s) = a.shape[-2:], b.shape[-2:]
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (m * r, n * s))


def vectorize(m: np.ndarray) -> np.ndarray:
    """Stack the columns of ``m`` into a single vector.

    ``[[a, b], [c, d]]`` becomes ``(a, c, b, d)``.
    """
    return np.asarray(m).reshape(-1, order="F")


def devectorize(v: np.ndarray, dim: int) -> np.ndarray:
    """Inverse of :func:`vectorize` for a square ``dim x dim`` matrix."""
    v = np.asarray(v).reshape(-1)
    if v.size != dim * dim:
        raise ValueError(f"vector of length {v.size} cannot fill a {dim}x{dim} matrix")
    return v.reshape((dim, dim), order="F")


def commutation_matrix(levels: int) -> np.ndarray:
    """Permutation matrix U with U (A kron B) U = B kron A for N x N blocks.

    U has one row per pair (k, l), mapping basis vector |k,l> to |l,k>.
    It is real, symmetric and involutory.
    """
    n = int(levels)
    if n < 2:
        raise ValueError("levels must be >= 2")
    idx = np.arange(n * n).reshape(n, n).T.reshape(-1)
    return np.eye(n * n)[idx]


def swap_permutation(levels: int) -> np.ndarray:
    """Index permutation exchanging subsystems 2 and 3 of a 4-fold tensor.

    Returns ``perm`` such that applying the swap operator to a vector ``x``
    of length ``levels**4`` yields ``x[perm]``.
    """
    n = int(levels)
    if n < 2:
        raise ValueError("levels must be >= 2")
    return np.arange(n**4).reshape(n, n, n, n).transpose(0, 2, 1, 3).reshape(-1)


def swap_matrix(levels: int) -> np.ndarray:
    """Swap of the second and third subsystem: I_N kron U_P kron I_N.

    ``U_P`` is the :func:`commutation_matrix`. The result is a real
    permutation matrix of dimension ``levels**4``, equal to its own inverse.
    """
    return np.eye(int(levels) ** 4)[swap_permutation(levels)]


def is_hermitian(m: np.ndarray, tol: float = 1e-10) -> bool:
    """True when ``max |m - m^dagger| <= tol``."""
    m = np.asarray(m)
    return m.shape[0] == m.shape[1] and np.abs(m - m.conj().T).max() <= tol


def is_density_matrix(rho: np.ndarray, tol: float = 1e-10) -> bool:
    """Hermitian, unit trace and positive semidefinite within ``tol``."""
    rho = np.asarray(rho)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        return False
    if not is_hermitian(rho, tol):
        return False
    if abs(np.trace(rho) - 1.0) > tol:
        return False
    return float(np.linalg.eigvalsh(rho).min()) >= -tol


def hermitian_eigenvalues(m: np.ndarray) -> np.ndarray:
    """Real eigenvalues of a Hermitian matrix, ascending.

    The Hermiticity tolerance is relative: 1e-10 times ``max(1, max |m|)``.
    Propagator Choi matrices near the singular parameter have entries of
    order 1/G(q), and their rounding asymmetry grows with them.

    Raises:
        ValueError: if ``m`` deviates from Hermiticity by more than that.
    """
    m = np.asarray(m)
    tol = 1e-10 * max(1.0, float(np.abs(m).max()))
    if not is_hermitian(m, tol):
        raise ValueError(f"matrix is not Hermitian within {tol:.3g}")
    return np.linalg.eigvalsh(m)


def trace_norm(m: np.ndarray) -> float:
    """Trace norm ||m||_1, the sum of singular values.

    Hermitian inputs take the fast path of summing absolute eigenvalues.
    """
    m = np.asarray(m)
    if is_hermitian(m, 1e-10):
        return float(np.abs(np.linalg.eigvalsh(m)).sum())
    return float(np.linalg.svd(m, compute_uv=False).sum())


def inverse(m: np.ndarray) -> np.ndarray:
    """Inverse of a square matrix with an explicit conditioning check.

    Raises:
        SingularMapError: if the smallest singular value is below
            1e-12 times the largest. For the channel families in this
            package that is exactly the parameter point where the map
            loses invertibility.
    """
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("only square matrices can be inverted")
    svals = np.linalg.svd(m, compute_uv=False)
    if svals[0] == 0.0 or svals[-1] <= _SINGULAR_RTOL * svals[0]:
        raise SingularMapError(
            f"matrix is singular within tolerance (sigma_min/sigma_max = "
            f"{0.0 if svals[0] == 0.0 else svals[-1] / svals[0]:.3e})"
        )
    return np.linalg.inv(m)
