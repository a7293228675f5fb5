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

``is_hermitian``, ``hermitian_eigenvalues``, ``trace_norm`` and ``inverse``
take one matrix ``(n, n)`` or a stack ``(..., n, n)``, as the sweeps hand
them a whole block of grid points at once. Every test they make (the
Hermiticity branch of ``trace_norm``, the conditioning check of ``inverse``)
is made per matrix, so each matrix of a stack gets exactly the result a
call on that matrix alone gives; a single matrix is the 0-d case.
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
    "blockwise",
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

# Grid points per block of a whole-grid evaluation. A block's stacks (an
# N = 4 superoperator takes 4 KiB per point, a 3-qubit one 64 KiB) stay
# small next to the interpreter, whatever the number of grid points.
_BLOCK = 32


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


def blockwise(fn, *grids):
    """``fn`` over consecutive 32-point blocks of the grids, results concatenated.

    The grids broadcast against each other and are flattened; ``fn`` takes
    one 1-D block of each and returns arrays whose first axis runs over the
    block. The result has the grids' shape followed by ``fn``'s trailing
    axes. Scalar grids are a single call with 0-d arrays, whose result is
    returned as it is.
    """
    grids = [np.asarray(g, dtype=float) for g in grids]
    if all(g.ndim == 0 for g in grids):
        return fn(*grids)
    grids = np.broadcast_arrays(*grids)
    shape = grids[0].shape
    flat = [g.reshape(-1) for g in grids]
    out = np.concatenate([fn(*(g[i : i + _BLOCK] for g in flat)) for i in range(0, flat[0].size, _BLOCK)])
    return out.reshape(shape + out.shape[1:])


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


def is_hermitian(m: np.ndarray, tol: float = 1e-10):
    """True when ``max |m - m^dagger| <= tol``; one verdict per matrix of a stack."""
    m = np.asarray(m)
    if m.shape[-1] != m.shape[-2]:
        return False
    return np.abs(m - m.conj().swapaxes(-1, -2)).max(axis=(-2, -1)) <= tol


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
    """Real eigenvalues of a Hermitian matrix (or of each one of a stack), ascending.

    The Hermiticity tolerance is relative: 1e-10 times ``max(1, max |m|)``
    of the matrix at hand. Propagator Choi matrices near the singular
    parameter have entries of order 1/G(q), and their rounding asymmetry
    grows with them.

    Raises:
        ValueError: if a matrix deviates from Hermiticity by more than that.
    """
    m = np.asarray(m)
    tol = 1e-10 * np.maximum(1.0, np.abs(m).max(axis=(-2, -1)))
    if not np.all(is_hermitian(m, tol)):
        raise ValueError(f"matrix is not Hermitian within {np.min(tol):.3g}")
    return np.linalg.eigvalsh(m)


def trace_norm(m: np.ndarray):
    """Trace norm ||m||_1, the sum of singular values.

    Hermitian inputs (within an absolute 1e-10) take the fast path of
    summing absolute eigenvalues. A stack ``(..., n, n)`` gives an array of
    norms, each matrix taking its own path; one matrix gives a float.
    """
    m = np.asarray(m)
    hermitian = np.asarray(is_hermitian(m, 1e-10))
    out = np.empty(m.shape[:-2])
    if hermitian.any():
        out[hermitian] = np.abs(np.linalg.eigvalsh(m[hermitian])).sum(axis=-1)
    if not hermitian.all():
        out[~hermitian] = np.linalg.svd(m[~hermitian], compute_uv=False).sum(axis=-1)
    return float(out) if out.ndim == 0 else out


def inverse(m: np.ndarray) -> np.ndarray:
    """Inverse of a square matrix, or of each matrix of a stack, with a conditioning check.

    Every matrix is checked on its own singular values.

    Raises:
        SingularMapError: if, for any matrix, the smallest singular value
            is below 1e-12 times the largest. For the channel families in
            this package that is exactly the parameter point where the map
            loses invertibility.
    """
    m = np.asarray(m)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError("only square matrices can be inverted")
    svals = np.linalg.svd(m, compute_uv=False)
    top, bottom = svals[..., 0], svals[..., -1]
    singular = (top == 0.0) | (bottom <= _SINGULAR_RTOL * top)
    if np.any(singular):
        i = np.unravel_index(np.argmax(singular), singular.shape)
        ratio = 0.0 if top[i] == 0.0 else bottom[i] / top[i]
        raise SingularMapError(f"matrix is singular within tolerance (sigma_min/sigma_max = {ratio:.3e})")
    return np.linalg.inv(m)
