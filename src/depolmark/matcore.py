"""Dense complex linear algebra primitives shared by the whole package.

Everything here operates on plain ``numpy.ndarray`` values. Superoperators
act on column-stacked operators throughout; the stacking itself,
``vectorize``/``devectorize``, is an oracle helper in ``depolmark.dense``.

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

from .kernel import ZERO_FLOOR, SingularMapError
from .kernel import SingularityError  # noqa: F401 -- matcore.SingularityError stays importable

__all__ = [
    "PAULI_I",
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "kron",
    "hermitian_eigenvalues",
    "trace_norm",
    "inverse",
    "is_hermitian",
    "is_density_matrix",
    "blockwise",
]


PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)

# Complex superoperator entries that one block of a whole-grid evaluation
# may hold (256 KiB). A d-level superoperator has d**4 entries per point, so
# a block is 1024 points at d = 2, 202 at d = 3 and 64 at d = 4, and the
# stacks held at once stay bounded whatever the number of grid points.
_BUDGET = 2**14


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


def blockwise(fn, *grids, dim: int):
    """``fn`` over consecutive blocks of the grids, results concatenated.

    ``dim`` is the dimension d of the system whose maps ``fn`` builds; a
    block holds ``max(1, _BUDGET // d**4)`` points. The grids broadcast
    against each other and are flattened; ``fn`` takes one 1-D block of
    each and returns arrays whose first axis runs over the block. The
    result has the grids' shape followed by ``fn``'s trailing axes. A
    single value is a one-point block, and an empty grid is one call on
    empty blocks, so that ``fn``'s trailing axes survive. A 0-d result
    comes back as a float.
    """
    grids = np.broadcast_arrays(*(np.asarray(g, dtype=float) for g in grids))
    flat = [g.reshape(-1) for g in grids]
    block = max(1, _BUDGET // dim**4)
    out = np.concatenate([fn(*(g[i : i + block] for g in flat)) for i in range(0, max(1, flat[0].size), block)])
    out = out.reshape(grids[0].shape + out.shape[1:])
    return float(out) if out.ndim == 0 else out


def is_hermitian(m: np.ndarray, tol: float = 1e-10):
    """True when ``max |m - m^dagger| <= tol``; one verdict per matrix of a stack."""
    m = np.asarray(m)
    if m.shape[-1] != m.shape[-2]:
        return np.zeros(m.shape[:-2], dtype=bool)
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
            is at most ``ZERO_FLOOR`` times the largest. For the channel
            families in this package that is exactly the parameter point
            where the map loses invertibility.
    """
    m = np.asarray(m)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError("only square matrices can be inverted")
    svals = np.linalg.svd(m, compute_uv=False)
    top, bottom = svals[..., 0], svals[..., -1]
    singular = (top == 0.0) | (bottom <= ZERO_FLOOR * top)
    if np.any(singular):
        i = np.unravel_index(np.argmax(singular), singular.shape)
        ratio = 0.0 if top[i] == 0.0 else bottom[i] / top[i]
        raise SingularMapError(f"matrix is singular within tolerance (sigma_min/sigma_max = {ratio:.3e})")
    return np.linalg.inv(m)
