"""Dense complex linear algebra shared by the dense route.

Superoperators act on column-stacked operators throughout. ``kron``,
``is_hermitian``, ``hermitian_eigenvalues``, ``trace_norm`` and
``inverse`` take one matrix ``(n, n)`` or a stack ``(..., n, n)``, and
each matrix of a stack gets exactly the result a call on it alone gives.
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
# may hold (256 KiB), so the stacks held stay bounded at any grid length.
_BUDGET = 2**14


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product, bit-equal to ``np.kron``; stacks ``(..., m, n)`` and ``(..., r, s)`` broadcast to ``(..., m r, n s)``."""
    a, b = np.asarray(a), np.asarray(b)
    (m, n), (r, s) = a.shape[-2:], b.shape[-2:]
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (m * r, n * s))


def blockwise(fn, *grids, dim: int):
    """``fn`` over consecutive blocks of the broadcast, flattened grids, results concatenated.

    ``dim`` is the dimension d of the system whose maps ``fn`` builds, and
    sizes the blocks. ``fn`` takes one 1-D block of each grid and returns
    arrays whose first axis runs over the block. The result has the grids'
    shape followed by ``fn``'s trailing axes (an empty grid is one call on
    empty blocks, so that they survive); a 0-d result is a float.
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

    The Hermiticity tolerance is 1e-10 times ``max(1, max |m|)`` of each
    matrix: near the singular parameter, Choi entries of order 1/G(q) carry
    a rounding asymmetry that grows with them.

    Raises:
        ValueError: if a matrix deviates from Hermiticity by more than that.
    """
    m = np.asarray(m)
    tol = 1e-10 * np.maximum(1.0, np.abs(m).max(axis=(-2, -1)))
    if not np.all(is_hermitian(m, tol)):
        raise ValueError(f"matrix is not Hermitian within {np.min(tol):.3g}")
    return np.linalg.eigvalsh(m)


def trace_norm(m: np.ndarray):
    """Trace norm ||m||_1: a float for one matrix, an array for a stack.

    A matrix Hermitian within 1e-10 sums its absolute eigenvalues, any other
    its singular values.
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
    """Inverse of a square matrix, or of each matrix of a stack.

    Raises:
        ValueError: for a matrix that is not square.
        SingularMapError: if, for any matrix, the smallest singular value
            is at most ``ZERO_FLOOR`` times the largest: for this family,
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
