"""The dense route: superoperators, propagators, Choi matrices and NCP witnesses.

The map Phi(p, 0) acts on column-stacked states as S = sum_i conj(E_i)
kron E_i, and the propagator is Phi(p, q) = Phi(p, 0) Phi(q, 0)^{-1}.
This route checks the numpy-free closed forms ``kernel.lambda_ratio`` and
``kernel.qudit_choi_eigenvalues`` and computes the dense columns. At
``kernel.crossover_point`` Phi(q, 0) is singular, and a q there raises
``SingularMapError``. A map is completely positive iff its Choi matrix is
positive semidefinite, so a Choi trace norm above 1 witnesses an NCP
propagator.

Every function that takes ``p`` (and ``q``) takes one value or a grid, a
list or an array, and gives each point the bits of a call on that point
alone; ``Superoperator`` and ``ChoiMatrix`` hold one matrix or a stack
``(..., n, n)``. Grids are walked in blocks (``matcore.blockwise``), so
the stacks held stay bounded. n copies of an N-level system, any N >= 2
and n >= 1, are the reordered Kronecker power of one system, and their
Choi trace norm is the n-th power of the single-system one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import matcore
from .channels import KrausSet, qubit_kraus, qudit_kraus
from .kernel import G_FUNCTION_STEP, SINGULARITY_GUARD, SingularMapError, _check_count, _check_levels, _check_pair, _guard
from .matcore import blockwise, hermitian_eigenvalues, kron, trace_norm

__all__ = [
    "Superoperator",
    "ChoiMatrix",
    "NcpWitness",
    "superoperator_of",
    "intermediate_map",
    "propagator_column",
    "maximally_entangled_projector",
    "choi_of",
    "intermediate_choi",
    "ncp_witness",
    "choi_trace_norm",
    "g_function",
]

@dataclass(frozen=True)
class _MapMatrix:
    """A complex d^2 x d^2 matrix of a map on a d-level system, or a stack ``(..., d^2, d^2)`` of them.

    ``dim`` is d >= 1, read from the side; ValueError for a side that is not a perfect square.
    """

    matrix: np.ndarray = field(repr=False)
    dim: int = field(init=False)

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=complex)
        d = math.isqrt(m.shape[-1]) if m.ndim else 0
        if m.shape[-2:] != (d * d, d * d) or d < 1:
            raise ValueError(f"{self._kind} must be d^2 x d^2 for an integer d >= 1, got shape {m.shape}")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "dim", d)


class Superoperator(_MapMatrix):
    """Matrix of a channel on column-stacked operators, ``(d^2, d^2)`` or a stack of them; ``dim`` is d."""

    _kind = "superoperator"


class ChoiMatrix(_MapMatrix):
    """Choi matrix of a map on a d-level system, ``(d^2, d^2)`` with trace 1 or a stack of them; ``dim`` is d."""

    _kind = "Choi matrix"

    def trace(self):
        """Trace (a float, or an array for a stack)."""
        t = np.trace(self.matrix, axis1=-2, axis2=-1).real
        return float(t) if t.ndim == 0 else t

    def eigenvalues(self) -> np.ndarray:
        """Real spectrum, ascending, per matrix (Hermitian by construction)."""
        return hermitian_eigenvalues(self.matrix)


class NcpWitness(NamedTuple):
    """Choi trace norm together with the NCP verdict it implies."""

    trace_norm: float
    is_ncp: bool


def superoperator_of(kraus: KrausSet) -> Superoperator:
    """Column-stacking superoperator S = sum_i conj(E_i) kron E_i, with S vec(rho) = vec(sum_i E_i rho E_i^dag).

    A stacked Kraus set gives the stack of superoperators.
    """
    acc = 0
    for op in kraus.operators:
        acc = acc + kron(op.conj(), op)
    return Superoperator(acc)


def _kraus(alpha: float, p, levels: int) -> KrausSet:
    """One-step Kraus set: the Pauli-ordered qubit builder at N = 2, the Weyl one above."""
    return qubit_kraus(alpha, p) if levels == 2 else qudit_kraus(alpha, p, levels)


def _check_system(levels, *qubits) -> tuple:
    """N and the copy counts n as ints: N checked by ``kernel._check_levels``, each n to be integral and >= 1."""
    return _check_levels(levels), *(_check_count(n, 1, "qubits must be >= 1") for n in qubits)


def propagator_column(fn: Callable[[Superoperator], np.ndarray], alpha: float, q, p, levels: int = 2):
    """``fn(Phi(p, q))`` of the N-level propagator over the grid, walked block by block.

    ``fn`` takes a stack of propagators and returns one value, or one
    array, per propagator. A pinned q (one value) is inverted once for the
    whole grid of p; a grid of q broadcasts against p.

    Raises:
        ValueError: unless N is an integral number of at least 2, or
            unless 0 <= q <= p <= 1.
        SingularMapError: when Phi(q, 0) is not invertible at some q.
    """
    q, p = np.asarray(q, dtype=float), np.asarray(p, dtype=float)
    _check_pair(q, p)

    def one_step_inverse(t):
        return matcore.inverse(superoperator_of(_kraus(alpha, t, levels)).matrix)

    def propagator(p_block, inverse):
        return Superoperator(superoperator_of(_kraus(alpha, p_block, levels)).matrix @ inverse)

    if q.ndim == 0:
        inverse = one_step_inverse(q)
        return blockwise(lambda p_block: fn(propagator(p_block, inverse)), p, dim=_check_levels(levels))
    return blockwise(lambda q_block, p_block: fn(propagator(p_block, one_step_inverse(q_block))), q, p, dim=_check_levels(levels))


def _grouped_slot_permutation(levels: int, qubits: int) -> np.ndarray:
    """Permutation of vec indices from the Kronecker power's slots (col_1, row_1, ..., col_n, row_n) to the composite system's (col_1..col_n, row_1..row_n)."""
    axes = list(range(0, 2 * qubits, 2)) + list(range(1, 2 * qubits, 2))
    return np.arange(levels ** (2 * qubits)).reshape([levels] * (2 * qubits)).transpose(axes).reshape(-1)


def intermediate_map(alpha: float, q, p, levels: int = 2, qubits: int = 1) -> Superoperator:
    """Propagator Phi(p, q) = Phi(p, 0) Phi(q, 0)^{-1} of n copies of an N-level system, as a superoperator.

    ``q`` and ``p`` may be grids (they broadcast), giving the stack of
    propagators. The n-copy propagator is the reordered Kronecker power of
    the single-system one, which it equals bit for bit at n = 1.

    Accuracy: within about 1e-6 of p_- the relative error can reach a few
    ulps times the condition number 1/|G(q)|, erratically
    (``intermediate_choi(1.0, 0.75 + 1e-10, 1.0, levels=3)`` is Hermitian
    only to 2e-7 relative). Sweeps mask that band as NA; direct calls get
    no warning.

    Raises:
        ValueError: unless N and n are integral numbers of at least 2 and
            1, or unless 0 <= q <= p <= 1.
        SingularMapError: when Phi(q, 0) is not invertible at some q.
    """
    levels, qubits = _check_system(levels, qubits)
    single = propagator_column(lambda s: s.matrix, alpha, q, p, levels)
    acc = single
    for _ in range(qubits - 1):
        acc = kron(acc, single)
    perm = _grouped_slot_permutation(levels, qubits)
    return Superoperator(acc[..., perm[:, None], perm])


def maximally_entangled_projector(dim: int) -> np.ndarray:
    """Projector onto sum_i |ii>/sqrt(dim) of a dim x dim bipartite system."""
    psi = np.eye(dim, dtype=complex).reshape(-1) / math.sqrt(dim)
    return np.outer(psi, psi.conj())


def choi_of(superop: Superoperator) -> ChoiMatrix:
    """Choi matrix of a map given its superoperator (or of each one of a stack).

    A reshuffle of S (Wood, Biamonte and Cory, arXiv:1111.6950), weighted
    by the entry 1/d of the maximally entangled projector (0.4999999999999999
    at d = 2): bit-equal to the textbook route devec(U (S kron I) U vec(P)),
    whose product has one nonzero term per entry.
    """
    d = superop.dim
    lead = superop.matrix.shape[:-2]
    k = len(lead)
    weight = maximally_entangled_projector(d)[0, 0]
    # Adding +0.0 turns a -0.0 into +0.0, the sign a sum of zero terms has.
    chi = superop.matrix.reshape(lead + (d, d, d, d)).transpose(*range(k), k + 1, k + 3, k, k + 2) * weight + 0.0
    return ChoiMatrix(chi.reshape(lead + (d * d, d * d)))


def intermediate_choi(alpha: float, q, p, levels: int = 2, qubits: int = 1) -> ChoiMatrix:
    """Choi matrix of ``intermediate_map(alpha, q, p, levels, qubits)``; its domain, accuracy and Raises hold."""
    return choi_of(intermediate_map(alpha, q, p, levels, qubits))


def ncp_witness(choi: ChoiMatrix) -> NcpWitness:
    """Trace-norm witness: ||chi||_1 = 1 for a CP map and > 1 otherwise."""
    norm = trace_norm(choi.matrix)
    return NcpWitness(norm, norm > 1.0 + 1e-10)


def choi_trace_norm(alpha: float, q, p, levels: int = 2, qubits: int | tuple = 1):
    """Choi trace norm of the propagator of n copies of an N-level system, through the superoperator and Choi route.

    It is the n-th power of the single-system norm, taken in Python floats
    (whose ``**`` can differ from ``np.power`` in the last bit). ``q`` and
    ``p`` may be grids, giving an array; a tuple of counts gives a list
    with one result per count.

    Raises:
        ValueError: unless N and every n are integral numbers of at least
            2 and 1, or unless 0 <= q <= p <= 1.
        SingularMapError: when Phi(q, 0) is not invertible at some q.
    """
    levels, *counts = _check_system(levels, *(qubits if isinstance(qubits, tuple) else (qubits,)))
    base = propagator_column(lambda superop: trace_norm(choi_of(superop).matrix), alpha, q, p, levels)
    flat = np.reshape(base, -1).tolist()
    norms = [np.reshape([b**n for b in flat], np.shape(base)) for n in counts]
    norms = [norm if norm.ndim else float(norm) for norm in norms]
    return norms if isinstance(qubits, tuple) else norms[0]


def g_function(alpha: float, q, qubits: int | tuple = 1):
    """Right derivative g(q) = lim_{eps -> 0+} (||chi(alpha, q, q + eps)||_1 - 1) / eps of the n-qubit Choi trace norm.

    A one-sided difference at eps = ``G_FUNCTION_STEP``, Richardson-refined
    at eps/2; values below the 1e-8 noise floor are clamped to 0. g is zero
    while the propagator stays CP and positive where CP divisibility breaks.
    ``q`` may be a grid, giving an array; a tuple of counts gives a list
    with one result per count.

    Raises:
        ValueError: when a q lies outside [0, 1 - ``G_FUNCTION_STEP``] or
            is NaN, or a qubit count is not an integral number of at
            least 1.
        SingularMapError: when q lies in the guard band of the singular
            parameter value, where the steps would reach past it.
    """
    q_arr = np.asarray(q, dtype=float)
    eps = G_FUNCTION_STEP
    if not np.all((0.0 <= q_arr) & (q_arr + eps <= 1.0)):
        raise ValueError(f"q must lie in [0, 1 - {eps:g}], got {q}")
    counts = qubits if isinstance(qubits, tuple) else (qubits,)
    if np.any(_guard(alpha)(q_arr)):
        raise SingularMapError(f"q = {q} lies within {SINGULARITY_GUARD:g} of the singular parameter value")

    def quotients(step: float) -> list:
        return [(norm - 1.0) / step for norm in choi_trace_norm(alpha, q_arr, q_arr + step, qubits=counts)]

    refined = [2.0 * half - full for half, full in zip(quotients(eps / 2.0), quotients(eps))]
    # + 0.0 turns the -0.0 of a clamped negative quotient into +0.0.
    columns = [r * (r > 1e-8) + 0.0 for r in refined]
    return columns if isinstance(qubits, tuple) else columns[0]
