"""Superoperators, intermediate maps, Choi matrices and NCP witnesses.

The dynamical map Phi(p, 0) is represented as a matrix acting on
column-stacked states, S = sum_i conj(E_i) kron E_i. The propagator
between timelike parameters q <= p is

    Phi(p, q) = Phi(p, 0) Phi(q, 0)^{-1},

which for the qubit family is diagonal in the Pauli basis,
diag(1, lambda, lambda, lambda), with

    lambda(p, q) = (p (4 + 4 alpha - 3 alpha p) - 4)
                   / (4 q + 4 alpha q - 3 alpha q^2 - 4),

the ratio G(p)/G(q) of survival factors G = 1 - k over the common
denominator 4 (N^2 for N levels). That closed form and the Choi spectrum
built from it are ``kernel.lambda_ratio`` and
``kernel.qudit_choi_eigenvalues``, which need no numpy; this module is the
dense route they are checked against.

The denominator vanishes when the effective depolarizing probability
reaches 1 at q; that parameter value (``kernel.crossover_point``) is a genuine
singularity of the propagator and surfaces as :class:`SingularMapError`.

The Choi matrix of a map with superoperator S on an N-level system is a
reshuffle of S (Wood, Biamonte and Cory, arXiv:1111.6950): S is read as a
four-index tensor over (row, column) pairs of the input and output
operators, its axes are permuted, and the result is weighted by the
entry 1/N of the projector onto the maximally entangled state
sum_i |ii>/sqrt(N). Every entry of the Choi matrix is one entry of S
times that weight; no N^4 x N^4 intermediate is formed. The map is
completely positive iff the Choi matrix is positive semidefinite; a trace
norm above 1 therefore witnesses an NCP propagator.

Every function of the dense route takes ``p`` (and ``q``) as one value or
as a grid (a list or an array: ``propagator_column`` turns both into float
arrays first), and ``Superoperator`` and ``ChoiMatrix``, which share one
shape check, hold either one matrix
or a stack ``(..., n, n)`` with one matrix per grid point. A single value
is the 0-d case of the same code. The stacked route performs, point by
point, the same float operations as a single call, so its results are
bit-equal to those calls; sweeps use it to evaluate a whole column in one
call. The propagator functions walk their grid in blocks sized by the
system dimension, 1024 points at N = 2 and 64 at N = 4
(``matcore.blockwise``), so that the stacks they hold stay bounded, and
with a pinned ``q`` they build and SVD-check Phi(q, 0)^{-1} once for the
whole grid rather than once per point.

The system is a parameter too: ``propagator_column`` takes ``levels`` N,
and ``intermediate_map``, ``intermediate_choi`` and ``choi_trace_norm``
take ``levels`` and ``qubits`` n. N = 2 builds its Kraus sets in Pauli
order (``qubit_kraus``), N > 2 in Weyl order (``qudit_kraus``); n qubits
are the reordered Kronecker power of the single-qubit propagator, and
their Choi trace norm is the n-th power of the single-qubit one.
``choi_trace_norm`` and ``g_function`` take a tuple of qubit counts as
well, and then compute one single-system column and take all its powers.
N > 2 together with n > 1 is not supported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import matcore
from .channels import KrausSet, qubit_kraus, qudit_kraus
from .kernel import G_FUNCTION_STEP, SINGULARITY_GUARD, SingularMapError, _check_pair, _guard
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
    """A complex d^2 x d^2 matrix of a map on a ``dim``-level system, or a stack ``(..., d^2, d^2)`` of them."""

    matrix: np.ndarray = field(repr=False)
    dim: int

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=complex)
        d2 = self.dim * self.dim
        if m.shape[-2:] != (d2, d2):
            raise ValueError(f"{self._kind} for dimension {self.dim} must be {d2}x{d2}")
        object.__setattr__(self, "matrix", m)


class Superoperator(_MapMatrix):
    """Matrix representation of a channel on column-stacked operators.

    ``matrix`` is ``(d^2, d^2)``, or a stack ``(..., d^2, d^2)`` with one
    channel per grid point; ``dim`` is d either way.
    """

    _kind = "superoperator"


class ChoiMatrix(_MapMatrix):
    """Choi matrix of a map on a ``dim``-level system (d^2 x d^2, trace 1).

    ``matrix`` may also be a stack ``(..., d^2, d^2)``, one Choi matrix per
    grid point.
    """

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
    """Column-stacking superoperator S = sum_i conj(E_i) kron E_i.

    Satisfies S vec(rho) = vec(sum_i E_i rho E_i^dag). A stacked Kraus set
    gives the stack of superoperators. The products are summed in operator
    order, starting from zero, one Kraus term at a time across the stack.
    """
    acc = 0
    for op in kraus.operators:
        acc = acc + kron(op.conj(), op)
    return Superoperator(acc, kraus.dim)


def _kraus(alpha: float, p, levels: int) -> KrausSet:
    """One-step Kraus set: the Pauli-ordered qubit builder at N = 2, the Weyl one above."""
    return qubit_kraus(alpha, p) if levels == 2 else qudit_kraus(alpha, p, levels)


def _check_system(levels: int, *qubits: int) -> None:
    if min(qubits) < 1:
        raise ValueError("qubits must be >= 1")
    if levels > 2 and max(qubits) > 1:
        raise ValueError("combined multi-level multi-qubit maps are not supported")


def propagator_column(fn: Callable[[Superoperator], np.ndarray], alpha: float, q, p, levels: int = 2):
    """``fn(Phi(p, q))`` of the N-level propagator over the grid, block by block, results concatenated.

    ``fn`` receives a stack of propagators (one matrix for scalar q and p)
    and returns one value, or one array, per propagator. A pinned q (one
    value) has Phi(q, 0)^{-1} built and SVD-checked once for the whole grid
    of p; a grid of q, broadcast against p, is inverted block by block,
    every matrix checked.

    Raises:
        SingularMapError: when Phi(q, 0) is not invertible at some q.
    """
    q, p = np.asarray(q, dtype=float), np.asarray(p, dtype=float)
    _check_pair(q, p)

    def one_step_inverse(t):
        return matcore.inverse(superoperator_of(_kraus(alpha, t, levels)).matrix)

    def propagator(p_block, inverse):
        s_p = superoperator_of(_kraus(alpha, p_block, levels))
        return Superoperator(s_p.matrix @ inverse, s_p.dim)

    if q.ndim == 0:
        inverse = one_step_inverse(q)
        return blockwise(lambda p_block: fn(propagator(p_block, inverse)), p, dim=levels)
    return blockwise(lambda q_block, p_block: fn(propagator(p_block, one_step_inverse(q_block))), q, p, dim=levels)


def _grouped_slot_permutation(qubits: int) -> np.ndarray:
    """Map vec indices from per-qubit (col, row) pairs to grouped layout.

    The Kronecker power of single-qubit superoperators carries its 2n binary
    index slots interleaved as (col_1, row_1, ..., col_n, row_n), while the
    superoperator of the composite system orders them (col_1..col_n,
    row_1..row_n) under column stacking of 2^n x 2^n matrices.
    """
    axes = list(range(0, 2 * qubits, 2)) + list(range(1, 2 * qubits, 2))
    return np.arange(4**qubits).reshape([2] * (2 * qubits)).transpose(axes).reshape(-1)


def intermediate_map(alpha: float, q, p, levels: int = 2, qubits: int = 1) -> Superoperator:
    """Propagator Phi(p, q) = Phi(p, 0) Phi(q, 0)^{-1} of N levels or n qubits, as a superoperator.

    ``q`` and ``p`` may be grids (they broadcast); the result is then the
    stack of propagators, and a pinned ``q`` is inverted once. The n-qubit
    one-step superoperator is (up to the fixed slot reordering of
    :func:`_grouped_slot_permutation`) the n-fold Kronecker power of the
    single-qubit one, so its inverse factorizes per tensor slot and the
    propagator is the reordered Kronecker power of the single-qubit
    propagator; the 4^n-dimensional matrix is never inverted.

    Near the crossover point p_- the digits are bounded only by the
    condition number 1/|G(q)|: :func:`depolmark.matcore.inverse` accepts
    Phi(q, 0) down to a singular-value ratio of 1e-12, and within about
    1e-6 of p_- the propagator's relative error can reach a few ulps times
    that number, erratically (``intermediate_choi(1.0, 0.75 + 1e-10, 1.0,
    levels=3)`` is Hermitian only to 2e-7 relative, q = 0.75 + 1e-11 to
    2e-16). Sweeps mask that band as NA; direct calls get no warning.

    Raises:
        ValueError: for qubits < 1, or N > 2 together with n > 1.
        SingularMapError: when Phi(q, 0) is not invertible (q at the
            crossover point of the family).
    """
    _check_system(levels, qubits)
    single = propagator_column(lambda s: s.matrix, alpha, q, p, levels)
    acc = single
    for _ in range(qubits - 1):
        acc = kron(acc, single)
    if qubits > 1:
        perm = _grouped_slot_permutation(qubits)
        acc = acc[..., perm[:, None], perm]
    return Superoperator(acc, levels**qubits)


def maximally_entangled_projector(dim: int) -> np.ndarray:
    """Projector onto sum_i |ii>/sqrt(dim) of a dim x dim bipartite system."""
    psi = np.zeros(dim * dim, dtype=complex)
    for i in range(dim):
        psi[i * dim + i] = 1.0
    psi /= math.sqrt(dim)
    return np.outer(psi, psi.conj())


def choi_of(superop: Superoperator) -> ChoiMatrix:
    """Choi matrix of a map given its superoperator.

    Reshuffles S (Wood, Biamonte and Cory, arXiv:1111.6950): with
    S[(a, b), (c, e)] = S4[a, b, c, e] in column-stacking order, the Choi
    matrix is chi[(b, e), (a, c)] = S4[a, b, c, e] / d. The weight 1/d is
    read from the maximally entangled projector, so it is the same float
    (e.g. 0.4999999999999999 at d = 2) as in the textbook route
    devec(U (S kron I_{d^2}) U vec(P)), with U the swap of the second and
    third tensor factors. That route's matrix-vector product has exactly
    one nonzero term per entry, so both give the same bits. A stack of
    superoperators gives the stack of Choi matrices.
    """
    d = superop.dim
    lead = superop.matrix.shape[:-2]
    k = len(lead)
    weight = maximally_entangled_projector(d)[0, 0]
    # Adding +0.0 turns a -0.0 into +0.0, the sign a sum of zero terms has.
    chi = superop.matrix.reshape(lead + (d, d, d, d)).transpose(*range(k), k + 1, k + 3, k, k + 2) * weight + 0.0
    return ChoiMatrix(chi.reshape(lead + (d * d, d * d)), d)


def intermediate_choi(alpha: float, q, p, levels: int = 2, qubits: int = 1) -> ChoiMatrix:
    """Choi matrix of the propagator :func:`intermediate_map` of N levels or n qubits.

    Within about 1e-6 of the crossover point its digits are bounded only
    by the condition number 1/|G(q)| of Phi(q, 0), as for
    :func:`intermediate_map`; sweeps mask that band, direct calls do not.
    """
    return choi_of(intermediate_map(alpha, q, p, levels, qubits))


def ncp_witness(choi: ChoiMatrix) -> NcpWitness:
    """Trace-norm witness: ||chi||_1 = 1 for a CP map and > 1 otherwise."""
    norm = trace_norm(choi.matrix)
    return NcpWitness(norm, norm > 1.0 + 1e-10)


def _choi_trace_norm(superop: Superoperator):
    return trace_norm(choi_of(superop).matrix)


def choi_trace_norm(alpha: float, q, p, levels: int = 2, qubits: int | tuple = 1):
    """Choi trace norm of the propagator of N levels or n qubits, via the full pipeline.

    The n-qubit Choi matrix is, up to a subsystem permutation, the n-fold
    Kronecker power of the single-qubit one, so its spectrum consists of
    products of single-qubit Choi eigenvalues and the trace norm is the
    n-th power of the single-qubit trace norm. The single-system norm is
    computed through the full superoperator/Choi pipeline.

    ``q`` and ``p`` may be grids (an array of norms comes back). The power
    is taken point by point in Python floats, whose ``**`` can differ from
    ``np.power`` in the last bit. A tuple of qubit counts gives a list with
    one result per count, all powers of one single-system column.
    """
    counts = qubits if isinstance(qubits, tuple) else (qubits,)
    _check_system(levels, *counts)
    base = propagator_column(_choi_trace_norm, alpha, q, p, levels)
    flat = np.reshape(base, -1).tolist()
    norms = [np.reshape([b**n for b in flat], np.shape(base)) for n in counts]
    norms = [norm if norm.ndim else float(norm) for norm in norms]
    return norms if isinstance(qubits, tuple) else norms[0]


def g_function(alpha: float, q, qubits: int | tuple = 1):
    """Right derivative of the Choi trace norm at a vanishing step.

    g(q, alpha) = lim_{eps -> 0+} (||chi(alpha, q, q + eps)||_1 - 1) / eps,
    evaluated by a one-sided finite difference with eps =
    ``G_FUNCTION_STEP`` (1e-6) refined by Richardson extrapolation at eps/2.
    Negative values and values below the 1e-8 noise floor of the difference
    quotient are clamped to 0. The limit is zero wherever the propagator
    stays CP and positive where CP divisibility breaks. ``q`` may be a grid
    (an array comes back); every q of it is inverted and checked.

    ``qubits`` is 1 or 2, or a tuple of them; a tuple gives a list with one
    result per count. Either way each step takes one single-qubit Choi-norm
    column, whose n-th power is the n-qubit norm.

    Raises:
        SingularMapError: when q lies in the guard band of the singular
            parameter value, where the steps would reach past it.
    """
    q_arr = np.asarray(q, dtype=float)
    if not np.all((0.0 <= q_arr) & (q_arr < 1.0)):
        raise ValueError(f"q must lie in [0, 1), got {q}")
    counts = qubits if isinstance(qubits, tuple) else (qubits,)
    if not all(n in (1, 2) for n in counts):
        raise ValueError("the derivative witness is provided for 1 or 2 qubits")
    eps = G_FUNCTION_STEP
    if np.any(q_arr + eps > 1.0):
        raise ValueError(f"q = {q} leaves no room for the finite-difference step {eps}")
    if np.any(_guard(q_arr, alpha)):
        raise SingularMapError(f"q = {q} lies within {SINGULARITY_GUARD:g} of the singular parameter value")

    def quotients(step: float) -> list:
        return [(norm - 1.0) / step for norm in choi_trace_norm(alpha, q_arr, q_arr + step, qubits=counts)]

    refined = [2.0 * half - full for half, full in zip(quotients(eps / 2.0), quotients(eps))]
    clamped = [np.where(r > 1e-8, r, 0.0) for r in refined]
    columns = [float(c) if c.ndim == 0 else c for c in clamped]
    return columns if isinstance(qubits, tuple) else columns[0]
