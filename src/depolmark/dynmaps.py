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
denominator 4 (N^2 for N levels, see :func:`lambda_ratio`).

The denominator vanishes when the effective depolarizing probability
reaches 1 at q; that parameter value (``crossover_point``) is a genuine
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
as a grid, and ``Superoperator`` and ``ChoiMatrix`` hold either one matrix
or a stack ``(..., n, n)`` with one matrix per grid point. A single value
is the 0-d case of the same code. The stacked route performs, point by
point, the same float operations as a single call, so its results are
bit-equal to those calls; sweeps use it to evaluate a whole column in one
call. The propagator functions walk their grid in blocks of 32 points
(``matcore.blockwise``) so that the stacks they hold stay small, and with
a pinned ``q`` they build and SVD-check Phi(q, 0)^{-1} once for the whole
grid rather than once per point.

The system is a parameter too: ``propagator_column`` takes ``levels`` N,
and ``intermediate_map``, ``intermediate_choi`` and ``choi_trace_norm``
take ``levels`` and ``qubits`` n. N = 2 builds its Kraus sets in Pauli
order (``qubit_kraus``), N > 2 in Weyl order (``qudit_kraus``); n qubits
are the reordered Kronecker power of the single-qubit propagator, and
their Choi trace norm is the n-th power of the single-qubit one. N > 2
together with n > 1 is not supported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import matcore
from .channels import KrausSet, _check_unit_interval, qubit_kraus, qudit_kraus
from .matcore import (
    PAULI_I,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    SingularMapError,
    blockwise,
    devectorize,
    hermitian_eigenvalues,
    kron,
    trace_norm,
    vectorize,
)

__all__ = [
    "Superoperator",
    "ChoiMatrix",
    "LambdaRatio",
    "NcpWitness",
    "superoperator_of",
    "intermediate_map",
    "propagator_column",
    "lambda_ratio",
    "maximally_entangled_projector",
    "choi_of",
    "intermediate_choi",
    "choi_closed_form",
    "choi_eigenvalues_closed",
    "qudit_choi_eigenvalues",
    "crossover_point",
    "ncp_witness",
    "choi_trace_norm",
    "g_function",
    "bell_states",
    "bell_expectations",
    "pauli_transfer",
]

#: Width of the guard band around the singular parameter value; sweeps treat
#: grid points closer than this to the singularity as undefined samples.
SINGULARITY_GUARD = 1e-6

#: Finite-difference step of :func:`g_function`; a q grid must end at or
#: below 1 minus this step.
G_FUNCTION_STEP = 1e-6


@dataclass(frozen=True)
class Superoperator:
    """Matrix representation of a channel on column-stacked operators.

    ``matrix`` is ``(d^2, d^2)``, or a stack ``(..., d^2, d^2)`` with one
    channel per grid point; ``dim`` is d either way.
    """

    matrix: np.ndarray = field(repr=False)
    dim: int

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=complex)
        d2 = self.dim * self.dim
        if m.shape[-2:] != (d2, d2):
            raise ValueError(f"superoperator for dimension {self.dim} must be {d2}x{d2}")
        object.__setattr__(self, "matrix", m)

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """Action on an operator via vectorize / devectorize."""
        return devectorize(self.matrix @ vectorize(rho), self.dim)


@dataclass(frozen=True)
class ChoiMatrix:
    """Choi matrix of a map on a ``dim``-level system (d^2 x d^2, trace 1).

    ``matrix`` may also be a stack ``(..., d^2, d^2)``, one Choi matrix per
    grid point.
    """

    matrix: np.ndarray = field(repr=False)
    dim: int

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=complex)
        d2 = self.dim * self.dim
        if m.shape[-2:] != (d2, d2):
            raise ValueError(f"Choi matrix for dimension {self.dim} must be {d2}x{d2}")
        object.__setattr__(self, "matrix", m)

    def trace(self):
        """Trace (a float, or an array for a stack)."""
        t = np.trace(self.matrix, axis1=-2, axis2=-1).real
        return float(t) if t.ndim == 0 else t

    def eigenvalues(self) -> np.ndarray:
        """Real spectrum, ascending, per matrix (Hermitian by construction)."""
        return hermitian_eigenvalues(self.matrix)


class LambdaRatio(NamedTuple):
    """Shared Pauli eigenvalue of the qubit propagator, with its two factors."""

    value: float
    numerator: float
    denominator: float


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


def _all(flags) -> bool:
    """all() of one flag or of an array of flags; Python bools skip numpy's reduction overhead."""
    return flags if isinstance(flags, bool) else bool(np.all(flags))


def _check_pair(q, p) -> None:
    ok = (0.0 <= q) & (q <= p) & (p <= 1.0)
    if not _all(ok):
        bad = np.argmin(np.reshape(ok, -1))
        q_bad, p_bad = (np.broadcast_to(x, np.shape(ok)).reshape(-1)[bad] for x in (q, p))
        raise ValueError(f"intermediate parameters must satisfy 0 <= q <= p <= 1, got q={q_bad}, p={p_bad}")


def _kraus(alpha: float, p, levels: int) -> KrausSet:
    """One-step Kraus set: the Pauli-ordered qubit builder at N = 2, the Weyl one above."""
    return qubit_kraus(alpha, p) if levels == 2 else qudit_kraus(alpha, p, levels)


def _check_system(levels: int, qubits: int) -> None:
    if qubits < 1:
        raise ValueError("qubits must be >= 1")
    if levels > 2 and qubits > 1:
        raise ValueError("combined multi-level multi-qubit maps are not supported")


def propagator_column(fn: Callable[[Superoperator], np.ndarray], alpha: float, q, p, levels: int = 2):
    """``fn(Phi(p, q))`` of the N-level propagator over the grid, 32 points at a time, results concatenated.

    ``fn`` receives a stack of propagators (one matrix for scalar q and p)
    and returns one value, or one array, per propagator. A pinned q (one
    value) has Phi(q, 0)^{-1} built and SVD-checked once for the whole grid
    of p; a grid of q, broadcast against p, is inverted block by block,
    every matrix checked.

    Raises:
        SingularMapError: when Phi(q, 0) is not invertible at some q.
    """
    _check_pair(q, p)

    def one_step_inverse(t):
        return matcore.inverse(superoperator_of(_kraus(alpha, t, levels)).matrix)

    def propagator(p_block, inverse):
        s_p = superoperator_of(_kraus(alpha, p_block, levels))
        return Superoperator(s_p.matrix @ inverse, s_p.dim)

    if np.ndim(q) == 0:
        inverse = one_step_inverse(q)
        return blockwise(lambda p_block: fn(propagator(p_block, inverse)), p)
    return blockwise(lambda q_block, p_block: fn(propagator(p_block, one_step_inverse(q_block))), q, p)


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


def lambda_ratio(alpha: float, q, p, levels: int = 2) -> LambdaRatio:
    """Closed-form transfer eigenvalue lambda(p, q) = G(p)/G(q) of the N-level propagator.

    With n2 = N^2 both survival factors G = 1 - k are written over the
    common denominator n2,

        lambda = (p (n2 + n2 alpha - (n2 - 1) alpha p) - n2)
                 / (n2 q + n2 alpha q - (n2 - 1) alpha q^2 - n2);

    it is 1 - p at q = alpha = 0 for the qubit and exactly 1 at p = q.
    Takes grids too.

    Raises:
        SingularMapError: when the denominator vanishes (q at the singular
            parameter), matching the invertibility threshold of
            :func:`depolmark.matcore.inverse`.
    """
    _check_pair(q, p)
    n2 = levels * levels
    num = p * (n2 + n2 * alpha - (n2 - 1) * alpha * p) - n2
    den = n2 * q + n2 * alpha * q - (n2 - 1) * alpha * q * q - n2
    # |den|/n2 = |1 - k(q)| is the smallest singular value of Phi(q, 0).
    if not _all(abs(den) / n2 > matcore._SINGULAR_RTOL):
        raise SingularMapError(f"propagator undefined: q = {q} sits at the map singularity")
    return LambdaRatio(num / den, num, den)


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
    """Choi matrix of the propagator :func:`intermediate_map` of N levels or n qubits."""
    return choi_of(intermediate_map(alpha, q, p, levels, qubits))


def choi_closed_form(alpha: float, q: float, p: float) -> np.ndarray:
    """Closed-form (unit-trace) Choi matrix of the qubit propagator.

    In the computational product basis it is diagonal apart from the two
    corner entries:

        diag((1+l)/4, (1-l)/4, (1-l)/4, (1+l)/4),  corners l/2,

    with l = lambda(p, q). Its spectrum is 1/4 + (3/4) l once and
    1/4 - (1/4) l three times.
    """
    lam = lambda_ratio(alpha, q, p).value
    chi = np.zeros((4, 4), dtype=complex)
    chi[0, 0] = chi[3, 3] = (1 + lam) / 4.0
    chi[1, 1] = chi[2, 2] = (1 - lam) / 4.0
    chi[0, 3] = chi[3, 0] = lam / 2.0
    return chi


def choi_eigenvalues_closed(alpha: float, q: float, p: float) -> tuple:
    """Closed-form Choi spectrum (Lambda_I, Lambda_X, Lambda_Y, Lambda_Z).

    The N = 2 view of :func:`qudit_choi_eigenvalues`: Lambda_I = 1/4 +
    (3/4) lambda and Lambda_i = 1/4 - (1/4) lambda; they always sum to 1
    (trace preservation), and any negative entry flags an NCP propagator.
    """
    top, rest = qudit_choi_eigenvalues(alpha, q, p, 2)
    return (top, rest, rest, rest)


def qudit_choi_eigenvalues(alpha: float, q, p, levels: int) -> tuple:
    """Choi spectrum of the N-level propagator as (top, rest).

    ``top`` = 1/N^2 + (1 - 1/N^2) l has multiplicity 1 and ``rest`` =
    1/N^2 - l/N^2 has multiplicity N^2 - 1, with l = :func:`lambda_ratio`.
    Takes grids too.
    """
    lam = lambda_ratio(alpha, q, p, levels).value
    n2 = levels * levels
    return (1 / n2 + (1 - 1 / n2) * lam, 1 / n2 - lam / n2)


def crossover_point(alpha: float, levels: int = 2) -> float | None:
    """Singular parameter value of the N-level family (the smaller root).

    Solves ((N^2-1)/N^2) alpha p^2 - (1 + alpha) p + 1 = 0, i.e. k(p) = 1,
    using the cancellation-free form 2 / ((1 + alpha) + sqrt(disc)). At this
    point the one-step map loses invertibility, the propagator eigenvalues
    cross, and the decay rate diverges.

    Returns ``None`` for alpha = 0: the root degenerates to the boundary
    p = 1 (and the companion root escapes to infinity), so the family has
    no interior singularity.
    """
    _check_unit_interval("alpha", alpha)
    if alpha == 0.0:
        return None
    c = (levels * levels - 1) / (levels * levels)
    disc = (1 + alpha) ** 2 - 4 * c * alpha
    return 2.0 / ((1 + alpha) + math.sqrt(disc))


def ncp_witness(choi: ChoiMatrix) -> NcpWitness:
    """Trace-norm witness: ||chi||_1 = 1 for a CP map and > 1 otherwise."""
    norm = trace_norm(choi.matrix)
    return NcpWitness(norm, norm > 1.0 + 1e-10)


def _choi_trace_norm(superop: Superoperator):
    return trace_norm(choi_of(superop).matrix)


def choi_trace_norm(alpha: float, q, p, levels: int = 2, qubits: int = 1):
    """Choi trace norm of the propagator of N levels or n qubits, via the full pipeline.

    The n-qubit Choi matrix is, up to a subsystem permutation, the n-fold
    Kronecker power of the single-qubit one, so its spectrum consists of
    products of single-qubit Choi eigenvalues and the trace norm is the
    n-th power of the single-qubit trace norm. The single-system norm is
    computed through the full superoperator/Choi pipeline.

    ``q`` and ``p`` may be grids (an array of norms comes back). The power
    is taken point by point in Python floats, whose ``**`` can differ from
    ``np.power`` in the last bit.
    """
    _check_system(levels, qubits)
    base = propagator_column(_choi_trace_norm, alpha, q, p, levels)
    if np.ndim(base) == 0:
        return float(base) ** qubits
    return np.array([b**qubits for b in base.tolist()]).reshape(base.shape)


def g_function(alpha: float, q, qubits: int = 1):
    """Right derivative of the Choi trace norm at a vanishing step.

    g(q, alpha) = lim_{eps -> 0+} (||chi(alpha, q, q + eps)||_1 - 1) / eps,
    evaluated by a one-sided finite difference with eps =
    ``G_FUNCTION_STEP`` (1e-6) refined by Richardson extrapolation at eps/2.
    Negative values and values below the 1e-8 noise floor of the difference
    quotient are clamped to 0. The limit is zero wherever the propagator
    stays CP and positive where CP divisibility breaks. ``q`` may be a grid
    (an array comes back); every q of it is inverted and checked.

    Raises:
        SingularMapError: when q sits at the singular parameter value.
    """
    q_arr = np.asarray(q, dtype=float)
    if not np.all((0.0 <= q_arr) & (q_arr < 1.0)):
        raise ValueError(f"q must lie in [0, 1), got {q}")
    if qubits not in (1, 2):
        raise ValueError("the derivative witness is provided for 1 or 2 qubits")
    eps = G_FUNCTION_STEP
    if np.any(q_arr + eps > 1.0):
        raise ValueError(f"q = {q} leaves no room for the finite-difference step {eps}")

    def quotient(step: float):
        norm = choi_trace_norm(alpha, q, q_arr + step, qubits=qubits)
        return (norm - 1.0) / step

    refined = 2.0 * quotient(eps / 2.0) - quotient(eps)
    clamped = np.where(refined > 1e-8, refined, 0.0)
    return float(clamped) if clamped.ndim == 0 else clamped


def bell_states() -> tuple:
    """The four Bell vectors in the fixed order (Phi+, Phi-, Psi+, Psi-)."""
    rt = 1.0 / math.sqrt(2.0)
    phi_plus = np.array([rt, 0, 0, rt], dtype=complex)
    phi_minus = np.array([rt, 0, 0, -rt], dtype=complex)
    psi_plus = np.array([0, rt, rt, 0], dtype=complex)
    psi_minus = np.array([0, rt, -rt, 0], dtype=complex)
    return (phi_plus, phi_minus, psi_plus, psi_minus)


def bell_expectations(choi: ChoiMatrix) -> np.ndarray:
    """Expectation values <b|chi|b> over the Bell basis (witness operators).

    For the qubit propagator the Phi+ expectation reproduces the Choi
    eigenvalue Lambda_I and the remaining three reproduce the degenerate
    Lambda_{X,Y,Z}.
    """
    if choi.dim != 2:
        raise ValueError("Bell-state expectations are defined for qubit Choi matrices")
    return np.array([float((b.conj() @ choi.matrix @ b).real) for b in bell_states()])


def pauli_transfer(superop: Superoperator) -> np.ndarray:
    """Real transfer matrix of a qubit superoperator in the Pauli basis.

    R_ij = (1/2) tr(sigma_i S(sigma_j)) over (I, X, Y, Z). Trace
    preservation forces the first row to (1, 0, 0, 0); for the depolarizing
    propagator the result is diag(1, lambda, lambda, lambda).
    """
    if superop.dim != 2:
        raise ValueError("the Pauli transfer matrix is defined for qubit superoperators")
    basis = (PAULI_I, PAULI_X, PAULI_Y, PAULI_Z)
    out = np.empty((4, 4))
    for j, sig_j in enumerate(basis):
        image = superop.apply(sig_j)
        for i, sig_i in enumerate(basis):
            out[i, j] = 0.5 * float(np.trace(sig_i @ image).real)
    return out
