"""The oracle API: helpers that check the library but feed no dataset.

Nothing the command line runs imports this module. The names here serve
the tests, which use them to check the production routes from another
side: the column-stacking ``vectorize``/``devectorize`` pair and the
subsystem swap of the textbook Choi route, the tensor-product Kraus set of
n N-level channels, the closed-form qubit Choi matrix, the Bell-basis
witness expectations, the Pauli transfer matrix, the closed-form |+>/|->
trace distance and a random search over antipodal Bloch pairs.

Column stacking: ``vectorize`` gathers the columns of a matrix on top of
one another, and every superoperator of the package
(``dynmaps.superoperator_of``) acts on vectors in that order, S vec(rho) =
vec(Phi(rho)).
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .channels import KrausSet, apply_channel, qubit_kraus
from .dynmaps import ChoiMatrix, Superoperator, _check_system, _kraus
from .kernel import _check_levels, lambda_ratio
from .matcore import PAULI_I, PAULI_X, PAULI_Y, PAULI_Z, kron
from .measures import trace_distance

__all__ = [
    "vectorize",
    "devectorize",
    "swap_permutation",
    "swap_matrix",
    "multiqubit_kraus",
    "choi_closed_form",
    "bell_states",
    "bell_expectations",
    "pauli_transfer",
    "plus_minus_trace_distance",
    "blp_random_pair_search",
]

# ---------------------------------------------------------------- column stacking


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


def swap_permutation(levels: int) -> np.ndarray:
    """Index permutation exchanging subsystems 2 and 3 of a 4-fold tensor.

    Returns ``perm`` such that applying the swap operator to a vector ``x``
    of length ``levels**4`` yields ``x[perm]``.
    """
    n = _check_levels(levels)
    return np.arange(n**4).reshape(n, n, n, n).transpose(0, 2, 1, 3).reshape(-1)


def swap_matrix(levels: int) -> np.ndarray:
    """Swap of the second and third subsystem: I_N kron U_P kron I_N.

    ``U_P`` is the N^2 x N^2 commutation matrix, U_P (A kron B) U_P =
    B kron A. The result is a real permutation matrix of dimension
    ``levels**4``, equal to its own inverse.
    """
    return np.eye(_check_levels(levels) ** 4)[swap_permutation(levels)]


# ---------------------------------------------------------------- n copies


def multiqubit_kraus(alpha: float, p, qubits: int, levels: int = 2) -> KrausSet:
    """Tensor-product Kraus set of ``qubits`` independent N-level channels.

    The factors are the one-step Kraus set of ``dynmaps._kraus``: Pauli
    order (I, X, Y, Z) at N = 2, Weyl order above. The N^(2n) operators
    are ordered lexicographically in the per-copy index, each the
    Kronecker product of its factors taken left to right. Any N >= 2 and
    n >= 1 are taken (``dynmaps._check_system`` checks them); the set holds
    N^(2n) operators of dimension N^n, so memory, not a cap, bounds them.
    ``p`` may be a grid, as for :func:`depolmark.channels.qubit_kraus`.
    """
    levels, n = _check_system(levels, qubits)
    single = _kraus(alpha, p, levels).operators
    return KrausSet(tuple(functools.reduce(kron, combo) for combo in itertools.product(single, repeat=n)))


# ---------------------------------------------------------------- qubit Choi matrices


def choi_closed_form(alpha: float, q: float, p: float) -> np.ndarray:
    """Closed-form (unit-trace) Choi matrix of the qubit propagator.

    In the computational product basis it is diagonal apart from the two
    corner entries:

        diag((1+l)/4, (1-l)/4, (1-l)/4, (1+l)/4),  corners l/2,

    with l = lambda(p, q). Its spectrum is 1/4 + (3/4) l once and
    1/4 - (1/4) l three times.
    """
    lam = lambda_ratio(alpha, q, p)
    chi = np.zeros((4, 4), dtype=complex)
    chi[0, 0] = chi[3, 3] = (1 + lam) / 4.0
    chi[1, 1] = chi[2, 2] = (1 - lam) / 4.0
    chi[0, 3] = chi[3, 0] = lam / 2.0
    return chi


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
        image = devectorize(superop.matrix @ vectorize(sig_j), superop.dim)
        for i, sig_i in enumerate(basis):
            out[i, j] = 0.5 * float(np.trace(sig_i @ image).real)
    return out


# ---------------------------------------------------------------- distinguishability


def plus_minus_trace_distance(alpha: float, p: float) -> float:
    """Trace distance of the evolved |+>/|-> pair in closed form.

    D(p) = (1/4) |4 + 3 alpha p^2 - 4 p (alpha + 1)| = |1 - k(p)|: the pair
    stays antipodal along x and the distance is the magnitude of the Bloch
    contraction factor.
    """
    return abs(4.0 + 3.0 * alpha * p * p - 4.0 * p * (alpha + 1.0)) / 4.0


def blp_random_pair_search(
    alpha: float, pairs: int = 200, grid_points: int = 201, seed: int = 7
) -> float:
    """Largest distinguishability revival over random antipodal Bloch pairs.

    Evidence (not proof) that the fixed |+>/|-> pair of
    :func:`depolmark.kernel.blp_measure` is optimal: each sampled pair is
    evolved through the Kraus machinery on a p grid and the positive
    trace-distance increments are summed. By isotropy of the channel every
    antipodal pure pair attains the same revival, so the maximum matches
    alpha/4 up to grid error.
    """
    rng = np.random.default_rng(seed)
    kraus = qubit_kraus(alpha, np.linspace(0.0, 1.0, grid_points))
    best = 0.0
    for _ in range(pairs):
        vec = rng.normal(size=3)
        vec /= np.linalg.norm(vec)
        bloch = vec[0] * PAULI_X + vec[1] * PAULI_Y + vec[2] * PAULI_Z
        rho_a = 0.5 * (np.eye(2) + bloch)
        rho_b = 0.5 * (np.eye(2) - bloch)
        dist = trace_distance(apply_channel(kraus, rho_a), apply_channel(kraus, rho_b)).tolist()
        revival = sum(max(0.0, b - a) for a, b in zip(dist, dist[1:]))
        best = max(best, revival)
    return best
