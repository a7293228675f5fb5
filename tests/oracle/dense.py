"""Dense reference constructions: the routes of the package built another way.

No command loads this module; the tests import it as ``oracle.dense``.
The textbook and loop forms (the composite Choi route, ``np.kron`` and
index loops) perform the floating-point operations of the broadcast
routes that replaced them, so the tests hold those routes to them bit for
bit. The other helpers give values to check against: the n-copy Kraus set,
closed forms of the qubit propagator and a search over antipodal pairs.

``vectorize`` stacks the columns of a matrix, the order in which every
superoperator of the package acts: S vec(rho) = vec(Phi(rho)).
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from depolmark.channels import KrausSet, apply_channel, qubit_kraus
from depolmark.dynmaps import ChoiMatrix, Superoperator, _check_system, _kraus, maximally_entangled_projector
from depolmark.kernel import _check_levels, lambda_ratio
from depolmark.matcore import PAULI_I, PAULI_X, PAULI_Y, PAULI_Z, kron
from depolmark.measures import trace_distance

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

# ---------------------------------------------------------------- the composite Choi route


def vectorize(m: np.ndarray) -> np.ndarray:
    """The columns of ``m`` stacked: ``[[a, b], [c, d]]`` becomes ``(a, c, b, d)``."""
    return np.asarray(m).reshape(-1, order="F")


def devectorize(v: np.ndarray, dim: int) -> np.ndarray:
    """The ``dim x dim`` matrix whose ``vectorize`` is ``v``."""
    v = np.asarray(v).reshape(-1)
    if v.size != dim * dim:
        raise ValueError(f"vector of length {v.size} cannot fill a {dim}x{dim} matrix")
    return v.reshape((dim, dim), order="F")


def swap_permutation(levels: int) -> np.ndarray:
    """``perm`` such that swapping subsystems 2 and 3 of a vector x of length N^4 gives ``x[perm]``."""
    n = _check_levels(levels)
    return np.arange(n**4).reshape(n, n, n, n).transpose(0, 2, 1, 3).reshape(-1)


def swap_matrix(levels: int) -> np.ndarray:
    """That swap as a matrix, I_N kron U_P kron I_N (U_P (A kron B) U_P = B kron A): a real permutation, its own inverse."""
    return np.eye(_check_levels(levels) ** 4)[swap_permutation(levels)]


def choi_composite(superop) -> np.ndarray:
    """The Choi matrix of ``superop`` as U (S kron I_{d^2}) U vec(P), with U the swap and P the maximally entangled projector."""
    d = superop.dim
    perm = swap_permutation(d)
    composite = np.kron(superop.matrix, np.eye(d * d))[np.ix_(perm, perm)]
    return devectorize(composite @ vectorize(maximally_entangled_projector(d)), d * d)


# ---------------------------------------------------------------- loop forms


def superoperator_loop(kraus) -> np.ndarray:
    """S = sum_k conj(K_k) kron K_k, one ``np.kron`` per Kraus operator."""
    d2 = kraus.dim * kraus.dim
    acc = np.zeros((d2, d2), dtype=complex)
    for op in kraus:
        acc += np.kron(op.conj(), op)
    return acc


def projector_loop(dim: int) -> np.ndarray:
    """The maximally entangled projector, its vector filled one index at a time."""
    psi = np.zeros(dim * dim, dtype=complex)
    for i in range(dim):
        psi[i * dim + i] = 1.0
    psi /= math.sqrt(dim)
    return np.outer(psi, psi.conj())


def apply_loop(kraus, rho) -> np.ndarray:
    """sum_k K_k rho K_k^dagger, one operator at a time."""
    out = np.zeros_like(rho, dtype=complex)
    for op in kraus:
        out += op @ rho @ op.conj().T
    return out


def transfer_loop(kraus, basis, scale: int) -> np.ndarray:
    """M_ij = tr(g_i Phi(g_j)) / scale over ``basis``, one trace per entry."""
    images = [apply_loop(kraus, g) for g in basis]
    m = np.empty((len(basis), len(basis)))
    for i, g_i in enumerate(basis):
        for j in range(len(basis)):
            m[i, j] = float(np.trace(g_i @ images[j]).real) / scale
    return m


def bloch_parts_loop(chi) -> tuple:
    """(s, t) of a two-qubit ``chi``: s_i = tr(chi (I kron sigma_i)), t_ij = tr(chi (sigma_i kron sigma_j)), one trace each."""
    paulis = (PAULI_X, PAULI_Y, PAULI_Z)
    s = np.array([float(np.trace(chi @ np.kron(np.eye(2), sig)).real) for sig in paulis])
    t = np.empty((3, 3))
    for i, sig_i in enumerate(paulis):
        for j, sig_j in enumerate(paulis):
            t[i, j] = float(np.trace(chi @ np.kron(sig_i, sig_j)).real)
    return s, t


# ---------------------------------------------------------------- n copies


def multiqubit_kraus(alpha: float, p, qubits: int, levels: int = 2) -> KrausSet:
    """Kraus set of n independent N-level channels, checked as ``dynmaps._check_system``; ``p`` may be a grid.

    Its N^(2n) operators are the Kronecker products, left to right, of the
    factors of ``dynmaps._kraus``, in lexicographic order of the per-copy
    index; at n = 1 they are those factors.
    """
    levels, n = _check_system(levels, qubits)
    single = _kraus(alpha, p, levels).operators
    return KrausSet(tuple(functools.reduce(kron, combo) for combo in itertools.product(single, repeat=n)))


# ---------------------------------------------------------------- qubit closed forms


def choi_closed_form(alpha: float, q: float, p: float) -> np.ndarray:
    """The unit-trace qubit Choi matrix of Phi(p, q), l = lambda(p, q).

    It is diag((1+l)/4, (1-l)/4, (1-l)/4, (1+l)/4) with the corners l/2,
    so its spectrum is 1/4 + 3 l/4 once and 1/4 - l/4 three times.
    """
    lam = lambda_ratio(alpha, q, p)
    chi = np.zeros((4, 4), dtype=complex)
    chi[0, 0] = chi[3, 3] = (1 + lam) / 4.0
    chi[1, 1] = chi[2, 2] = (1 - lam) / 4.0
    chi[0, 3] = chi[3, 0] = lam / 2.0
    return chi


def bell_states() -> tuple:
    """The Bell vectors (Phi+, Phi-, Psi+, Psi-)."""
    rt = 1.0 / math.sqrt(2.0)
    phi_plus = np.array([rt, 0, 0, rt], dtype=complex)
    phi_minus = np.array([rt, 0, 0, -rt], dtype=complex)
    psi_plus = np.array([0, rt, rt, 0], dtype=complex)
    psi_minus = np.array([0, rt, -rt, 0], dtype=complex)
    return (phi_plus, phi_minus, psi_plus, psi_minus)


def bell_expectations(choi: ChoiMatrix) -> np.ndarray:
    """<b|chi|b> over the Bell vectors of a qubit Choi matrix: Lambda_I, then Lambda_XYZ three times for the propagator."""
    if choi.dim != 2:
        raise ValueError("Bell-state expectations are defined for qubit Choi matrices")
    return np.array([float((b.conj() @ choi.matrix @ b).real) for b in bell_states()])


def pauli_transfer(superop: Superoperator) -> np.ndarray:
    """R_ij = tr(sigma_i S(sigma_j)) / 2 over (I, X, Y, Z) of a qubit superoperator: diag(1, l, l, l) for the propagator."""
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
    """The |+>/|-> trace distance |4 + 3 alpha p^2 - 4 p (alpha + 1)| / 4 = |G(p)| in closed form."""
    return abs(4.0 + 3.0 * alpha * p * p - 4.0 * p * (alpha + 1.0)) / 4.0


def blp_random_pair_search(
    alpha: float, pairs: int = 200, grid_points: int = 201, seed: int = 7
) -> float:
    """The largest summed trace-distance revival over seeded random antipodal Bloch pairs.

    Each pair is evolved through ``qubit_kraus`` on a p grid. The channel is
    isotropic, so every pair attains ``kernel.blp_measure``'s alpha/4 up to
    grid error: evidence, not proof, that its |+>/|-> pair is optimal.
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
