"""The dense witness columns: trace distance and quantum-memory witness.

``plus_minus_distance`` equals |G(p)| and ``memory_witness_X`` equals
3 |lambda(p, q)|, checked at every point against its closed form. Both
take one value or a grid, each point bit-equal to a call on that point
alone. The scalar measures on the same G live in ``kernel``.
"""

from __future__ import annotations

import numpy as np

from .channels import apply_channel, qubit_kraus
from .dynmaps import choi_of, propagator_column
from .dynmaps import intermediate_choi  # noqa: F401 -- measures.intermediate_choi stays importable (perfbench wraps re-bindings)
from .kernel import lambda_ratio
from .matcore import PAULI_X, PAULI_Y, PAULI_Z, blockwise, kron, trace_norm

__all__ = [
    "trace_distance",
    "plus_minus_states",
    "plus_minus_distance",
    "memory_witness_X",
    "memory_witness_closed",
]


def trace_distance(a: np.ndarray, b: np.ndarray):
    """Trace distance (1/2) ||a - b||_1 of two density matrices, or the array of pairwise distances of two stacks.

    Raises:
        ValueError: for arguments of different shapes.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise ValueError(f"state dimensions differ: {a.shape} vs {b.shape}")
    return 0.5 * trace_norm(a - b)


def plus_minus_states() -> tuple:
    """The antipodal pair |+><+| and |-><-| used by the distinguishability measure."""
    plus = 0.5 * np.array([[1, 1], [1, 1]], dtype=complex)
    minus = 0.5 * np.array([[1, -1], [-1, 1]], dtype=complex)
    return plus, minus


def plus_minus_distance(alpha: float, p):
    """Trace distance D(p) = |G(p)| of the |+>/|-> pair evolved through the qubit Kraus set: a float for one p, an array for a grid.

    Raises:
        ValueError: for alpha or a p outside [0, 1] (NaN included).
    """
    plus, minus = plus_minus_states()
    distance = lambda kraus: trace_distance(apply_channel(kraus, plus), apply_channel(kraus, minus))
    return blockwise(lambda p: distance(qubit_kraus(alpha, p)), p, dim=2)


# I kron sigma_i, then sigma_i kron sigma_j row by row: the observables
# behind the Bloch parts of a two-qubit Choi matrix.
_BLOCH_OBSERVABLES = np.array(
    [kron(np.eye(2), sig) for sig in (PAULI_X, PAULI_Y, PAULI_Z)]
    + [kron(a, b) for a in (PAULI_X, PAULI_Y, PAULI_Z) for b in (PAULI_X, PAULI_Y, PAULI_Z)]
)


def _choi_bloch_parts(chi: np.ndarray) -> tuple:
    """Local Bloch vector s and correlation matrix T of a two-qubit Choi matrix (or stack)."""
    values = np.trace(chi[..., None, :, :] @ _BLOCH_OBSERVABLES, axis1=-2, axis2=-1).real
    return values[..., :3], values[..., 3:].reshape(values.shape[:-1] + (3, 3))


def _witness_direct(superop) -> np.ndarray:
    """|s| + ||T||_1 of the Choi matrix of each propagator."""
    s, t = _choi_bloch_parts(choi_of(superop).matrix)
    # One norm call per Bloch vector: a batched norm sums in another order.
    norms = np.array([np.linalg.norm(row) for row in s.reshape(-1, 3)]).reshape(s.shape[:-1])
    return norms + trace_norm(t)


def memory_witness_X(alpha: float, q, p):
    """Quantum-memory witness X = |s| + ||T||_1 of the qubit propagator's Choi matrix: a float, or an array for grids.

    s_i = tr(chi (I kron sigma_i)) and T_ij = tr(chi (sigma_i kron sigma_j)).
    X above 1 certifies quantum correlations in the Choi state, and a rise
    along p signals information backflow. Each point is checked against
    ``memory_witness_closed`` to 1e-8 of max(1, 3 |lambda|).

    Raises:
        ValueError: for alpha outside [0, 1] or unless 0 <= q <= p <= 1.
        SingularMapError: when q sits at the singular parameter.
        ArithmeticError: when the two routes disagree beyond that bound.
    """
    q, p = np.asarray(q, dtype=float), np.asarray(p, dtype=float)
    direct = propagator_column(_witness_direct, alpha, q, p)
    closed = memory_witness_closed(alpha, q, p)
    # Near the singular q both routes grow like 1/G(q), and so does their
    # rounding difference, hence the relative bound.
    apart = np.abs(direct - closed) > 1e-8 * np.maximum(1.0, np.abs(closed))
    if np.any(apart):
        i = np.argmax(apart.reshape(-1))
        d, c = (float(np.reshape(x, -1)[i]) for x in (direct, closed))
        raise ArithmeticError(f"witness routes disagree: direct {d!r} vs closed {c!r} at (alpha={alpha}, q={q}, p={p})")
    return direct


def memory_witness_closed(alpha: float, q, p):
    """Closed form 3 |lambda(p, q)| of the qubit memory witness; raises as ``kernel.lambda_ratio``."""
    return 3.0 * abs(lambda_ratio(alpha, q, p))
