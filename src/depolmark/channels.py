"""Kraus families of the generalized depolarizing channel.

The single-qubit channel is parametrized by a timelike parameter ``p`` in
[0, 1] and a memory strength ``alpha`` in [0, 1]:

    E_I = sqrt((1 - (3/4) alpha p) (1 - (3/4) p)) I
    E_i = sqrt((1 + alpha (1 - (3/4) p)) p / 4) sigma_i,   i = X, Y, Z

which acts as rho -> (1 - k) rho + k I/2 with the effective depolarizing
probability k(p) = p + alpha p - (3/4) alpha p^2 (see :func:`depolmark.kernel.kappa`).
``alpha = 0`` recovers the standard depolarizing channel with k = p.

The N-level generalization replaces the Pauli operators by the Weyl
shift-and-phase unitaries and the fraction 3/4 by (N^2 - 1)/N^2. The
n-qubit family is the tensor product of identical single-qubit channels;
its Kraus set, which no dataset reads, is the oracle
``depolmark.dense.multiqubit_kraus``.

The builders take ``p`` as one value or as a grid. A grid gives a stacked
:class:`KrausSet`: operator ``i`` has shape ``p.shape + (d, d)`` and holds
the i-th Kraus operator at every grid point, built from the same float
operations as a single value, so a stack is bit-equal to the sets built
point by point. Completeness is checked at every grid point. A
``KrausSet`` takes the operators alone and reads d from their last axis.

The kernel's ``_check_unit`` checks ``alpha`` and every point of ``p``
against [0, 1], and its ``_check_levels``, the package's one check of a
level count, refuses an N that is not an integral number of at least 2
(2.7 does not build a qubit channel).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .kernel import _check_levels, _check_unit
from .matcore import (
    PAULI_I,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    is_density_matrix,
)

__all__ = [
    "KrausSet",
    "qubit_kraus",
    "weyl_operator",
    "qudit_kraus",
    "apply_channel",
]


@dataclass(frozen=True)
class KrausSet:
    """Ordered Kraus operators of one channel, all of one dimension d.

    Each operator is ``(d, d)``, or a stack ``(..., d, d)`` holding that
    operator for every channel of a grid; all operators share one shape.
    ``dim`` is d, read from the operators' last axis. A set holds at least
    one operator, and d >= 1. Construction verifies the completeness
    relation sum_i E_i^dag E_i = I for every channel.
    """

    operators: tuple = field(repr=False)
    dim: int = field(init=False)

    def __post_init__(self) -> None:
        ops = tuple(np.asarray(op, dtype=complex) for op in self.operators)
        object.__setattr__(self, "operators", ops)
        if not ops or ops[0].ndim < 2 or not 1 <= ops[0].shape[-2] == ops[0].shape[-1] or any(op.shape != ops[0].shape for op in ops):
            raise ValueError(f"a Kraus set needs one or more square operators of one stack shape and d >= 1, got shapes {[op.shape for op in ops]}")
        object.__setattr__(self, "dim", ops[0].shape[-1])
        if np.any(self.completeness_defect() > 1e-9):
            raise ValueError("Kraus operators do not satisfy the completeness relation")

    def __len__(self) -> int:
        return len(self.operators)

    def __iter__(self):
        return iter(self.operators)

    @property
    def shape(self) -> tuple:
        """Stack shape of the operators: ``()`` for one channel."""
        return self.operators[0].shape[:-2]

    def completeness_defect(self):
        """max |sum_i E_i^dag E_i - I|, the sum taken over the operators in order; zero for a trace-preserving set.

        A float for one channel, an array with one defect per channel for a stack.
        """
        acc = sum(op.conj().swapaxes(-1, -2) @ op for op in self.operators)
        defect = np.abs(acc - np.eye(self.dim)).max(axis=(-2, -1))
        return float(defect) if defect.ndim == 0 else defect


def _sqrt_coefficient(radicand) -> np.ndarray:
    """Square roots with a trailing (1, 1), ready to scale an operator at every grid point.

    For alpha and p in [0, 1] neither radicand is negative:
    (1 - c alpha p)(1 - c p) >= (1 - c)^2 > 0 and (1 + alpha (1 - c p)) p / N^2 >= 0.
    """
    # p = -0.0 passes the [0, 1] check and gives a -0.0 radicand; the maximum
    # makes it +0.0, so the coefficient is +0.0 and not sqrt(-0.0) = -0.0.
    return np.sqrt(np.maximum(np.asarray(radicand, dtype=float), 0.0))[..., None, None]


def _kraus_set(alpha: float, p, levels: int, unitaries: list) -> KrausSet:
    """Kraus set of the N-level channel over ``unitaries``, the identity first, weighted as in :func:`qudit_kraus`.

    At N = 2, c = (N^2 - 1)/N^2 is exactly 0.75, the 3/4 of the qubit weights.
    """
    alpha = _check_unit("alpha", np.asarray(alpha, dtype=float))
    p = _check_unit("p", np.asarray(p, dtype=float))
    n2 = levels * levels
    c = (n2 - 1) / n2
    c_id = _sqrt_coefficient((1 - c * alpha * p) * (1 - c * p))
    c_rest = _sqrt_coefficient((1 + alpha * (1 - c * p)) * p / n2)
    return KrausSet((c_id * unitaries[0], *(c_rest * u for u in unitaries[1:])))


def qubit_kraus(alpha: float, p) -> KrausSet:
    """Kraus operators of the single-qubit channel, ordered (I, X, Y, Z).

    ``p`` may be a grid; the set then holds one channel per grid point.
    """
    return _kraus_set(alpha, p, 2, [PAULI_I, PAULI_X, PAULI_Y, PAULI_Z])


def weyl_operator(levels: int, r: int, s: int) -> np.ndarray:
    """Weyl unitary U_{r,s} = sum_i omega^{i r} |i><i + s mod N|.

    ``omega = exp(2 pi i / N)``. For N = 2, U_{0,1} is sigma_X and U_{1,0}
    is sigma_Z, so the Weyl set generalizes the Pauli operators.
    """
    n = _check_levels(levels)
    if not (0 <= r < n and 0 <= s < n):
        raise ValueError(f"Weyl indices must lie in [0, {n - 1}], got ({r}, {s})")
    omega = np.exp(2j * np.pi / n)
    u = np.zeros((n, n), dtype=complex)
    for i in range(n):
        u[i, (i + s) % n] = omega ** (i * r)
    return u


def qudit_kraus(alpha: float, p, levels: int) -> KrausSet:
    """Kraus operators of the N-level channel, lexicographic in (r, s).

    The (0, 0) slot carries the identity with weight
    sqrt((1 - c alpha p)(1 - c p)), c = (N^2 - 1)/N^2; every other slot
    carries sqrt((1 + alpha (1 - c p)) p / N^2) U_{r,s}. These weights are
    the unique choice for which the completeness relation holds for all
    alpha and p. ``p`` may be a grid, as for :func:`qubit_kraus`.
    """
    n = _check_levels(levels)
    return _kraus_set(alpha, p, n, [weyl_operator(n, r, s) for r in range(n) for s in range(n)])


def apply_channel(kraus: KrausSet, rho: np.ndarray, validate: bool = True) -> np.ndarray:
    """Apply the channel, rho -> sum_i E_i rho E_i^dag.

    ``rho`` is one operator ``(d, d)`` or a stack ``(..., d, d)``; a stack
    is mapped operator by operator. A stacked Kraus set maps every operator
    through every one of its channels: the result has shape
    ``kraus.shape + rho.shape``. The terms are summed in Kraus order,
    starting from zero, one term at a time across the stack.

    With ``validate`` (the default) every input must be a density matrix:
    Hermitian, unit trace and positive semidefinite within 1e-10. Pass
    ``validate=False`` to use the linear action on arbitrary operators,
    e.g. basis elements when assembling transfer matrices.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim < 2 or rho.shape[-2:] != (kraus.dim, kraus.dim):
        raise ValueError(f"state has shape {rho.shape}, channel acts on dimension {kraus.dim}")
    if validate and not all(is_density_matrix(r, 1e-10) for r in rho.reshape(-1, kraus.dim, kraus.dim)):
        raise ValueError("input is not a density matrix within tolerance 1e-10")
    spread = kraus.shape + (1,) * (rho.ndim - 2) + rho.shape[-2:]
    acc = 0
    for op in kraus.operators:
        op = op.reshape(spread)
        acc = acc + op @ rho @ op.conj().swapaxes(-1, -2)
    return acc
