"""Kraus families of the generalized depolarizing channel.

The qubit channel, with timelike parameter ``p`` and memory strength
``alpha`` in [0, 1], has the Kraus operators

    E_I = sqrt((1 - (3/4) alpha p) (1 - (3/4) p)) I
    E_i = sqrt((1 + alpha (1 - (3/4) p)) p / 4) sigma_i,   i = X, Y, Z

and acts as rho -> (1 - k) rho + k I/2 with k = ``kernel.kappa``. The
N-level channel replaces the Pauli operators by the Weyl unitaries and
3/4 by (N^2 - 1)/N^2. The builders take ``p`` as one value or as a grid;
a grid gives a stacked ``KrausSet``, each point bit-equal to a set built
for that point alone.
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
    """Ordered Kraus operators of one channel, or of each channel of a grid.

    Each operator is ``(d, d)``, or a stack ``(..., d, d)`` with one channel
    per grid point; all share one shape, and ``dim`` is d >= 1, read from
    the last axis. ValueError for no operator, mismatched shapes, or a
    completeness defect above 1e-9 at any channel.
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
        """max |sum_i E_i^dag E_i - I|, zero for a trace-preserving set: a float for one channel, an array for a stack."""
        acc = sum(op.conj().swapaxes(-1, -2) @ op for op in self.operators)
        defect = np.abs(acc - np.eye(self.dim)).max(axis=(-2, -1))
        return float(defect) if defect.ndim == 0 else defect


def _sqrt_coefficient(radicand) -> np.ndarray:
    """Square roots with a trailing (1, 1), ready to scale an operator at every grid point.

    For alpha and p in [0, 1] neither radicand is negative:
    (1 - c alpha p)(1 - c p) >= (1 - c)^2 > 0 and (1 + alpha (1 - c p)) p / N^2 >= 0.
    """
    # p = -0.0 passes the [0, 1] check and gives a -0.0 radicand; the maximum
    # makes the coefficient +0.0, not sqrt(-0.0) = -0.0.
    return np.sqrt(np.maximum(np.asarray(radicand, dtype=float), 0.0))[..., None, None]


def _kraus_set(alpha: float, p, levels: int, unitaries: list) -> KrausSet:
    """Kraus set of the N-level channel over ``unitaries``, the identity first, weighted as in ``qudit_kraus``."""
    alpha = _check_unit("alpha", np.asarray(alpha, dtype=float))
    p = _check_unit("p", np.asarray(p, dtype=float))
    n2 = levels * levels
    c = (n2 - 1) / n2
    c_id = _sqrt_coefficient((1 - c * alpha * p) * (1 - c * p))
    c_rest = _sqrt_coefficient((1 + alpha * (1 - c * p)) * p / n2)
    return KrausSet((c_id * unitaries[0], *(c_rest * u for u in unitaries[1:])))


def qubit_kraus(alpha: float, p) -> KrausSet:
    """Kraus operators of the single-qubit channel, ordered (I, X, Y, Z); ``p`` may be a grid.

    Raises:
        ValueError: for alpha or a p outside [0, 1] (NaN included).
    """
    return _kraus_set(alpha, p, 2, [PAULI_I, PAULI_X, PAULI_Y, PAULI_Z])


def weyl_operator(levels: int, r: int, s: int) -> np.ndarray:
    """Weyl unitary U_{r,s} = sum_i omega^{i r} |i><i + s mod N|, omega = exp(2 pi i / N); U_{0,1} = X and U_{1,0} = Z at N = 2.

    Raises:
        ValueError: unless N is an integral number of at least 2 and
            0 <= r, s < N.
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
    """Kraus operators of the N-level channel, the Weyl unitaries U_{r,s} lexicographic in (r, s); ``p`` may be a grid.

    With c = (N^2 - 1)/N^2, U_{0,0} = I carries the weight
    sqrt((1 - c alpha p)(1 - c p)) and every other U_{r,s} the weight
    sqrt((1 + alpha (1 - c p)) p / N^2).

    Raises:
        ValueError: for alpha or a p outside [0, 1] (NaN included), or
            unless N is an integral number of at least 2.
    """
    n = _check_levels(levels)
    return _kraus_set(alpha, p, n, [weyl_operator(n, r, s) for r in range(n) for s in range(n)])


def apply_channel(kraus: KrausSet, rho: np.ndarray, validate: bool = True) -> np.ndarray:
    """Apply the channel, rho -> sum_i E_i rho E_i^dag.

    ``rho`` is one operator ``(d, d)`` or a stack ``(..., d, d)``. A
    stacked Kraus set maps every operator through each of its channels:
    the result has shape ``kraus.shape + rho.shape``.

    Raises:
        ValueError: for a state of another dimension or, with ``validate``
            (the default), for an input that is not a density matrix within
            1e-10; ``validate=False`` gives the linear action on any operator.
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
