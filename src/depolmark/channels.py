"""Kraus families of the generalized depolarizing channel.

The single-qubit channel is parametrized by a timelike parameter ``p`` in
[0, 1] and a memory strength ``alpha`` in [0, 1]:

    E_I = sqrt((1 - (3/4) alpha p) (1 - (3/4) p)) I
    E_i = sqrt((1 + alpha (1 - (3/4) p)) p / 4) sigma_i,   i = X, Y, Z

which acts as rho -> (1 - k) rho + k I/2 with the effective depolarizing
probability k(p) = p + alpha p - (3/4) alpha p^2 (see :func:`kappa`).
``alpha = 0`` recovers the standard depolarizing channel with k = p.

The N-level generalization replaces the Pauli operators by the Weyl
shift-and-phase unitaries and the fraction 3/4 by (N^2 - 1)/N^2; the
n-qubit family is the tensor product of identical single-qubit channels.

The builders take ``p`` as one value or as a grid. A grid gives a stacked
:class:`KrausSet`: operator ``i`` has shape ``p.shape + (d, d)`` and holds
the i-th Kraus operator at every grid point, built from the same float
operations as a single value, so a stack is bit-equal to the sets built
point by point. Completeness is checked at every grid point.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .matcore import (
    PAULI_I,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    is_density_matrix,
    is_hermitian,
    kron,
)

__all__ = [
    "DepolParams",
    "KrausSet",
    "kappa",
    "qubit_kraus",
    "weyl_operator",
    "qudit_kraus",
    "multiqubit_kraus",
    "apply_channel",
]

#: Largest supported qubit count; the Choi matrix of the 3-qubit map already
#: has dimension 64 and larger systems are out of scope.
MAX_QUBITS = 3


def _check_unit_interval(name: str, value):
    """``value`` as a float (an array for a grid), every entry checked to lie in [0, 1]."""
    value = np.asarray(value, dtype=float)
    inside = (0.0 <= value) & (value <= 1.0)
    if not inside.all():
        raise ValueError(f"{name} must lie in [0, 1], got {value[~inside].flat[0]}")
    return float(value) if value.ndim == 0 else value


@dataclass(frozen=True)
class DepolParams:
    """Parameter record for the depolarizing channel family.

    Attributes:
        alpha: memory strength in [0, 1].
        p: timelike parameter in [0, 1].
        levels: system dimension N >= 2.
        qubits: number of qubits n >= 1 (tensor-product family).
    """

    alpha: float
    p: float
    levels: int = 2
    qubits: int = 1

    def __post_init__(self) -> None:
        _check_unit_interval("alpha", self.alpha)
        _check_unit_interval("p", self.p)
        if int(self.levels) < 2:
            raise ValueError(f"levels must be >= 2, got {self.levels}")
        if int(self.qubits) < 1:
            raise ValueError(f"qubits must be >= 1, got {self.qubits}")


@dataclass(frozen=True)
class KrausSet:
    """Ordered Kraus operators of one channel, all of dimension ``dim``.

    Each operator is ``(dim, dim)``, or a stack ``(..., dim, dim)`` holding
    that operator for every channel of a grid; all operators share the
    stack shape. Construction verifies the completeness relation
    sum_i E_i^dag E_i = I for every channel.
    """

    operators: tuple = field(repr=False)
    dim: int

    def __post_init__(self) -> None:
        ops = tuple(np.asarray(op, dtype=complex) for op in self.operators)
        object.__setattr__(self, "operators", ops)
        for op in ops:
            if op.shape != ops[0].shape or op.shape[-2:] != (self.dim, self.dim):
                raise ValueError(f"expected {self.dim}x{self.dim} operators of one stack shape, got {op.shape}")
        if np.asarray(self.completeness_defect()).max() > 1e-9:
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
        """max |sum_i E_i^dag E_i - I|; zero for a trace-preserving set.

        A float for one channel, an array with one defect per channel for a stack.
        """
        ops = np.asarray(self.operators)
        acc = (ops.conj().swapaxes(-1, -2) @ ops).sum(axis=0)
        defect = np.abs(acc - np.eye(self.dim)).max(axis=(-2, -1))
        return float(defect) if defect.ndim == 0 else defect


def kappa(alpha: float, p, levels: int = 2):
    """Effective depolarizing probability k(p) of the N-level channel.

    k(p) = p + alpha p - ((N^2 - 1)/N^2) alpha p^2. For alpha = 0 this is
    just p; at p = 1 it equals 1 + alpha/N^2, i.e. the perturbation drives
    the channel past the maximal-depolarizing point k = 1.
    """
    n2 = levels * levels
    return p + alpha * p - (n2 - 1) / n2 * alpha * p * p


def _sqrt_coefficient(radicand, what: str) -> np.ndarray:
    """Square roots with a trailing (1, 1), ready to scale an operator at every grid point."""
    # Radicands are nonnegative for alpha, p in [0, 1]; tolerate roundoff only.
    radicand = np.asarray(radicand, dtype=float)
    if (radicand < -1e-12).any():
        raise ValueError(f"negative radicand for {what}: {radicand.min()}")
    return np.sqrt(np.maximum(radicand, 0.0))[..., None, None]


def qubit_kraus(alpha: float, p) -> KrausSet:
    """Kraus operators of the single-qubit channel, ordered (I, X, Y, Z).

    ``p`` may be a grid; the set then holds one channel per grid point.
    """
    alpha = _check_unit_interval("alpha", alpha)
    p = _check_unit_interval("p", p)
    c_id = _sqrt_coefficient((1 - 0.75 * alpha * p) * (1 - 0.75 * p), "identity term")
    c_pauli = _sqrt_coefficient((1 + alpha * (1 - 0.75 * p)) * p / 4.0, "Pauli term")
    ops = (c_id * PAULI_I, c_pauli * PAULI_X, c_pauli * PAULI_Y, c_pauli * PAULI_Z)
    return KrausSet(ops, 2)


def weyl_operator(levels: int, r: int, s: int) -> np.ndarray:
    """Weyl unitary U_{r,s} = sum_i omega^{i r} |i><i + s mod N|.

    ``omega = exp(2 pi i / N)``. For N = 2, U_{0,1} is sigma_X and U_{1,0}
    is sigma_Z, so the Weyl set generalizes the Pauli operators.
    """
    n = int(levels)
    if n < 2:
        raise ValueError("levels must be >= 2")
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
    alpha = _check_unit_interval("alpha", alpha)
    p = _check_unit_interval("p", p)
    n = int(levels)
    if n < 2:
        raise ValueError("levels must be >= 2")
    n2 = n * n
    c = (n2 - 1) / n2
    c_id = _sqrt_coefficient((1 - c * alpha * p) * (1 - c * p), "identity term")
    c_weyl = _sqrt_coefficient((1 + alpha * (1 - c * p)) * p / n2, "Weyl term")
    ops = []
    for r in range(n):
        for s in range(n):
            coeff = c_id if (r, s) == (0, 0) else c_weyl
            ops.append(coeff * weyl_operator(n, r, s))
    return KrausSet(tuple(ops), n)


def multiqubit_kraus(alpha: float, p, qubits: int) -> KrausSet:
    """Tensor-product Kraus set of ``qubits`` independent qubit channels.

    The 4^n operators are ordered lexicographically in the per-qubit index
    (I, X, Y, Z). Capped at n = 3 to keep the Choi dimension at 64. ``p``
    may be a grid, as for :func:`qubit_kraus`.
    """
    n = int(qubits)
    if n < 1:
        raise ValueError("qubits must be >= 1")
    if n > MAX_QUBITS:
        raise ValueError(
            f"qubits = {n} exceeds the supported maximum of {MAX_QUBITS} "
            "(Choi matrices beyond dimension 64 are not supported)"
        )
    single = qubit_kraus(alpha, p).operators
    if n == 1:
        return KrausSet(single, 2)
    ops = []
    for combo in itertools.product(single, repeat=n):
        acc = combo[0]
        for factor in combo[1:]:
            acc = kron(acc, factor)
        ops.append(acc)
    return KrausSet(tuple(ops), 2**n)


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
