"""The whole-array constructions of the dense route against their loop forms.

Each oracle below is the construction the library used before it built
its products by broadcasting: ``np.kron`` in a loop over Kraus operators,
the composite U (S kron I_{d^2}) U applied to vec(P) for the Choi matrix,
and one trace per transfer-matrix entry. The fast forms perform the same
floating-point operations, so the results must agree bit for bit, signs
of zeros included, not just within a tolerance. Half of the seeded draws
put q within 1e-3 of the singular parameter, where entries grow like
1/G(q).
"""

import numpy as np
import pytest

from depolmark import dynmaps, geometry, measures
from depolmark.channels import apply_channel, multiqubit_kraus, qubit_kraus, qudit_kraus
from depolmark.dynmaps import choi_of, crossover_point, maximally_entangled_projector, superoperator_of
from depolmark.matcore import PAULI_X, PAULI_Y, PAULI_Z, devectorize, kron, swap_permutation, vectorize

# (levels, qubits, draws): Choi dimensions d = 2, 3, 4, 4 and 8.
SYSTEMS = [(2, 1, 8), (3, 1, 8), (4, 1, 8), (2, 2, 8), (2, 3, 2)]
SYSTEM_IDS = ["qubit", "N3", "N4", "2qubit", "3qubit"]


def draws(levels: int, qubits: int, count: int) -> list:
    """Seeded (alpha, q, p) with q <= p; every other q within 1e-3 of the singular q."""
    rng = np.random.default_rng(1000 * levels + qubits)
    out = []
    for i in range(count):
        alpha = rng.uniform(0.05, 1.0)
        if i % 2:
            q = crossover_point(alpha, levels) + rng.uniform(-1e-3, 1e-3)
        else:
            q = rng.uniform(0.0, 1.0)
        out.append((alpha, q, rng.uniform(q, 1.0)))
    return out


def kraus_for(alpha: float, p: float, levels: int, qubits: int):
    if qubits > 1:
        return multiqubit_kraus(alpha, p, qubits)
    return qudit_kraus(alpha, p, levels) if levels > 2 else qubit_kraus(alpha, p)


def propagator(alpha: float, q: float, p: float, levels: int, qubits: int):
    """The superoperator that ``intermediate_choi`` reshuffles for this system."""
    if qubits > 1:
        return dynmaps.multiqubit_intermediate_map(alpha, q, p, qubits)
    if levels > 2:
        return dynmaps.qudit_intermediate_map(alpha, q, p, levels)
    return dynmaps.intermediate_map(alpha, q, p)


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want)
    assert got.tobytes() == want.tobytes()  # also the signs of zeros


# ---------------------------------------------------------------- oracles


def superoperator_loop(kraus) -> np.ndarray:
    d2 = kraus.dim * kraus.dim
    acc = np.zeros((d2, d2), dtype=complex)
    for op in kraus:
        acc += np.kron(op.conj(), op)
    return acc


def choi_composite(superop) -> np.ndarray:
    d = superop.dim
    perm = swap_permutation(d)
    composite = np.kron(superop.matrix, np.eye(d * d))[np.ix_(perm, perm)]
    return devectorize(composite @ vectorize(maximally_entangled_projector(d)), d * d)


def apply_loop(kraus, rho) -> np.ndarray:
    out = np.zeros_like(rho, dtype=complex)
    for op in kraus:
        out += op @ rho @ op.conj().T
    return out


def transfer_loop(kraus, basis, scale: int) -> np.ndarray:
    images = [apply_loop(kraus, g) for g in basis]
    m = np.empty((len(basis), len(basis)))
    for i, g_i in enumerate(basis):
        for j in range(len(basis)):
            m[i, j] = float(np.trace(g_i @ images[j]).real) / scale
    return m


def bloch_parts_loop(chi) -> tuple:
    paulis = (PAULI_X, PAULI_Y, PAULI_Z)
    s = np.array([float(np.trace(chi @ np.kron(np.eye(2), sig)).real) for sig in paulis])
    t = np.empty((3, 3))
    for i, sig_i in enumerate(paulis):
        for j, sig_j in enumerate(paulis):
            t[i, j] = float(np.trace(chi @ np.kron(sig_i, sig_j)).real)
    return s, t


# ---------------------------------------------------------------- tests


def test_kron_matches_np_kron():
    rng = np.random.default_rng(11)
    for m, n, r, s in ((1, 1, 1, 1), (2, 2, 2, 2), (4, 4, 4, 4), (3, 5, 2, 7), (16, 16, 16, 16)):
        a = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
        b = rng.normal(size=(r, s)) + 1j * rng.normal(size=(r, s))
        assert_same_bits(kron(a, b), np.kron(a, b))
        assert_same_bits(kron(a, np.eye(r)), np.kron(a, np.eye(r)))
        assert_same_bits(kron(np.eye(m), b), np.kron(np.eye(m), b))


def test_kron_of_stacks_is_the_stack_of_products():
    rng = np.random.default_rng(12)
    a = rng.normal(size=(5, 3, 2)) + 1j * rng.normal(size=(5, 3, 2))
    b = rng.normal(size=(5, 2, 4)) + 1j * rng.normal(size=(5, 2, 4))
    assert_same_bits(kron(a, b), np.array([np.kron(x, y) for x, y in zip(a, b)]))


@pytest.mark.parametrize("levels,qubits,count", SYSTEMS, ids=SYSTEM_IDS)
def test_superoperator_matches_kron_loop(levels, qubits, count):
    for alpha, q, p in draws(levels, qubits, count):
        for t in (q, p):
            kraus = kraus_for(alpha, t, levels, qubits)
            assert_same_bits(superoperator_of(kraus).matrix, superoperator_loop(kraus))


@pytest.mark.parametrize("levels,qubits,count", SYSTEMS, ids=SYSTEM_IDS)
def test_choi_reshuffle_matches_composite_route(levels, qubits, count):
    for alpha, q, p in draws(levels, qubits, count):
        superop = propagator(alpha, q, p, levels, qubits)
        want = choi_composite(superop)
        assert_same_bits(choi_of(superop).matrix, want)
        assert_same_bits(dynmaps.intermediate_choi(alpha, q, p, levels, qubits).matrix, want)


def test_affine_map_matches_entry_loop():
    for alpha, _, p in draws(2, 1, 8):
        basis = geometry.bloch_basis()
        want = transfer_loop(qubit_kraus(alpha, p), basis, 1)
        assert_same_bits(geometry.affine_map_of(alpha, p).matrix, want)


@pytest.mark.parametrize("levels", [3, 4])
def test_f_matrix_matches_entry_loop(levels):
    for alpha, _, p in draws(levels, 1, 8):
        f = geometry.f_matrix(alpha, p, levels)
        want = transfer_loop(qudit_kraus(alpha, p, levels), f.basis, levels * levels)
        assert_same_bits(f.matrix, want)


def test_bloch_parts_match_entry_loop():
    for alpha, q, p in draws(2, 1, 8):
        s, t = measures._choi_bloch_parts(alpha, q, p)
        want_s, want_t = bloch_parts_loop(dynmaps.intermediate_choi(alpha, q, p).matrix)
        assert_same_bits(s, want_s)
        assert_same_bits(np.ascontiguousarray(t), want_t)


@pytest.mark.parametrize("levels", [2, 3, 4])
def test_apply_channel_on_a_stack_matches_the_loop(levels):
    rng = np.random.default_rng(levels)
    kraus = qudit_kraus(0.7, 0.6, levels)
    ops = rng.normal(size=(2, 3, levels, levels)) + 1j * rng.normal(size=(2, 3, levels, levels))
    out = apply_channel(kraus, ops, validate=False)
    assert out.shape == ops.shape
    for idx in np.ndindex(2, 3):
        assert_same_bits(out[idx], apply_loop(kraus, ops[idx]))
        assert_same_bits(apply_channel(kraus, ops[idx], validate=False), out[idx])


def test_apply_channel_validates_every_state_of_a_stack():
    kraus = qubit_kraus(0.5, 0.5)
    rho = np.eye(2, dtype=complex) / 2
    assert apply_channel(kraus, np.array([rho, rho])).shape == (2, 2, 2)
    with pytest.raises(ValueError, match="density matrix"):
        apply_channel(kraus, np.array([rho, 2 * rho]))
    with pytest.raises(ValueError, match="shape"):
        apply_channel(kraus, np.ones(2))
