import numpy as np
import pytest

from depolmark import matcore
from depolmark.matcore import (
    PAULI_I,
    PAULI_X,
    PAULI_Z,
    SingularMapError,
    hermitian_eigenvalues,
    inverse,
    kron,
    trace_norm,
)
from helpers import random_density
from oracle.dense import devectorize, swap_matrix, vectorize


def test_kron_identities():
    assert np.array_equal(kron(PAULI_I, PAULI_I), np.eye(4))
    assert np.array_equal(kron(PAULI_Z, PAULI_Z), np.diag([1.0, -1.0, -1.0, 1.0]))


def test_kron_xx_is_antidiagonal():
    # direct expansion of the definition: sigma_x kron sigma_x flips both bits
    xx = kron(PAULI_X, PAULI_X)
    assert np.array_equal(xx, np.fliplr(np.eye(4)))


def test_vectorize_column_stacking():
    m = np.array([[1 + 1j, 3], [2, 4 - 2j]])
    assert np.array_equal(vectorize(m), np.array([1 + 1j, 2, 3, 4 - 2j]))
    assert np.array_equal(vectorize(PAULI_I), np.array([1, 0, 0, 1], dtype=complex))


def test_devectorize_inverts_vectorize():
    assert np.array_equal(devectorize(np.array([1.0, 0, 0, 1]), 2), np.eye(2))
    v = np.array([1, 2, 3, 4])  # (a, c, b, d) ordering
    assert np.array_equal(devectorize(v, 2), np.array([[1, 3], [2, 4]]))
    assert devectorize(np.arange(9), 3).shape == (3, 3)


@pytest.mark.parametrize("dim", range(2, 10))
def test_vec_round_trip_exact(dim):
    rng = np.random.default_rng(dim)
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    assert np.array_equal(devectorize(vectorize(m), dim), m)


def test_devectorize_length_mismatch():
    with pytest.raises(ValueError, match="cannot fill"):
        devectorize(np.arange(5), 2)


def test_swap_matrix_structure_n2():
    # I_2 kron U_P kron I_2 with the middle 4x4 block swapping indices 1 and 2
    u_p = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=float)
    expected = np.kron(np.kron(np.eye(2), u_p), np.eye(2))
    assert np.array_equal(swap_matrix(2), expected)


@pytest.mark.parametrize("levels", [2, 3, 4])
def test_swap_matrix_orthogonal_involution(levels):
    u = swap_matrix(levels)
    assert np.array_equal(u, u.T)
    assert np.array_equal(u @ u, np.eye(levels**4))


def test_hermitian_eigenvalues_basic():
    assert np.allclose(hermitian_eigenvalues(np.diag([1.0, 2.0, 3.0])), [1, 2, 3])
    assert np.allclose(hermitian_eigenvalues(PAULI_X), [-1, 1])


def test_hermitian_eigenvalues_rejects_non_hermitian():
    with pytest.raises(ValueError, match="not Hermitian"):
        hermitian_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_hermitian_eigenvalues_tolerance_scales_with_entries():
    # An asymmetry of 1e-9 is 1e-12 of entries of order 1e3: rounding, not a defect.
    h = 1e3 * np.array([[1.0, 2.0], [2.0, -1.0]], dtype=complex)
    h[0, 1] += 1e-9
    assert np.allclose(hermitian_eigenvalues(h), [-1e3 * np.sqrt(5), 1e3 * np.sqrt(5)])
    with pytest.raises(ValueError, match="not Hermitian"):
        hermitian_eigenvalues(h + np.array([[0.0, 1e-6], [0.0, 0.0]]))


def test_hermitian_eigenvalues_sum_matches_trace():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    h = a + a.conj().T
    assert abs(hermitian_eigenvalues(h).sum() - np.trace(h).real) < 1e-10


def test_trace_norm_values():
    assert abs(trace_norm(np.eye(4) / 4) - 1.0) < 1e-15
    assert abs(trace_norm(np.diag([0.5, -0.25, 0.75])) - 1.5) < 1e-15


def test_trace_norm_of_density_matrices_is_one():
    rng = np.random.default_rng(5)
    for dim in (2, 3, 4, 8):
        assert abs(trace_norm(random_density(rng, dim)) - 1.0) < 1e-12


def test_trace_norm_general_matrix_matches_svd():
    rng = np.random.default_rng(7)
    for shape in ((4, 4), (2, 3)):
        m = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        assert abs(trace_norm(m) - np.linalg.svd(m, compute_uv=False).sum()) < 1e-12
    assert not matcore.is_hermitian(np.ones((2, 3)))


def test_non_square_stack_gets_one_hermiticity_verdict_per_matrix():
    verdicts = matcore.is_hermitian(np.ones((3, 2, 3)))
    assert verdicts.shape == (3,) and verdicts.dtype == bool and not verdicts.any()
    m = np.random.default_rng(11).normal(size=(3, 2, 3))
    norms = trace_norm(m)
    assert norms.shape == (3,)
    for norm, one in zip(norms, m):
        assert abs(norm - np.linalg.svd(one, compute_uv=False).sum()) < 1e-12


def test_inverse_basic():
    assert np.array_equal(inverse(np.eye(3)), np.eye(3))
    assert np.allclose(inverse(np.diag([1.0, 0.5, 0.5, 0.5])), np.diag([1.0, 2.0, 2.0, 2.0]), atol=1e-14)


def test_inverse_quality():
    rng = np.random.default_rng(13)
    m = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    cond = np.linalg.cond(m)
    assert np.abs(m @ inverse(m) - np.eye(5)).max() < 1e-10 * cond


def test_inverse_singular_map_at_crossover():
    # the one-step superoperator loses its smallest singular value exactly
    # where the effective depolarizing probability reaches 1
    from depolmark.channels import qubit_kraus
    from depolmark.dynmaps import superoperator_of
    from depolmark.kernel import crossover_point

    s = superoperator_of(qubit_kraus(0.7, crossover_point(0.7)))
    with pytest.raises(SingularMapError):
        inverse(s.matrix)


def test_inverse_rejects_non_square():
    with pytest.raises(ValueError):
        inverse(np.ones((2, 3)))


def test_is_density_matrix():
    assert matcore.is_density_matrix(np.eye(2) / 2)
    assert not matcore.is_density_matrix(np.eye(2))  # trace 2
    assert not matcore.is_density_matrix(PAULI_Z)  # negative eigenvalue
    assert not matcore.is_density_matrix(np.array([0.5, 0.5]))  # not a matrix
    assert not matcore.is_density_matrix(np.array([[0.5, 1.0], [0.0, 0.5]]))  # not Hermitian
