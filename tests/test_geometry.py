import itertools
import math

import numpy as np
import pytest

from depolmark.geometry import affine_map_of, f_matrix, f_norm, gell_mann_matrices, volume_determinant
from depolmark.kernel import blp_measure, bloch_contraction_derivative, crossover_point, kappa, survival, volume_measure
from helpers import trajectory


def test_affine_map_memoryless():
    m = affine_map_of(0.0, 0.5).matrix
    assert np.abs(m - np.diag([1.0, 0.5, 0.5, 0.5])).max() < 1e-12


def test_affine_map_at_zero_is_identity():
    assert np.abs(affine_map_of(0.9, 0.0).matrix - np.eye(4)).max() < 1e-12


def test_affine_map_matches_contraction_factor():
    for alpha, p in itertools.product((0.0, 0.4, 0.8, 1.0), (0.0, 0.3, 0.7, 1.0)):
        lam = survival(alpha, p)
        expected = np.diag([1.0, lam, lam, lam])
        assert np.abs(affine_map_of(alpha, p).matrix - expected).max() < 1e-12
        assert abs(lam - (0.75 * alpha * p * p - alpha * p - p + 1)) < 1e-15


def test_affine_map_first_row_is_trace_preservation():
    m = affine_map_of(0.7, 0.6).matrix
    assert np.abs(m[0] - np.array([1.0, 0, 0, 0])).max() < 1e-12


def test_affine_map_block_norm():
    for alpha, p in ((0.0, 0.5), (0.8, 0.9)):
        affine = affine_map_of(alpha, p)
        expected = 3 * abs(survival(alpha, p))
        assert abs(affine.trace_norm - (1 + expected)) < 1e-12


def test_volume_determinant_matches_cube_of_contraction():
    for alpha, p in itertools.product((0.0, 0.4, 0.8), (0.0, 0.3, 0.7, 0.9, 1.0)):
        assert abs(volume_determinant(alpha, p) - abs(survival(alpha, p)) ** 3) < 1e-12


def test_volume_memoryless_monotone():
    grid = np.linspace(0.0, 1.0, 101)
    values = [volume_determinant(0.0, p) for p in grid]
    assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))
    assert np.allclose(values, (1 - grid) ** 3, atol=1e-12)


def test_volume_regrows_past_crossover():
    point = crossover_point(0.8)
    assert abs(point - 0.7362) < 1e-4
    assert volume_determinant(0.8, point) < 1e-30
    grid = np.linspace(point + 1e-3, 1.0, 50)
    values = [volume_determinant(0.8, p) for p in grid]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_volume_measure_values():
    assert volume_measure(0.0) == 0.0
    assert abs(volume_measure(0.8) - 0.6) < 1e-8
    assert abs(volume_measure(1.0) - 0.75) < 1e-8


def test_volume_measure_is_exact_at_tiny_alpha():
    # The quadrature it replaced read 0.0 at 1e-16 and was 2.3 % low at 1e-14.
    assert volume_measure(1e-16) == 7.5e-17
    assert volume_measure(1e-14) == 7.5e-15


def test_volume_measure_triples_distinguishability_measure():
    for alpha in (0.2, 0.5, 0.9):
        assert abs(volume_measure(alpha) - 3 * blp_measure(alpha)) < 1e-8


def test_volume_norm_grows_somewhere_iff_memory():
    # d||M||_1/dp = 3 sign(lambda) lambda' is positive only past the
    # singular parameter, which exists exactly for alpha > 0
    grid = np.linspace(0.0, 1.0, 201)

    def derivative(alpha, p):
        lam = survival(alpha, p)
        return 3 * np.sign(lam) * bloch_contraction_derivative(alpha, p)

    assert all(derivative(0.0, p) <= 0 for p in grid)
    for alpha in (0.1, 0.5, 1.0):
        assert any(derivative(alpha, p) > 0 for p in grid)
        assert volume_measure(alpha) > 0


@pytest.mark.parametrize("levels", [2, 3, 4])
def test_gell_mann_properties(levels):
    mats = gell_mann_matrices(levels)
    assert len(mats) == levels**2 - 1
    for i, a in enumerate(mats):
        assert np.abs(a - a.conj().T).max() < 1e-15
        assert abs(np.trace(a)) < 1e-14
        for j, b in enumerate(mats):
            expected = 2.0 if i == j else 0.0
            assert abs(np.trace(a @ b).real - expected) < 1e-13


def test_gell_mann_n2_are_paulis():
    from depolmark.matcore import PAULI_X, PAULI_Y, PAULI_Z

    x, y, z = gell_mann_matrices(2)
    assert np.abs(x - PAULI_X).max() < 1e-15
    assert np.abs(y - PAULI_Y).max() < 1e-15
    assert np.abs(z - PAULI_Z).max() < 1e-15


def test_f_matrix_identity_channel_normalization():
    f = f_matrix(0.7, 0.0, 3).matrix
    assert np.abs(f - np.diag([1 / 9] + [2 / 9] * 8)).max() < 1e-13


def test_f_matrix_diagonal_structure():
    # identity component is preserved; traceless components shrink uniformly
    for levels in (3, 4):
        for alpha, p in ((0.0, 0.5), (0.7, 0.9)):
            f = f_matrix(alpha, p, levels).matrix
            size = levels**2
            shrink = 1 - kappa(alpha, p, levels)
            expected = np.diag([1 / size] + [2 * shrink / size] * (size - 1))
            assert np.abs(f - expected).max() < 1e-12


def test_f_matrix_norm_nonmonotonic_with_memory():
    grid = np.linspace(0.0, 1.0, 101)
    norms = [f_matrix(0.7, p, 3).trace_norm for p in grid]
    low = int(np.argmin(norms))
    assert abs(grid[low] - crossover_point(0.7, 3)) < 0.02
    assert 0 < low < len(norms) - 1
    assert norms[-1] > norms[low]


@pytest.mark.parametrize("levels", [3, 4])
def test_f_matrix_norm_monotone_without_memory(levels):
    grid = np.linspace(0.0, 1.0, 101)
    norms = [f_matrix(0.0, p, levels).trace_norm for p in grid]
    assert all(b <= a + 1e-13 for a, b in zip(norms, norms[1:]))


@pytest.mark.parametrize("levels", [2, 5, 8])
def test_f_matrix_and_norm_match_their_closed_forms_up_to_eight_levels(levels):
    # F = diag(1, 2G, ..., 2G)/N^2 at any N >= 2, so ||F||_1 = (1 + 2 (N^2 - 1) |G|)/N^2.
    n2 = levels * levels
    grid = [0.0, 0.2, 0.5, 0.95, 1.0]
    for alpha in (0.0, 0.7, 1.0):
        stack, norms = f_matrix(alpha, grid, levels).matrix, f_norm(alpha, grid, levels)
        for f, norm, p in zip(stack, norms, grid):
            g = survival(alpha, p, levels)
            assert np.abs(f - np.diag([1.0] + [2.0 * g] * (n2 - 1)) / n2).max() <= 1e-13
            assert abs(norm - (1.0 + 2.0 * (n2 - 1) * abs(g)) / n2) <= 1e-13


def test_trajectory_memoryless():
    path = trajectory(0.0, np.linspace(0.0, 0.99, 100))
    assert np.all(np.abs(path.a - -1.0 / (1.0 - path.p)) < 1e-12)
    assert np.all(path.a < 0)
    assert path.cp_divisible.all() and path.inside_tetrahedron.all()


def test_trajectory_with_memory_matches_rational_form():
    path = trajectory(0.7, np.minimum(np.arange(0.0, 1.0001, 0.01), 1.0))
    p = path.p
    expected = (42 * p - 68) / (21 * p * p - 68 * p + 40)
    assert np.all(np.abs(path.a - expected) < 1e-10)


def test_trajectory_violations_in_memory_window():
    path = trajectory(0.7, np.minimum(np.arange(0.80, 1.0001, 0.01), 1.0))
    assert not path.cp_divisible.any()
    assert np.all(path.a > 0)


def test_trajectory_stays_in_positivity_cube():
    for alpha in (0.0, 0.5, 1.0):
        path = trajectory(alpha, np.linspace(0.0, 1.0, 51))
        assert np.all((-1.0 <= path.lam) & (path.lam <= 1.0))


def test_trajectory_divisibility_equivalent_to_log_derivative_sign():
    for alpha in (0.0, 0.3, 0.7, 1.0):
        path = trajectory(alpha, np.linspace(0.0, 0.99, 100))
        for p, a, divisible in zip(path.p.tolist(), path.a.tolist(), path.cp_divisible.tolist()):
            if math.isnan(a):
                continue
            ratio = bloch_contraction_derivative(alpha, p) / survival(alpha, p)
            assert divisible == (ratio <= 1e-12)


def test_trajectory_singular_point_retained():
    point = crossover_point(1.0)
    path = trajectory(1.0, [point])
    assert path.p.tolist() == [point]
    assert np.isnan(path.a[0])
    assert not path.cp_divisible[0]
    assert path.inside_tetrahedron[0]
    assert abs(path.lam[0]) <= 1e-12


def test_trajectory_rejects_out_of_range_grid():
    with pytest.raises(ValueError):
        trajectory(0.5, [0.5, 1.2])
