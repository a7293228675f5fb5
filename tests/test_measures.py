import itertools
import math

import numpy as np
import pytest

from depolmark.channels import apply_channel, qubit_kraus
from depolmark import measures
from depolmark.dense import blp_random_pair_search, plus_minus_trace_distance
from depolmark.dynmaps import intermediate_map
from depolmark.kernel import (
    SingularMapError,
    SingularRateError,
    blp_measure,
    crossover_point,
    decay_rate,
    decay_rate_normalized,
    hcla_closed_form,
    hcla_measure,
    kappa,
    lambda_ratio,
    plus_minus_distance_derivative,
    qutrit_hcla_log_form,
    survival,
    volume_measure,
)
from depolmark.measures import (
    memory_witness_closed,
    memory_witness_X,
    plus_minus_states,
    trace_distance,
)
from helpers import random_density

ALPHA_GRID = [round(0.1 * k, 1) for k in range(1, 11)]


def test_decay_rate_memoryless():
    for p in (0.0, 0.3, 0.9):
        assert abs(decay_rate(0.0, p) - 1 / (1 - p)) < 1e-12


def test_decay_rate_value():
    assert abs(decay_rate(0.7, 0.9) + 7.207637231503573) < 1e-10


def test_decay_rate_matches_published_ratio():
    for alpha, p in itertools.product((0.3, 0.7, 1.0), (0.1, 0.5, 0.95)):
        expected = (4 + (4 - 6 * p) * alpha) / (4 + 3 * alpha * p * p - 4 * p * (1 + alpha))
        assert abs(decay_rate(alpha, p) - expected) < 1e-12


def test_decay_rate_sign_change_at_crossover():
    point = crossover_point(0.7)
    assert decay_rate(0.7, point - 1e-3) > 0
    assert decay_rate(0.7, point + 1e-3) < 0
    with pytest.raises(SingularRateError):
        decay_rate(0.7, point)
    with pytest.raises(SingularRateError):
        decay_rate(0.0, 1.0)


def test_rates_take_a_grid_bit_equal_to_scalar_calls():
    grid = np.linspace(0.0, 0.99, 37)
    for alpha, levels in ((0.0, 2), (0.7, 2), (0.4, 3)):
        for rate in (decay_rate, decay_rate_normalized):
            column = rate(alpha, grid[1:], levels)
            scalars = [rate(alpha, p, levels) for p in grid[1:].tolist()]
            assert all(type(v) is float for v in scalars)
            assert [v.hex() for v in column.tolist()] == [v.hex() for v in scalars]


def test_rates_on_a_grid_raise_if_any_point_is_singular():
    point = crossover_point(0.7)
    with pytest.raises(SingularRateError):
        decay_rate(0.7, np.array([0.2, point, 0.9]))
    with pytest.raises(ValueError, match="normalized rate undefined"):
        decay_rate_normalized(0.0, np.array([0.0, 0.5]))
    with pytest.raises(ValueError, match="normalized rate undefined"):
        decay_rate_normalized(1e-300, 0.0)


@pytest.mark.parametrize("levels", (2, 3))
def test_zero_floor_sits_between_5e_13_and_5e_12(levels):
    # |G| = 5e-12 is above the floor of 1e-12: the rate, the propagator
    # ratio and the conditioned inverse behind it are all defined there.
    # |G| = 5e-13 is below it, and all three raise. Near its zero G holds
    # only about eps/|G| relative, hence the loose value checks.
    alpha = 0.7
    point = crossover_point(alpha, levels)
    slope = abs(-(1.0 + alpha) + 2.0 * (1.0 - 1.0 / levels**2) * alpha * point)
    above, below = point - 5e-12 / slope, point - 5e-13 / slope
    assert 4e-12 < survival(alpha, above, levels) < 6e-12
    assert 4e-13 < survival(alpha, below, levels) < 6e-13
    assert decay_rate(alpha, above, levels) == pytest.approx(slope / survival(alpha, above, levels), rel=1e-3)
    assert lambda_ratio(alpha, above, 1.0, levels) == pytest.approx(
        survival(alpha, 1.0, levels) / survival(alpha, above, levels), rel=1e-3
    )
    intermediate_map(alpha, above, 1.0, levels)
    with pytest.raises(SingularRateError):
        decay_rate(alpha, below, levels)
    with pytest.raises(SingularMapError):
        lambda_ratio(alpha, below, 1.0, levels)
    with pytest.raises(SingularMapError):
        intermediate_map(alpha, below, 1.0, levels)


def test_normalized_rate_closed_forms():
    for p in (0.2, 0.5, 1.0):
        assert abs(decay_rate_normalized(0.0, p) - 1 / p) < 1e-12
    for alpha, p in itertools.product((0.3, 0.7, 1.0), (0.1, 0.5, 0.95)):
        expected = (4 + 4 * alpha - 6 * alpha * p) / (4 * p + 4 * alpha - 2 * alpha * p - 3 * alpha * p * p)
        assert abs(decay_rate_normalized(alpha, p) - expected) < 1e-12


def test_normalized_rate_is_normalization_of_rate():
    # away from the pole the two routes are algebraically identical
    for alpha, p in itertools.product((0.2, 0.6, 0.9), (0.1, 0.4, 0.6)):
        gamma = decay_rate(alpha, p)
        assert abs(decay_rate_normalized(alpha, p) - (-gamma / (1 - gamma))) < 1e-12


def test_normalized_rate_finite_at_pole():
    # -gamma/(1 - gamma) tends to exactly 1 as gamma diverges
    assert abs(decay_rate_normalized(0.7, crossover_point(0.7)) - 1.0) < 1e-9


def test_normalized_rate_pole():
    with pytest.raises(ValueError):
        decay_rate_normalized(0.0, 0.0)


def test_rate_sample_links_both_views():
    gamma = decay_rate(0.6, 0.4)
    assert abs(decay_rate_normalized(0.6, 0.4) - (-gamma / (1 - gamma))) < 1e-12
    for p in (0.1, 0.5, 0.9):  # the normalized view is undefined at alpha = 0, p = 0
        assert decay_rate(0.0, p) > 0
    with pytest.raises(SingularRateError):
        decay_rate(0.7, crossover_point(0.7))


def test_hcla_zero_without_memory():
    assert hcla_measure(0.0) == 0.0
    assert hcla_closed_form(0.0) == 0.0


def test_hcla_full_memory_value():
    assert abs(hcla_measure(1.0) - 0.2786713773766758) < 1e-9


def test_hcla_numeric_matches_closed_form():
    for alpha in ALPHA_GRID:
        assert abs(hcla_measure(alpha) - hcla_closed_form(alpha)) < 1e-6


# 20 digits of the qubit normalized-rate integral from a 60-digit mpmath
# quadrature (more digits for tinier alpha), at the float nearest each alpha.
HCLA_REFERENCE = {
    1e-300: 2.5000000000000000626e-301,
    1e-16: 2.5000000000000000415e-17,
    1e-10: 2.5000000000937500911e-11,
    5e-07: 1.2500002343749869226e-7,
    1e-6 - 1e-12: 2.499998437498020652e-7,
}


def test_hcla_closed_form_small_alpha_series():
    # Below 1e-6 the antiderivative cancels (relative error -9.9 at 1e-16,
    # a math domain error below about 1e-17); the series holds to 5e-14.
    for alpha, want in HCLA_REFERENCE.items():
        got = hcla_closed_form(alpha)
        assert got == alpha / 4.0 + 3.0 * alpha * alpha / 32.0
        assert abs(got - want) <= 5e-14 * want, alpha
    assert hcla_closed_form(1e-17) == 2.5e-18
    assert hcla_closed_form(5e-324) == 0.0 and hcla_closed_form(0.0) == 0.0


# The same for the qutrit (N = 3) normalized rate, from a 660-digit mpmath
# quadrature over s = 1 - p.
HCLA_REFERENCE_N3 = {
    1e-300: 1.111111111111111139e-301,
    1e-16: 1.1111111111111111681e-17,
    1e-10: 1.1111111111913580652e-11,
    5e-07: 5.5555575617289835164e-8,
    1e-6 - 1e-12: 1.1111108024680017476e-7,
}


def test_hcla_measure_at_tiny_alpha_matches_the_references():
    # Below 1e-6 the window [p_-, 1] is a few ulps of 1 wide; integrated over
    # s = 1 - p with a cancellation-free width, the measure keeps its digits.
    for levels, table in ((2, HCLA_REFERENCE), (3, HCLA_REFERENCE_N3)):
        for alpha, want in table.items():
            got = hcla_measure(alpha, levels)
            assert abs(got - want) <= 1e-13 * want, (levels, alpha, got)
    assert hcla_measure(1e-17) == 2.5e-18
    assert hcla_measure(5e-324) == 0.0 and hcla_measure(0.0) == 0.0


def test_hcla_closed_form_keeps_the_antiderivative_from_1e_6():
    for alpha in (1e-6, 1e-4, 0.01, 0.3, 0.7, 1.0):
        s = math.sqrt(4.0 - 4.0 * alpha + 13.0 * alpha * alpha)

        def antiderivative(p):
            den = 4.0 * p + 4.0 * alpha - 2.0 * alpha * p - 3.0 * alpha * p * p
            return math.log(abs(den)) + (6.0 * alpha / s) * math.atanh((3.0 * alpha * p + alpha - 2.0) / s)

        want = antiderivative(1.0) - antiderivative(crossover_point(alpha, 2))
        assert hcla_closed_form(alpha) == want, alpha
    # The two sides of the switch meet to the antiderivative's own error there.
    assert abs(hcla_closed_form(1e-6) / hcla_closed_form(math.nextafter(1e-6, 0.0)) - 1.0) < 1e-8


def test_hcla_monotone_in_alpha():
    values = [hcla_measure(alpha) for alpha in ALPHA_GRID]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_qutrit_hcla_diverges_from_log_form():
    # the quadrature value is authoritative; the plain-log expression is a
    # reference that disagrees beyond any numerical tolerance
    numeric = hcla_measure(1.0, levels=3)
    logform = qutrit_hcla_log_form(1.0)
    assert numeric > 0 and math.isfinite(logform)
    assert abs(numeric - logform) > 1e-2


def test_qutrit_hcla_smaller_than_qubit():
    for alpha in (0.4, 0.8, 1.0):
        assert hcla_measure(alpha, levels=3) < hcla_measure(alpha)


def test_trace_distance_basics():
    plus, minus = plus_minus_states()
    assert trace_distance(plus, plus) == 0.0
    assert abs(trace_distance(plus, minus) - 1.0) < 1e-14
    with pytest.raises(ValueError):
        trace_distance(plus, np.eye(3) / 3)


def test_evolved_pair_distance_matches_closed_form():
    plus, minus = plus_minus_states()
    for alpha, p in itertools.product((0.0, 0.5, 0.9), (0.0, 0.4, 0.8, 1.0)):
        kraus = qubit_kraus(alpha, p)
        numeric = trace_distance(apply_channel(kraus, plus), apply_channel(kraus, minus))
        closed = plus_minus_trace_distance(alpha, p)
        assert abs(numeric - closed) < 1e-12
        assert abs(closed - abs(4 + 3 * alpha * p * p - 4 * p * (alpha + 1)) / 4) < 1e-15
        assert abs(closed - abs(1 - kappa(alpha, p))) < 1e-15


def test_distance_derivative_single_sign_change():
    for alpha in (0.3, 0.7, 1.0):
        point = crossover_point(alpha)
        grid = np.linspace(0.0, 1.0, 401)
        signs = np.sign([plus_minus_distance_derivative(alpha, p) for p in grid])
        flips = np.nonzero(np.diff(signs[signs != 0]))[0]
        assert len(flips) == 1
        assert plus_minus_distance_derivative(alpha, point - 1e-4) < 0
        assert plus_minus_distance_derivative(alpha, point + 1e-4) > 0


def test_blp_measure_values():
    assert blp_measure(0.0) == 0.0
    assert abs(blp_measure(0.7) - 0.175) < 1e-8
    assert abs(blp_measure(1.0) - 0.25) < 1e-8
    for alpha in ALPHA_GRID:
        assert abs(blp_measure(alpha) - alpha / 4) < 1e-8


def test_blp_random_pair_search_never_beats_antipodal_pair():
    best = blp_random_pair_search(0.8, pairs=60, grid_points=201, seed=11)
    assert best <= 0.8 / 4 + 1e-9
    assert best > 0.8 / 4 - 5e-3  # grid-resolution slack


def test_memoryless_contraction_for_random_pairs():
    rng = np.random.default_rng(42)
    grid = np.linspace(0.0, 1.0, 21)
    kraus_sets = [qubit_kraus(0.0, p) for p in grid]
    for _ in range(50):
        rho_a, rho_b = random_density(rng), random_density(rng)
        dist = [trace_distance(apply_channel(k, rho_a), apply_channel(k, rho_b)) for k in kraus_sets]
        assert all(b - a <= 1e-12 for a, b in zip(dist, dist[1:]))


def test_memory_witness_at_equal_parameters():
    assert abs(memory_witness_X(0.7, 0.3, 0.3) - 3.0) < 1e-10


def test_memory_witness_value():
    assert abs(memory_witness_X(0.7, 0.3, 1.0) - 0.9772) < 1e-4
    assert abs(memory_witness_closed(0.7, 0.3, 1.0) - 3 * 0.7 / 2.149) < 1e-12


def test_memory_witness_near_the_singular_q():
    # q is 4.7e-5 above the singular value: X grows to about 1.3e4 at p = 1,
    # where the two routes can differ by more than 1e-8 in absolute terms.
    for p in (0.7726, 0.9, 1.0):
        closed = memory_witness_closed(0.7, 0.7726, p)
        assert abs(memory_witness_X(0.7, 0.7726, p) - closed) <= 1e-8 * closed


def test_memory_witness_routes_agree():
    for alpha, p in itertools.product((0.0, 0.5, 0.8, 1.0), (0.3, 0.6, 0.9)):
        direct = memory_witness_X(alpha, 0.3, p)
        assert abs(direct - memory_witness_closed(alpha, 0.3, p)) < 1e-10
        assert abs(direct - 3 * abs(lambda_ratio(alpha, 0.3, p))) < 1e-10


def test_memory_witness_nonmonotonic_with_memory():
    grid = np.linspace(0.3, 1.0, 71)
    for alpha in (0.8, 0.9, 1.0):
        values = [memory_witness_X(alpha, 0.3, p) for p in grid]
        low = int(np.argmin(values))
        assert 0 < low < len(values) - 1
        assert values[-1] > values[low] + 1e-3  # rises again: backflow
        assert values[0] > values[low]


def test_memory_witness_monotone_without_memory():
    grid = np.linspace(0.3, 1.0, 71)
    values = [memory_witness_X(0.0, 0.3, p) for p in grid]
    assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


def test_memory_witness_cross_check_bound_is_1e_8_relative(monkeypatch):
    # The routes agree to about 5e-12 relative here (X up to 1.3e4 near the
    # singular q). A closed form off by 5e-9 relative passes the internal
    # check, one off by 5e-8 fails it.
    closed = measures.memory_witness_closed
    for q in (0.3, 0.7726):
        grid = np.linspace(q, 1.0, 8)
        monkeypatch.setattr(measures, "memory_witness_closed", lambda a, q, p: (1 + 5e-9) * closed(a, q, p))
        assert memory_witness_X(0.7, q, grid).shape == grid.shape
        monkeypatch.setattr(measures, "memory_witness_closed", lambda a, q, p: (1 + 5e-8) * closed(a, q, p))
        with pytest.raises(ArithmeticError, match="routes disagree"):
            memory_witness_X(0.7, q, grid)


def test_memory_witness_singular_q():
    with pytest.raises(SingularMapError):
        memory_witness_X(0.7, crossover_point(0.7), 0.9)


@pytest.mark.parametrize("alpha", [0.0, 1e-7, 0.7])
def test_measures_return_plain_floats(alpha):
    for value in (hcla_measure(alpha), hcla_measure(alpha, 3), hcla_closed_form(alpha), blp_measure(alpha), volume_measure(alpha)):
        assert type(value) is float
    if alpha == 0.0:
        # No branch of its own: the empty window [1, 1] (width 0 below 1e-6) gives the quadrature's +0.0.
        for value in [blp_measure(alpha)] + [hcla_measure(alpha, n) for n in (2, 3, 4, 7)]:
            assert value.hex() == "0x0.0p+0"
