"""scipy stays off the import path unless a quadrature's first pass is refused.

``kernel.hcla_measure`` and ``kernel.blp_measure`` integrate with
``kernel._quad``, quad's first 21-point Gauss-Kronrod pass in plain Python,
which every preset's quadrature accepts. Only a refused pass (blp below alpha
of about 1e-6) imports scipy, for quad to bisect; ``cold_probe``'s fresh
interpreter loads none through every preset, every quantity but ``hcla``
and ``blp``, and ``_quad`` on an empty window.

The quadrature values are checked bit for bit against two-piece (BLP) or
one-piece (HCLA) ``scipy.integrate.quad`` calls written out here with their
options, so neither the deferred import nor the first pass changes an output
bit. ``volume_measure`` is its closed form ``3 alpha/4``; the two-piece
quadrature of its integrand stays here as its oracle.
"""

import math
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate

from depolmark.kernel import (
    blp_measure,
    bloch_contraction_derivative,
    crossover_point,
    decay_rate_normalized,
    hcla_measure,
    plus_minus_distance_derivative,
    survival,
    volume_measure,
)

QUAD_OPTS = dict(epsabs=1e-9, epsrel=1e-11, limit=200)

ALPHAS = (0.05, 0.3, 0.5, 0.7, 0.9, 1.0)


def test_scipy_loads_only_when_a_quadrature_runs(cold_probe):
    _, dense, snapshots = cold_probe
    # fig1, choi-norm, memory-x and g-function are among the runs.
    assert {"fig1.csv", "choi-norm.csv", "memory-x.csv", "g-function.csv"} <= {path.name for path in dense.iterdir()}
    assert "scipy" not in snapshots["quantities"]["loaded"]
    assert "scipy" in snapshots["refused blp"]["loaded"]


def two_piece(integrand, split: float) -> float:
    head, _ = integrate.quad(integrand, 0.0, split, **QUAD_OPTS)
    tail, _ = integrate.quad(integrand, split, 1.0, **QUAD_OPTS)
    return float(head + tail)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_volume_measure_matches_two_piece_quad(alpha):
    def integrand(p):
        lam = survival(alpha, p)
        if lam == 0.0:
            return 0.0
        return max(0.0, 3.0 * (1.0 if lam > 0 else -1.0) * bloch_contraction_derivative(alpha, p))

    want = two_piece(integrand, crossover_point(alpha, 2))
    assert volume_measure(alpha) == pytest.approx(want, rel=1e-12, abs=0)


# At 1.0637648543163141e-16 the root form rounds to just above 1, and
# crossover_point clamps it: the revival window is empty, and integrated
# backwards it would give -0.0.
@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@pytest.mark.parametrize("alpha", ALPHAS + (1.0637648543163141e-16,))
def test_blp_measure_matches_two_piece_quad_bit_for_bit(alpha):
    want = two_piece(lambda p: max(0.0, plus_minus_distance_derivative(alpha, p)), crossover_point(alpha, 2))
    assert blp_measure(alpha).hex() == want.hex()


@pytest.mark.parametrize("levels", (2, 3))
@pytest.mark.parametrize("alpha", ALPHAS)
def test_hcla_measure_matches_quad_bit_for_bit(alpha, levels):
    integrand = lambda p: decay_rate_normalized(alpha, p, levels)
    want, _ = integrate.quad(integrand, crossover_point(alpha, levels), 1.0, **QUAD_OPTS)
    assert hcla_measure(alpha, levels).hex() == float(want).hex()


def hcla_by_quad(alpha: float, levels: int) -> float:
    """The HCLA quadrature as ``hcla_measure`` sets it up, run by ``scipy.integrate.quad``."""
    if alpha < 1e-6:
        c = (levels * levels - 1) / (levels * levels)
        r = math.sqrt((1.0 + alpha) ** 2 - 4.0 * c * alpha)
        width = 4.0 * alpha * (1.0 - c) / ((r + 1.0 - alpha) * ((1.0 + alpha) + r))
        return integrate.quad(lambda s: decay_rate_normalized(alpha, 1.0 - s, levels), 0.0, width, **QUAD_OPTS)[0]
    integrand = lambda p: decay_rate_normalized(alpha, p, levels)
    return integrate.quad(integrand, crossover_point(alpha, levels), 1.0, **QUAD_OPTS)[0]


# Half of the alphas lie at or above 1e-6, where every first pass is accepted
# (blp's refusals stop below about 9.3e-7, HCLA's below 1e-11). At the pinned
# alpha quad's first blp pass is refused (it reports last == 2).
@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@settings(max_examples=200)
@given(
    alpha=st.one_of(st.floats(-17.0, -6.0, exclude_max=True), st.floats(-6.0, 0.0)).map(lambda e: 10.0**e),
    levels=st.sampled_from([2, 3, 4, 7]),
)
@example(alpha=1.0792209959885488e-15, levels=2)
def test_measures_equal_quad_and_call_it_only_for_a_refused_first_pass(alpha, levels):
    blp_want = integrate.quad(
        lambda p: max(0.0, plus_minus_distance_derivative(alpha, p)), crossover_point(alpha, 2), 1.0, **QUAD_OPTS
    )[0]
    hcla_want = hcla_by_quad(alpha, levels)
    with mock.patch.object(integrate, "quad", wraps=integrate.quad) as spy:
        assert blp_measure(alpha).hex() == float(blp_want).hex()
        assert hcla_measure(alpha, levels).hex() == float(hcla_want).hex()
    if alpha >= 1e-6:
        assert spy.call_count == 0
    if alpha == 1.0792209959885488e-15:
        assert spy.call_count >= 1


def test_empty_window_loads_no_scipy_and_a_round_off_pass_keeps_quads_warning(cold_probe):
    # quad returns 0.0 for an empty window without calling the integrand. The
    # ramp's first pass trips quad's round-off flag: quad returns that pass
    # with an IntegrationWarning, which only quad itself raises.
    with pytest.warns(integrate.IntegrationWarning):
        ramp = integrate.quad(lambda x: 1e7 * (x - 0.5), 0.0, 1.0, **QUAD_OPTS)[0]
    empty = integrate.quad(lambda x: -1.0, 0.5, 0.5, **QUAD_OPTS)[0]
    window, ramped = cold_probe[2]["empty window"], cold_probe[2]["ramp"]
    assert "scipy" not in window["loaded"] and window["returned"] == (empty.hex(), [])
    assert "scipy" in ramped["loaded"] and ramped["returned"] == (ramp.hex(), ["IntegrationWarning"])
