"""The kernel's closed forms follow their argument's type, and each point reads its source once.

On ``Fraction`` arguments ``kappa``, ``survival``, ``qudit_choi_eigenvalues``,
both values (G, G') of the ``_survival_source`` closure, both decay rates,
``bloch_contraction_derivative`` and ``trajectory`` return the exact
rational: the formula of each docstring, evaluated here in ``Fraction``.
On floats each keeps the bits of its float-literal form (``1.0 - k``,
``1 / n2``, ``2.0 * c``, ``1.5 * alpha``), kept below as the oracle, so no
printed digit can move. The last tests count the evaluations of the
(G, G') source behind a ``decay-rate`` sweep and the two quadrature
measures, and the parameter checks behind a sweep: one set per column,
whatever the grid's length.
"""

import math
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from depolmark import cli, kernel
from depolmark.kernel import SingularMapError, SingularRateError

# (alpha, q, p): off the singular point, with q <= p, and one point at alpha = 0.
POINTS = [
    (F(7, 10), F(3, 10), F(1, 2)),
    (F(1, 3), F(1, 7), F(5, 6)),
    (F(1), F(0), F(1, 9)),
    (F(0), F(1, 4), F(3, 4)),
]


def exact(alpha, p, levels: int) -> tuple:
    """(k, G, G') of the N-level family at p, from the formulas alone."""
    c = F(levels * levels - 1, levels * levels)
    k = p + alpha * p - c * alpha * p * p
    return k, 1 - k, -(1 + alpha) + 2 * c * alpha * p


def is_exact(value, expected) -> bool:
    return type(value) is F and value == expected


@pytest.mark.parametrize("levels", [2, 3, 8])
@pytest.mark.parametrize("alpha, q, p", POINTS)
def test_closed_forms_are_exact_on_fractions(alpha, q, p, levels):
    k, g, dg = exact(alpha, p, levels)
    lam = g / exact(alpha, q, levels)[1]
    top, rest = kernel.qudit_choi_eigenvalues(alpha, q, p, levels)
    assert is_exact(kernel.kappa(alpha, p, levels), k)
    assert is_exact(kernel.survival(alpha, p, levels), g)
    got_g, got_dg = kernel._survival_source(alpha, levels)(p)
    assert is_exact(got_g, g) and is_exact(got_dg, dg)
    assert is_exact(kernel.decay_rate(alpha, p, levels), -dg / g)
    assert is_exact(kernel.decay_rate_normalized(alpha, p, levels), dg / (g + dg))
    assert is_exact(top, F(1, levels**2) + (1 - F(1, levels**2)) * lam)
    assert is_exact(rest, (1 - lam) / levels**2)


@pytest.mark.parametrize("alpha, q, p", POINTS)
def test_qubit_trajectory_is_exact_on_fractions(alpha, q, p):
    lam = exact(alpha, p, 2)[1]
    slope = F(3, 2) * alpha * p - alpha - 1
    assert is_exact(kernel.bloch_contraction_derivative(alpha, p), slope)
    got_lam, got_a, inside, divisible = kernel.trajectory(alpha, p)
    assert is_exact(got_lam, lam) and is_exact(got_a, slope / lam)
    assert inside is (1 + lam >= abs(2 * lam) and 1 - lam >= 0)
    assert divisible is (slope / lam <= 0)


# ---------------------------------------------------------------- float bits

unit = st.floats(0.0, 1.0)
levels = st.sampled_from([2, 3, 4, 5, 8])


def old_kappa(alpha, p, n):
    n2 = n * n
    return p + alpha * p - (n2 - 1) / n2 * alpha * p * p


def old_derivative(alpha, p, n):
    c = (n * n - 1) / (n * n)
    return -(1.0 + alpha) + 2.0 * c * alpha * p


def same_bits(a, b) -> bool:
    return a.hex() == b.hex()


@given(alpha=unit, p=unit, q=unit, n=levels)
@example(alpha=0.7, p=0.5, q=0.3, n=2)  # the benchmarked point
@example(alpha=5e-324, p=1.0, q=0.0, n=3)  # a subnormal alpha
@example(alpha=1.0, p=2 / 3, q=0.0, n=2)  # next to the qubit's singular point
def test_float_results_keep_the_float_literal_bits(alpha, p, q, n):
    k, g, dg = old_kappa(alpha, p, n), 1.0 - old_kappa(alpha, p, n), old_derivative(alpha, p, n)
    assert same_bits(kernel.kappa(alpha, p, n), k)
    assert same_bits(kernel.survival(alpha, p, n), g)
    got_g, got_dg = kernel._survival_source(alpha, n)(p)
    assert same_bits(got_g, g) and same_bits(got_dg, dg)
    try:
        assert same_bits(kernel.decay_rate(alpha, p, n), -dg / g)
    except SingularRateError:
        assert abs(g) <= kernel.ZERO_FLOOR
    if abs(g + dg) > kernel.ZERO_FLOOR:
        assert same_bits(kernel.decay_rate_normalized(alpha, p, n), dg / (g + dg))
    q, p = sorted((q, p))
    try:
        lam = kernel.lambda_ratio(alpha, q, p, n)
    except SingularMapError:
        return
    n2 = n * n
    top, rest = kernel.qudit_choi_eigenvalues(alpha, q, p, n)
    assert same_bits(top, 1 / n2 + (1 - 1 / n2) * lam) and same_bits(rest, 1 / n2 - lam / n2)


@given(alpha=unit, p=unit)
@example(alpha=5e-324, p=5e-324)
def test_float_trajectory_keeps_the_float_literal_bits(alpha, p):
    lam = 1.0 - old_kappa(alpha, p, 2)
    slope = 1.5 * alpha * p - alpha - 1.0
    assert same_bits(kernel.bloch_contraction_derivative(alpha, p), slope)
    got_lam, a, inside, divisible = kernel.trajectory(alpha, p)
    assert same_bits(got_lam, lam)
    assert inside is (1.0 + lam >= abs(lam + lam) and 1.0 - lam >= 0.0)
    if abs(lam) <= kernel.ZERO_FLOOR:
        assert math.isnan(a) and divisible is False
    else:
        assert same_bits(a, slope / lam) and divisible is (slope / lam <= 0)


# ---------------------------------------------------------------- one evaluation


def test_survival_pair_is_evaluated_once_per_use(monkeypatch):
    # A decay-rate point: one (G, G') evaluation feeds both NA masks and
    # both rates. A quadrature node: one, and an accepted first pass has 21.
    calls, source = [], kernel._survival_source

    def counted(alpha, *levels):
        pair = source(alpha, *levels)

        def evaluate(p):
            calls.append((alpha, p))
            return pair(p)

        return evaluate

    monkeypatch.setattr(kernel, "_survival_source", counted)
    monkeypatch.setattr(cli, "_survival_source", counted)
    spec = cli.SweepSpec("decay-rate", alpha=(0.0, 0.7), steps=201)
    cli.run_sweep(spec)
    assert Counter(calls) == Counter((alpha, p) for alpha in spec.alpha for p in spec.grid())
    for measure in (kernel.hcla_measure, kernel.blp_measure):
        calls.clear()
        measure(0.7)
        assert len(calls) == 21


@pytest.mark.parametrize("quantity", ["choi-eigs", "decay-rate", "trajectory"])
def test_parameters_are_checked_once_per_column(quantity, monkeypatch):
    # alpha, q and N are checked where a column builds its source, never at
    # a grid point, so a long grid makes no more checks than a short one.
    counts = Counter()
    for name in ("_check_unit", "_check_count"):
        check = getattr(kernel, name)
        monkeypatch.setattr(kernel, name, lambda *args, check=check, name=name: counts.update([name]) or check(*args))

    def checks(steps: int) -> Counter:
        spec = cli.SweepSpec(quantity, alpha=(0.0, 0.7), steps=steps)
        counts.clear()
        cli.run_sweep(spec)
        return Counter(counts)

    short = checks(11)
    assert checks(2001) == short
    assert short["_check_unit"] > 0 and short["_check_count"] > 0
