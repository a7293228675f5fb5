"""The numpy-free scalar kernel of the family: closed forms, measures and typed errors.

Every Choi spectrum, rate and measure is a function of the survival factor
G(p) = 1 - k(p) and of lambda = G(p)/G(q). Two sources give them:
``_survival_source(alpha, N)`` returns p -> (G, G') and
``_lambda_source(alpha, q, N)`` p -> lambda. alpha, q and N are checked at
the source, once; p is checked by the public function. Each spectrum,
rate, slope and trajectory point is one formula of what a source returns.
A public function is its source, then that formula; a sweep column or a
quadrature builds the source once and evaluates the formula alone at each
point. Only ``math`` and ``sys`` are imported: no closed form needs numpy.

alpha and N are one value each; p and q may be numpy arrays (grids) in
``kappa``, ``survival``, ``lambda_ratio``, ``qudit_choi_eigenvalues`` and
both rates, each point keeping the bits of a call on it alone. On
``Fraction`` arguments the rational closed forms (all but the measures and
``crossover_point``) return exact rationals. ``_check_unit`` refuses a
value outside [0, 1] (NaN included) and ``_check_levels`` an N that is not
an integral number in [2, 10**150] (the bound keeps N^2 a finite float),
both with ``ValueError``; a singular point raises a ``SingularityError``.
"""

from __future__ import annotations

import math
import sys

__all__ = [
    "SingularityError",
    "SingularMapError",
    "SingularRateError",
    "kappa",
    "survival",
    "crossover_point",
    "lambda_ratio",
    "qudit_choi_eigenvalues",
    "decay_rate",
    "decay_rate_normalized",
    "bloch_contraction_derivative",
    "trajectory",
    "volume_measure",
    "hcla_measure",
    "hcla_closed_form",
    "qutrit_hcla_log_form",
    "plus_minus_distance_derivative",
    "blp_measure",
]


class SingularityError(ArithmeticError):
    """A computation hit the physical singularity of the channel family."""


class SingularMapError(SingularityError):
    """The dynamical map is not invertible, so the propagator is undefined."""


class SingularRateError(SingularityError):
    """The canonical decay rate diverges at the requested parameter."""


#: Zero floor of the package: a matrix whose smallest singular value is at
#: most this times its largest is singular, and a denominator at most this
#: in magnitude is zero. The two agree for G, the smallest singular value of
#: Phi(p, 0). Every raise condition and NA mask of a singular point reads it.
ZERO_FLOOR = 1e-12

#: Half-width of the guard band around the singular parameter (``_guard``):
#: sweeps emit the grid points inside it as NA, and ``dynmaps.g_function``
#: refuses them.
SINGULARITY_GUARD = 1e-6

#: Finite-difference step of ``dynmaps.g_function``; a q grid must end at or
#: below 1 minus this step.
G_FUNCTION_STEP = 1e-6


def _check_count(n, least: int, rule: str) -> int:
    """``n`` as an int: an int, a numpy integer or an integral float of at least ``least``, else ValueError with ``rule`` in its text."""
    if (hasattr(n, "__index__") or isinstance(n, float) and n.is_integer()) and n >= least:
        return int(n)
    raise ValueError(f"{rule} and integral, got {n!r}")


def _check_levels(levels) -> int:
    """``levels`` as an int N: integral and at least 2 (``_check_count``), and at most 10**150.

    The bound keeps N^2 <= 1e300 a finite float, with room for the sums of
    the closed forms (n2 + n2 alpha <= 2e300).
    """
    n = _check_count(levels, 2, "levels must be >= 2")
    if n > 10**150:
        raise ValueError(f"levels must be <= 10**150 (N^2 a finite float), got {levels!r}")
    return n


def kappa(alpha: float, p, levels: int = 2):
    """Effective depolarizing probability k(p) = p + alpha p - ((N^2 - 1)/N^2) alpha p^2 of the N-level channel.

    Raises:
        ValueError: for alpha or p outside [0, 1] (NaN included), or unless
            N is an integral number in [2, 10**150].
    """
    _check_unit("alpha", alpha)
    n2 = _check_levels(levels) ** 2
    return _check_unit("p", p) + alpha * p - (n2 - 1 + 0 * alpha) / n2 * alpha * p * p


def _survival_source(alpha: float, levels: int = 2):
    """p -> (G, G') for one alpha and one N, both checked here; p is the caller's to check.

    G = 1 - k(p) and G' = -(1 + alpha) + 2 ((N^2 - 1)/N^2) alpha p, with
    the terms free of p computed once: Python's left-to-right grouping of
    the written formulas gives them the same bits.

    Raises:
        ValueError: as ``crossover_point``.
    """
    _check_unit("alpha", alpha)
    n2 = _check_levels(levels) ** 2
    c = (n2 - 1 + 0 * alpha) / n2
    curvature, slope, intercept = c * alpha, (c + c) * alpha, -(alpha + 1)
    return lambda p: (1 - (p + alpha * p - curvature * p * p), intercept + slope * p)


def survival(alpha: float, p, levels: int = 2):
    """Survival factor G(p) = 1 - k(p), the non-identity transfer eigenvalue of Phi(p, 0); zero at the singular parameter.

    Raises:
        ValueError: for alpha or p outside [0, 1] (NaN included), or unless
            N is an integral number in [2, 10**150].
    """
    return _survival_source(alpha, levels)(_check_unit("p", p))[0]


def crossover_point(alpha: float, levels: int = 2) -> float:
    """Singular parameter p_- of the N-level family: the smaller root of k(p) = 1, in [0, 1].

    There Phi(p, 0) loses invertibility and the decay rate diverges. It is
    exactly 1.0 at alpha = 0 (no interior singularity); below alpha of about
    1e-15 the root form rounds up to 1 + 2**-52, and the value is clamped to 1.

    Raises:
        ValueError: for alpha outside [0, 1] (NaN included), or unless N
            is an integral number in [2, 10**150].
    """
    _check_unit("alpha", alpha)
    levels = _check_levels(levels)
    c = (levels * levels - 1) / (levels * levels)
    disc = (1 + alpha) ** 2 - 4 * c * alpha
    return min(2.0 / ((1 + alpha) + math.sqrt(disc)), 1.0)


def _guard(alpha: float, levels: int = 2):
    """x -> whether x (or each point of a grid) lies inside the guard band of p_- (the boundary p = 1 at alpha = 0); raises as ``crossover_point``."""
    point = crossover_point(alpha, levels)
    return lambda x: abs(x - point) < SINGULARITY_GUARD


def _all(flags) -> bool:
    """all() of one flag or of an array of flags, read with the array's own method (no numpy import)."""
    return flags if isinstance(flags, bool) else bool(flags.all())


def _check_unit(name: str, x):
    """``x`` unchanged (a float, a ``Fraction`` or an array), or ValueError naming its first point outside [0, 1] (NaN included)."""
    ok = (0.0 <= x) & (x <= 1.0)
    if not _all(ok):
        bad = x if isinstance(ok, bool) else x.reshape(-1)[ok.reshape(-1).argmin()]
        raise ValueError(f"{name} must lie in [0, 1], got {float(bad)}")
    return x


def _check_pair(q, p) -> None:
    ok = (0.0 <= q) & (q <= p) & (p <= 1.0)
    if not _all(ok):
        if not isinstance(ok, bool):  # a grid: report its first bad point
            bad = ok.reshape(-1).argmin()
            q, p = ((x + 0 * ok).reshape(-1)[bad] for x in (q, p))
        raise ValueError(f"intermediate parameters must satisfy 0 <= q <= p <= 1, got q={q}, p={p}")


def _lambda_source(alpha: float, q, levels: int = 2):
    """p -> lambda(p, q) = G(p)/G(q) for one alpha, one q (or q grid) and one N, each checked here; p is the caller's to check.

    The terms free of p, n2 + n2 alpha, (N^2 - 1) alpha and the denominator
    n2 G(q), are computed once, with the bits of the written formula. The
    denominator is the numerator's own expression at q, so lambda(q, q) is
    exactly 1.

    Raises:
        ValueError: for alpha or q outside [0, 1] (NaN included), or unless
            N is an integral number in [2, 10**150].
        SingularMapError: where |G(q)| is at most ``ZERO_FLOOR``, the
            invertibility threshold of ``matcore.inverse``.
    """
    _check_unit("alpha", alpha)
    _check_unit("q", q)
    n2 = _check_levels(levels) ** 2
    linear, quadratic = n2 + n2 * alpha, (n2 - 1) * alpha
    den = q * (linear - quadratic * q) - n2
    # |den|/n2 = |1 - k(q)| is the smallest singular value of Phi(q, 0).
    if not _all(abs(den) / n2 > ZERO_FLOOR):
        raise SingularMapError(f"propagator undefined: q = {q} sits at the map singularity")
    return lambda p: (p * (linear - quadratic * p) - n2) / den


def lambda_ratio(alpha: float, q, p, levels: int = 2):
    """Transfer eigenvalue lambda(p, q) = G(p)/G(q) of the N-level propagator; exactly 1 at p = q.

    Raises:
        ValueError: unless 0 <= q <= p <= 1, for alpha outside [0, 1] (NaN
            included), or unless N is an integral number in [2, 10**150].
        SingularMapError: where |G(q)| is at most ``ZERO_FLOOR``.
    """
    _check_pair(q, p)
    return _lambda_source(alpha, q, levels)(p)


def _choi_spectrum(lam, n2) -> tuple:
    """(top, rest) = (1/N^2 + (1 - 1/N^2) lam, (1 - lam)/N^2) from lam = lambda(p, q) and n2 = N^2, 1/N^2 in lam's type."""
    inv = (0 * lam + 1) / n2
    return inv + (1 - inv) * lam, inv - lam / n2


def qudit_choi_eigenvalues(alpha: float, q, p, levels: int) -> tuple:
    """Choi spectrum (top, rest) of the N-level propagator; raises as ``lambda_ratio``.

    With l = ``lambda_ratio``, ``top`` = 1/N^2 + (1 - 1/N^2) l has
    multiplicity 1 and ``rest`` = (1 - l)/N^2 multiplicity N^2 - 1 (for the
    qubit, Lambda_I and the threefold Lambda_XYZ). A negative value flags an
    NCP propagator.
    """
    return _choi_spectrum(lambda_ratio(alpha, q, p, levels), _check_levels(levels) ** 2)


def _rate(g, dg):
    """gamma = -G'/G from (G, G')."""
    return -dg / g


def _rate_normalized(g, dg):
    """G'/(G + G') from (G, G')."""
    return dg / (g + dg)


def decay_rate(alpha: float, p, levels: int = 2):
    """Canonical decay rate gamma(p) = -G'(p)/G(p); it changes sign across the singular parameter.

    Raises:
        ValueError: as ``survival``.
        SingularRateError: where |G| is at most ``ZERO_FLOOR`` (at any point
            of a grid).
    """
    g, dg = _survival_source(alpha, levels)(_check_unit("p", p))
    if not _all(abs(g) > ZERO_FLOOR):
        raise SingularRateError(f"decay rate diverges at p = {p} (survival factor vanished)")
    return _rate(g, dg)


def decay_rate_normalized(alpha: float, p, levels: int = 2):
    """Normalized rate -gamma/(1 - gamma) = G'/(G + G'): finite across the singular parameter, where it is exactly 1.

    Raises:
        ValueError: as ``survival``, or where |G + G'| is at most
            ``ZERO_FLOOR`` at any point (alpha + p below about 1e-12).
    """
    g, dg = _survival_source(alpha, levels)(_check_unit("p", p))
    if not _all(abs(g + dg) > ZERO_FLOOR):
        raise ValueError(f"normalized rate undefined at p = {p}")
    return _rate_normalized(g, dg)


def bloch_contraction_derivative(alpha: float, p: float) -> float:
    """d lambda / dp = (3/2) alpha p - alpha - 1 of the Bloch contraction lambda = survival(alpha, p), unchecked.

    The kernel's one public function that checks neither argument: it is
    the slope of ``trajectory``'s point formula, which a ``trajectory``
    column evaluates at every grid point. Its G' has other last bits than
    ``_survival_source``'s, and ``fig9`` prints them.
    """
    return (0 * alpha + 3) / 2 * alpha * p - alpha - 1


def _trajectory_point(alpha: float, p: float, lam) -> tuple:
    """``trajectory``'s tuple at p from lam = G(p)."""
    inside = 1 + lam >= abs(lam + lam) and 1 - lam >= 0
    if abs(lam) <= ZERO_FLOOR:
        return lam, math.nan, inside, False
    a = bloch_contraction_derivative(alpha, p) / lam
    return lam, a, inside, a <= 0


def trajectory(alpha: float, p: float) -> tuple:
    """Transfer-eigenvalue trajectory of the qubit map at one p: (lam, a, inside_tetrahedron, cp_divisible).

    ``lam`` = G(p) is each of the three equal transfer eigenvalues, and
    ``a`` = lambda'/lambda each entry of the A vector, NaN where |lam| <=
    ``ZERO_FLOOR``. With equal entries each CP-divisibility inequality
    A.(-1, 1, 1) <= 0 and its permutations is exactly ``a <= 0``, so that is
    ``cp_divisible`` (False at NaN); no tolerance is needed, as |a| >= 1/2
    on the whole box. ``inside_tetrahedron`` is the exact test of the CP
    unital Pauli maps, 1 + lam >= |2 lam| and 1 - lam >= 0.

    Raises:
        ValueError: for alpha or p outside [0, 1] (NaN included).
    """
    return _trajectory_point(alpha, p, _survival_source(alpha)(_check_unit("grid values", p))[0])


def volume_measure(alpha: float) -> float:
    """Volume-revival measure, the integral of max(0, d||M||_1/dp) over [0, 1], in its closed form 3 alpha/4.

    ||M||_1 = 1 + 3 |lambda| of the affine Bloch map grows only past p_-,
    from 1 to 1 + 3 |lambda(1)| = 1 + 3 alpha/4.

    Raises:
        ValueError: for alpha outside [0, 1] (NaN included).
    """
    return 0.75 * float(_check_unit("alpha", alpha))


_QUAD_OPTS = dict(epsabs=1e-9, epsrel=1e-11, limit=200)

# QUADPACK's dqk21 rule: Kronrod abscissae (odd indices are the 10-point
# Gauss nodes, the last is the centre), Kronrod weights, Gauss weights.
_XGK = (
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452, 0.930157491355708226001207180059508,
    0.865063366688984510732096688423493, 0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784, 0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
)
_WGK = (
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390, 0.054755896574351996031381300244580,
    0.075039674810919952767043140916190, 0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077958109831074, 0.134709217311473325928054001771707, 0.142775938577060080797094273138717,
    0.147739104901338491374841515972068, 0.149445554002916905664936468389821,
)
_WG = (
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697, 0.219086362515982043995534934228163,
    0.269266719309996355091226921569469, 0.295524224714752870173892994651338,
)
_EPS, _TINY = sys.float_info.epsilon, sys.float_info.min


def _quad(integrand, lower: float, upper: float) -> float:
    """Integral over [lower, upper], bit-equal to ``scipy.integrate.quad`` with ``_QUAD_OPTS``.

    quad first makes one 21-point Gauss-Kronrod pass (dqk21) over the whole
    window and returns it when its error test passes. That pass runs here in
    plain Python, in QUADPACK's summation order, so an accepted pass gives
    quad's bits without scipy. A refused pass or reversed bounds import
    scipy and call quad. An empty window gives 0.0, as quad does.
    """
    if lower < upper:
        centre, half = 0.5 * (lower + upper), 0.5 * (upper - lower)
        fc = integrand(centre)
        resg, resk = 0.0, _WGK[10] * fc
        resabs = abs(resk)
        values = [None] * 10
        for j in (1, 3, 5, 7, 9, 0, 2, 4, 6, 8):  # the Gauss nodes first, then the Kronrod-only ones
            x = half * _XGK[j]
            values[j] = f1, f2 = integrand(centre - x), integrand(centre + x)
            if j % 2:
                resg += _WG[j // 2] * (f1 + f2)
            resk += _WGK[j] * (f1 + f2)
            resabs += _WGK[j] * (abs(f1) + abs(f2))
        reskh = resk * 0.5
        resasc = _WGK[10] * abs(fc - reskh)
        for j in range(10):
            resasc += _WGK[j] * (abs(values[j][0] - reskh) + abs(values[j][1] - reskh))
        result, resabs, resasc = resk * half, resabs * half, resasc * half
        abserr = abs((resk - resg) * half)
        if resasc != 0.0 and abserr != 0.0:
            abserr = resasc * min(1.0, (200.0 * abserr / resasc) ** 1.5)
        if resabs > _TINY / (50.0 * _EPS):
            abserr = max(50.0 * _EPS * resabs, abserr)
        # dqagse's test. Its round-off flag needs abserr > errbnd, so a flagged
        # pass is never accepted here: quad returns it with its IntegrationWarning.
        errbnd = max(_QUAD_OPTS["epsabs"], _QUAD_OPTS["epsrel"] * abs(result))
        if abserr <= errbnd and abserr != resasc or abserr == 0.0:
            return result
    elif lower == upper:
        return 0.0
    from scipy import integrate  # loaded only for a refused pass: quad goes on to bisect
    return integrate.quad(integrand, lower, upper, **_QUAD_OPTS)[0]


def hcla_measure(alpha: float, levels: int = 2) -> float:
    """Negative-decay-rate measure: the integral of ``decay_rate_normalized`` over [p_-, 1], +0.0 at alpha = 0.

    Below alpha = 1e-6 the window is a few ulps of 1 wide, so bounds on p
    would round: the integral runs over s = 1 - p on [0, 1 - p_-], that
    width written without cancellation.

    From 1e-6 up, the error is that of the rounded p_-: a few 2**-53
    absolute at N = 2 and 3, growing roughly like N**2, and the relative
    error peaks near alpha = 1e-6, where the window is about alpha/N**2
    wide. Worst relative error against 50-digit mpmath over more than
    1,000 alphas in [1e-6, 1], and over those from 0.1 up:

        N       alpha >= 1e-6        alpha >= 0.1
        2       8.7e-10              6.6e-15
        3       1.9e-9               1.6e-14
        64      6.6e-7               7.7e-12
        1000    1.9e-4               1.7e-9
        10**5   1.2 (no digit)       1.6e-5

    Raises:
        ValueError: for alpha outside [0, 1] (NaN included), or unless N
            is an integral number in [2, 10**150].
    """
    lower, pair = crossover_point(alpha, levels), _survival_source(alpha, levels)
    if alpha < 1e-6:
        n2 = _check_levels(levels) ** 2
        c = (n2 - 1) / n2
        r = math.sqrt((1.0 + alpha) ** 2 - 4.0 * c * alpha)
        width = 4.0 * alpha * (1.0 - c) / ((r + 1.0 - alpha) * ((1.0 + alpha) + r))
        return _quad(lambda s: _rate_normalized(*pair(1.0 - s)), 0.0, width)
    return _quad(lambda p: _rate_normalized(*pair(p)), lower, 1.0)


def hcla_closed_form(alpha: float) -> float:
    """Qubit ``hcla_measure`` in closed form: its antiderivative at 1 minus at p_-.

    Below alpha = 1e-6 the two values cancel catastrophically, so the series
    alpha/4 + 3 alpha^2/32 is returned there: within 5e-14 relative of a
    60-digit quadrature, and exactly 0 at alpha = 0.

    Raises:
        ValueError: for alpha outside [0, 1] (NaN included).
    """
    lower = crossover_point(alpha, 2)
    if alpha < 1e-6:
        return alpha / 4.0 + 3.0 * alpha * alpha / 32.0
    s = math.sqrt(4.0 - 4.0 * alpha + 13.0 * alpha * alpha)

    def antiderivative(p: float) -> float:
        den = 4.0 * p + 4.0 * alpha - 2.0 * alpha * p - 3.0 * alpha * p * p
        return math.log(abs(den)) + (6.0 * alpha / s) * math.atanh((3.0 * alpha * p + alpha - 2.0) / s)

    return antiderivative(1.0) - antiderivative(lower)


def qutrit_hcla_log_form(alpha: float) -> float:
    """Log-form reference value ln(p) + ln(9 + 9 alpha - 8 alpha p) taken from the qutrit p_- to 1; 0 at alpha = 0.

    It is not an antiderivative of the qutrit normalized rate (its
    derivative has the denominator 9 p + 9 alpha p - 8 alpha p^2, not
    9 p + 9 alpha - 7 alpha p - 8 alpha p^2), so it differs from
    ``hcla_measure(alpha, 3)``, the authoritative value.

    Raises:
        ValueError: for alpha outside [0, 1] (NaN included).
    """
    lower = crossover_point(alpha, 3)  # raises ValueError for alpha outside [0, 1]

    def log_form(p: float) -> float:
        return math.log(p) + math.log(abs(9.0 + 9.0 * alpha - 8.0 * p * alpha))

    return log_form(1.0) - log_form(lower)


def _distance_slope(g, dg) -> float:
    """dD/dp of D = |G| from (G, G'): 0 at the kink G = 0."""
    return 0.0 if g == 0.0 else math.copysign(1.0, g) * dg


def plus_minus_distance_derivative(alpha: float, p: float) -> float:
    """dD/dp of the |+>/|-> trace distance D(p) = |G(p)| at one p, 0 at the kink G = 0; raises as ``survival``."""
    return _distance_slope(*_survival_source(alpha)(_check_unit("p", p)))


def blp_measure(alpha: float) -> float:
    """Distinguishability-revival measure of the |+>/|-> pair: the integral of max(0, dD/dp) over [0, 1].

    D = |G| only contracts up to p_-, so the quadrature covers [p_-, 1]
    alone, where the exact value is alpha/4; it is +0.0 at alpha = 0.
    Below alpha of about 1e-12 the sign of G rounds inside the window, and
    the value strays from alpha/4: by 0.8 % at 1e-13, to 0 at 1e-16.

    Raises:
        ValueError: for alpha outside [0, 1] (NaN included).
    """
    lower, pair = crossover_point(alpha, 2), _survival_source(alpha)
    return _quad(lambda p: max(0.0, _distance_slope(*pair(p))), lower, 1.0)
