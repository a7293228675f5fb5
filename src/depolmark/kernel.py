"""The scalar kernel of the family: survival factor, singular point, closed forms, measures, typed errors.

Everything here is plain arithmetic on the standard library (``math`` and
``sys``). This is the one rule of where numpy loads: ``kernel`` never
imports it, and a command loads it only when it computes a dense column.
So the command line validates a sweep, checks a pinned q against the
singular value and computes every closed-form column (the Choi spectra,
both decay rates and the tetrahedron trajectory) and both scalar measures
(HCLA and BLP) without numpy. ``kappa``, ``survival``, ``_guard``,
``lambda_ratio``, ``qudit_choi_eigenvalues``, ``decay_rate`` and
``decay_rate_normalized`` are written with operators alone (``+ - * /``
and ``abs``) and take numpy arrays as well as floats; IEEE arithmetic
gives the same bits either way, so a column mapped point by point over
Python floats equals the one computed on the whole array. ``trajectory``
takes one ``p``, and each measure returns one float per alpha. The closed
forms also follow their argument's type: their constants are integers or
come from ``0 * x``, so on ``fractions.Fraction`` arguments ``kappa``,
``survival``, ``lambda_ratio``, ``qudit_choi_eigenvalues``, both rates,
``bloch_contraction_derivative`` and ``trajectory`` return the exact
rational, and on floats the bits of the float constants. Where a function
runs once per point of a column, a float alpha takes the float coefficient
(N^2 - 1)/N^2 directly: a mixed int and float operation takes CPython's
slower path.
``_check_unit`` is the one check of the parameter box [0, 1], with one
``ValueError`` text for every closed form built on it, and ``_check_levels``
is the package's one check of a level count N: an integral number (an int,
a numpy integer or a float such as 3.0) of at least 2, refused with one
``ValueError`` text. Every closed form that takes N reads it: ``kappa``
and ``survival``, which both rates call before they use N, screen it as
``survival`` screens alpha, and ``crossover_point``, ``lambda_ratio`` (so
``qudit_choi_eigenvalues``) and ``hcla_measure`` call it. ``channels``,
``dynmaps``, ``geometry`` and ``dense`` call it too, and
``dynmaps._check_system`` checks a copy count n with the same
``_check_count``.

The two quadrature measures, ``hcla_measure`` and ``blp_measure``, run
``_quad``: quad's first 21-point Gauss-Kronrod pass in plain Python,
bit-equal to ``scipy.integrate.quad`` with absolute tolerance 1e-9. No
preset loads scipy; only a refused first pass (below alpha of about
1e-6) imports it, for quad to bisect.

The other modules import these names from here; ``matcore`` and
``dynmaps`` keep the errors and constants they import importable under
their old homes.
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


#: Zero floor of the package. A matrix whose smallest singular value is at
#: most this times its largest is not invertible, and a denominator of at
#: most this magnitude counts as zero; the two agree for the survival factor
#: G, which is the smallest singular value of Phi(p, 0). Every raise
#: condition and NA mask of a singular point reads this one value, so the
#: map singularity surfaces as a typed error, not as a garbage inverse.
ZERO_FLOOR = 1e-12

#: Width of the guard band around the singular parameter value (see
#: :func:`_guard`); sweeps treat grid points closer than this to the
#: singularity as undefined samples, and ``dynmaps.g_function`` rejects them.
SINGULARITY_GUARD = 1e-6

#: Finite-difference step of ``dynmaps.g_function``; a q grid must end at or
#: below 1 minus this step.
G_FUNCTION_STEP = 1e-6


def _check_count(n, least: int, rule: str) -> int:
    """``n`` as an int, checked to be integral (an int, a numpy integer or an integral float) and at least ``least``.

    ``rule`` is the error text; the refusal adds that ``n`` must be integral
    and names the value given.
    """
    if (hasattr(n, "__index__") or isinstance(n, float) and n.is_integer()) and n >= least:
        return int(n)
    raise ValueError(f"{rule} and integral, got {n!r}")


def _check_levels(levels) -> int:
    """``levels`` as an int, checked to be an integral N >= 2: the package's one check of a level count.

    An int of at least 2 comes back at once: the closed forms call this once
    per point of a column.
    """
    return levels if levels.__class__ is int and levels >= 2 else _check_count(levels, 2, "levels must be >= 2")


def kappa(alpha: float, p, levels: int = 2):
    """Effective depolarizing probability k(p) of the N-level channel.

    k(p) = p + alpha p - ((N^2 - 1)/N^2) alpha p^2. For alpha = 0 this is
    just p; at p = 1 it equals 1 + alpha/N^2, i.e. the perturbation drives
    the channel past the maximal-depolarizing point k = 1.

    Raises:
        ValueError: unless N is an integral number of at least 2.
    """
    # The check is _check_levels', behind a type screen as in survival. The
    # coefficient takes alpha's type: a float alpha gets the float
    # (N^2 - 1)/N^2, any other (a Fraction) the exact one through 0 * alpha.
    n2 = levels * levels if levels.__class__ is int and levels >= 2 else _check_levels(levels) ** 2
    c = (n2 - 1) / n2 if alpha.__class__ is float else (n2 - 1 + 0 * alpha) / n2
    return p + alpha * p - c * alpha * p * p


def survival(alpha: float, p, levels: int = 2):
    """Survival factor G(p) = 1 - k(p): the shared non-identity transfer eigenvalue of Phi(p, 0).

    For the qubit it is the Bloch contraction factor. Every Choi spectrum,
    rate and measure of the family is a function of G; it vanishes at the
    singular parameter value.

    Raises:
        ValueError: for alpha outside [0, 1] (NaN included), or unless N
            is an integral number of at least 2. The rates and the
            trajectory inherit these checks.
    """
    # The check is _check_unit's; a chained comparison screens first, as the
    # per-point columns and the quadratures call this thousands of times. For
    # the same reason kappa's lines are repeated here, not called: the call
    # made a float call about 15 % slower.
    if not 0.0 <= alpha <= 1.0:
        _check_unit("alpha", alpha)
    n2 = levels * levels if levels.__class__ is int and levels >= 2 else _check_levels(levels) ** 2
    c = (n2 - 1) / n2 if alpha.__class__ is float else (n2 - 1 + 0 * alpha) / n2
    return 1 - (p + alpha * p - c * alpha * p * p)


def crossover_point(alpha: float, levels: int = 2) -> float:
    """Singular parameter value of the N-level family (the smaller root), in [0, 1].

    Solves ((N^2-1)/N^2) alpha p^2 - (1 + alpha) p + 1 = 0, i.e. k(p) = 1,
    using the cancellation-free form 2 / ((1 + alpha) + sqrt(disc)). At this
    point the one-step map loses invertibility, the propagator eigenvalues
    cross, and the decay rate diverges.

    At alpha = 0 the form gives exactly 1.0: the root degenerates to the
    boundary p = 1 (and the companion root escapes to infinity), so the
    family has no interior singularity. Below about alpha = 1e-15 the form
    can round up to 1 + 2**-52; the value is clamped to 1, so it never
    leaves the parameter range.

    Raises:
        ValueError: for alpha outside [0, 1] (NaN included), or unless N
            is an integral number of at least 2.
    """
    _check_unit("alpha", alpha)
    _check_levels(levels)
    c = (levels * levels - 1) / (levels * levels)
    disc = (1 + alpha) ** 2 - 4 * c * alpha
    return min(2.0 / ((1 + alpha) + math.sqrt(disc)), 1.0)


def _guard(x, alpha: float, levels: int = 2):
    """Whether x (or each point of a grid) lies inside the guard band of the singular parameter.

    At alpha = 0 that parameter is the boundary p = 1.
    """
    return abs(x - crossover_point(alpha, levels)) < SINGULARITY_GUARD


def _all(flags) -> bool:
    """all() of one flag or of an array of flags, read with the array's own method (no numpy import)."""
    return flags if isinstance(flags, bool) else bool(flags.all())


def _check_unit(name: str, x):
    """``x`` unchanged, checked to lie in [0, 1] at every point of a grid (NaN fails).

    Written with operators and the array's own methods, so it takes a float,
    a ``Fraction`` or an array without importing numpy; the error names the
    first point outside.
    """
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


def lambda_ratio(alpha: float, q, p, levels: int = 2):
    """Closed-form transfer eigenvalue lambda(p, q) = G(p)/G(q) of the N-level propagator.

    With n2 = N^2 both survival factors G = 1 - k are written over the
    common denominator n2,

        lambda = (p (n2 + n2 alpha - (n2 - 1) alpha p) - n2)
                 / (n2 q + n2 alpha q - (n2 - 1) alpha q^2 - n2);

    it is 1 - p at q = alpha = 0 for the qubit and exactly 1 at p = q.
    Takes grids too.

    Raises:
        ValueError: for alpha outside [0, 1] (NaN included), unless
            0 <= q <= p <= 1, or unless N is an integral number of at
            least 2.
        SingularMapError: when the denominator vanishes (q at the singular
            parameter), matching the invertibility threshold of
            :func:`depolmark.matcore.inverse`.
    """
    _check_unit("alpha", alpha)
    _check_pair(q, p)
    n2 = _check_levels(levels) ** 2
    num = p * (n2 + n2 * alpha - (n2 - 1) * alpha * p) - n2
    den = n2 * q + n2 * alpha * q - (n2 - 1) * alpha * q * q - n2
    # |den|/n2 = |1 - k(q)| is the smallest singular value of Phi(q, 0).
    if not _all(abs(den) / n2 > ZERO_FLOOR):
        raise SingularMapError(f"propagator undefined: q = {q} sits at the map singularity")
    return num / den


def qudit_choi_eigenvalues(alpha: float, q, p, levels: int) -> tuple:
    """Choi spectrum of the N-level propagator as (top, rest).

    ``top`` = 1/N^2 + (1 - 1/N^2) l has multiplicity 1 and ``rest`` =
    1/N^2 - l/N^2 has multiplicity N^2 - 1, with l = :func:`lambda_ratio`.
    For the qubit they are Lambda_I and the threefold Lambda_{X,Y,Z}. The
    spectrum sums to 1 (trace preservation), and a negative ``rest`` or
    ``top`` flags an NCP propagator. Takes grids too.
    """
    lam, n2 = lambda_ratio(alpha, q, p, levels), levels * levels
    inv = 1 / n2 if lam.__class__ is float else (0 * lam + 1) / n2  # 1/N^2 in lam's type, as in kappa
    return (inv + (1 - inv) * lam, inv - lam / n2)


# Apart from bloch_contraction_derivative: same G', other last bits; this one feeds the rates.
# The coefficient follows alpha's type as in kappa; c + c is 2c exactly.
def _survival_derivative(alpha: float, p, levels: int):
    n2 = levels * levels
    c = (n2 - 1) / n2 if alpha.__class__ is float else (n2 - 1 + 0 * alpha) / n2
    return -(alpha + 1) + (c + c) * alpha * p


def decay_rate(alpha: float, p, levels: int = 2):
    """Canonical decay rate gamma(p) = -G'(p)/G(p) with G = 1 - k(p).

    For the qubit this is (4 + (4 - 6 p) alpha) / (4 + 3 alpha p^2
    - 4 p (1 + alpha)); at alpha = 0 it reduces to 1/(1 - p). The rate is
    positive while the channel keeps contracting and flips sign across the
    singular parameter value. A grid of p gives an array.

    Raises:
        ValueError: for alpha outside [0, 1] (NaN included).
        SingularRateError: where |G| is at most ``ZERO_FLOOR`` (at any point
            of a grid) and the rate diverges.
    """
    g = survival(alpha, p, levels)
    if not _all(abs(g) > ZERO_FLOOR):
        raise SingularRateError(f"decay rate diverges at p = {p} (survival factor vanished)")
    return -_survival_derivative(alpha, p, levels) / g


def decay_rate_normalized(alpha: float, p, levels: int = 2):
    """Normalized rate gamma~ = -gamma/(1 - gamma), simplified to G'/(G + G').

    The algebraic simplification cancels the pole of gamma, so the value is
    finite across the singular parameter (where it equals exactly 1). For
    the qubit it reads (4 + 4 alpha - 6 alpha p) / (4 p + 4 alpha
    - 2 alpha p - 3 alpha p^2), and 1/p at alpha = 0. A grid of p gives an
    array.

    Raises:
        ValueError: for alpha outside [0, 1] (NaN included), or if the
            simplified denominator G + G' (about -(alpha + p) near p = 0) is
            at most ``ZERO_FLOOR`` at any point: at alpha = p = 0, and
            wherever alpha + p is below about 1e-12.
    """
    g, num = survival(alpha, p, levels), _survival_derivative(alpha, p, levels)  # survival first: it checks N
    den = g + num
    if not _all(abs(den) > ZERO_FLOOR):
        raise ValueError(f"normalized rate undefined at p = {p}")
    return num / den


def bloch_contraction_derivative(alpha: float, p: float) -> float:
    """d lambda / dp = (3/2) alpha p - alpha - 1 of the Bloch contraction lambda = survival(alpha, p)."""
    # Apart from _survival_derivative: same G', other last bits; this one feeds trajectories.
    return (0 * alpha + 3) / 2 * alpha * p - alpha - 1


def trajectory(alpha: float, p: float) -> tuple:
    """The transfer-eigenvalue trajectory at one p, as (lam, a, inside_tetrahedron, cp_divisible).

    The three transfer eigenvalues of the qubit map are equal, so ``lam``
    is the one value G(p). ``a`` is the log-derivative lambda'/lambda
    shared by all three axes of the A vector, NaN where |lambda| <=
    ``ZERO_FLOOR``. CP divisibility needs the three inequalities
    A.(-1, 1, 1), A.(1, -1, 1) and A.(1, 1, -1) to be <= 0; with equal
    entries each of them is exactly ``a`` in floating point, so
    ``cp_divisible`` is ``a <= 0``, and False where ``a`` is NaN (the
    propagator through that point is undefined). No tolerance is needed:
    on the whole box lambda' <= alpha/2 - 1 <= -1/2 and |lambda| <= 1, so
    |a| >= 1/2. ``inside_tetrahedron`` is the exact test
    1 + lambda >= |2 lambda| and 1 - lambda >= 0 of the tetrahedron
    1 +- lambda_3 >= |lambda_1 +- lambda_2| of CP unital Pauli maps.

    Raises:
        ValueError: for alpha or p outside [0, 1] (NaN included).
    """
    _check_unit("grid values", p)
    lam = survival(alpha, p)
    inside = 1 + lam >= abs(lam + lam) and 1 - lam >= 0
    if abs(lam) <= ZERO_FLOOR:
        return lam, math.nan, inside, False
    a = bloch_contraction_derivative(alpha, p) / lam
    return lam, a, inside, a <= 0


def volume_measure(alpha: float) -> float:
    """Volume-revival measure: integral of max(0, d||M||_1/dp) over [0, 1].

    ||M||_1 = 1 + 3 |lambda| of the affine Bloch map grows only past the
    singular parameter value, so the integral is 3 (|lambda(1)| - 0) =
    (3/4) alpha, returned in that closed form. The alpha = 0 channel
    yields exactly 0.

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
    """Adaptive quadrature over [lower, upper], bit-equal to ``scipy.integrate.quad`` with ``_QUAD_OPTS``.

    quad's dqagse starts with one 21-point Gauss-Kronrod pass (dqk21) over
    the whole window and returns it when its error test passes. That pass
    runs here in plain Python, in QUADPACK's summation order, so an
    accepted pass gives quad's bits without loading scipy: every preset
    takes this route. Only a refused pass (the measures refuse it below
    alpha of about 1e-6) or reversed bounds import scipy and call quad,
    which then bisects. An empty window gives 0.0, as quad's shortcut does.
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
    """Negative-decay-rate measure: integral of gamma~ over [p_-, 1].

    ``p_-`` is the singular parameter value of the family
    (:func:`depolmark.kernel.crossover_point`); beyond it the canonical
    rate is negative and the normalized rate is positive. Evaluated by
    adaptive quadrature. At alpha = 0 the window is empty (p_- = 1, and
    the width w below is 0), so the quadrature gives +0.0.

    Below alpha = 1e-6 the window is only a few ulps of 1 wide (about
    alpha/4 for the qubit), so bounds on p would round. There the integral
    runs over s = 1 - p, on [0, w] with the width w = 1 - p_- =
    4 alpha (1 - c) / ((r + 1 - alpha) ((1 + alpha) + r)), c =
    (N^2 - 1)/N^2 and r = sqrt((1 + alpha)^2 - 4 c alpha), which has no
    cancellation.

    Raises:
        ValueError: for alpha outside [0, 1] (NaN included), or unless N
            is an integral number of at least 2.
    """
    lower = crossover_point(alpha, levels)  # checks alpha and N
    if alpha < 1e-6:
        c = (levels * levels - 1) / (levels * levels)
        r = math.sqrt((1.0 + alpha) ** 2 - 4.0 * c * alpha)
        width = 4.0 * alpha * (1.0 - c) / ((r + 1.0 - alpha) * ((1.0 + alpha) + r))
        return _quad(lambda s: decay_rate_normalized(alpha, 1.0 - s, levels), 0.0, width)
    return _quad(lambda p: decay_rate_normalized(alpha, p, levels), lower, 1.0)


def hcla_closed_form(alpha: float) -> float:
    """Antiderivative evaluation of the qubit normalized-rate integral.

    With den(p) = 4 p + 4 alpha - 2 alpha p - 3 alpha p^2 and
    s = sqrt(4 - 4 alpha + 13 alpha^2), the antiderivative is

        F(p) = ln|den(p)| + (6 alpha / s) artanh((3 alpha p + alpha - 2)/s)

    and the measure is F(1) - F(p_-). The logarithm is taken of the
    absolute value; the branch constant cancels between the endpoints.

    Below alpha = 1e-6 the two endpoint values cancel catastrophically
    (relative error -9.9 at alpha = 1e-16, and the artanh argument leaves
    (-1, 1) below about 1e-17), so the series alpha/4 + 3 alpha^2/32 is
    returned there instead: it is within 5e-14 relative of a 60-digit
    quadrature on (0, 1e-6) and gives exactly 0 at alpha = 0.

    The lower endpoint comes first: its ``crossover_point`` call checks
    alpha, so an alpha outside [0, 1] (NaN included) raises its ValueError
    before the series branch is reached.
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
    """Plain-logarithm reference value for the qutrit rate integral.

    Evaluates ln(p) + ln(9 + 9 alpha - 8 p alpha) between the qutrit
    singular parameter and 1. This expression is NOT an antiderivative of
    the qutrit normalized rate (its derivative has the denominator
    9 p + 9 alpha p - 8 alpha p^2 instead of 9 p + 9 alpha - 7 alpha p
    - 8 alpha p^2), so it deviates from ``hcla_measure(alpha, levels=3)``.
    It is provided so datasets can report both values side by side; the
    quadrature value is the authoritative one. At alpha = 0 the singular
    parameter is the boundary p = 1, and the value is 0.
    """
    lower = crossover_point(alpha, 3)  # raises ValueError for alpha outside [0, 1]

    def log_form(p: float) -> float:
        return math.log(p) + math.log(abs(9.0 + 9.0 * alpha - 8.0 * p * alpha))

    return log_form(1.0) - log_form(lower)


def plus_minus_distance_derivative(alpha: float, p: float) -> float:
    """dD/dp of the |+>/|-> trace distance D(p) = |G(p)| (zero at the kink)."""
    g = survival(alpha, p)
    if g == 0.0:
        return 0.0
    return math.copysign(1.0, g) * _survival_derivative(alpha, p, 2)


def blp_measure(alpha: float) -> float:
    """Distinguishability-revival measure for the antipodal |+>/|-> pair.

    Integrates max(0, dD/dp) over [0, 1] by adaptive quadrature. D = |G|
    only contracts up to the singular parameter value p_- (G > 0 and
    G' < 0 there), so the integrand is zero on [0, p_-] and the quadrature
    covers the revival window [p_-, 1] alone, giving D(1) - D(p_-) =
    alpha/4. ``crossover_point`` never exceeds 1, so the window is never
    backwards. At alpha = 0 (and near 1e-16) it is the empty window
    [1, 1] and the value is +0.0: the alpha = 0 channel contracts
    monotonically. ``crossover_point`` also raises the ValueError for an
    alpha outside [0, 1] or NaN.
    """
    integrand = lambda p: max(0.0, plus_minus_distance_derivative(alpha, p))
    return _quad(integrand, crossover_point(alpha, 2), 1.0)
