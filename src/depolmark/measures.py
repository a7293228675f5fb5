"""Scalar non-Markovianity measures and witnesses.

Built on the survival factor G(p) = 1 - k(p) of the depolarizing family
and on the two decay rates of ``kernel``: the canonical rate
gamma(p) = -G'(p)/G(p) (``kernel.decay_rate``), divergent at the singular
parameter value where G vanishes, and the normalized rate
gamma~(p) = -gamma/(1 - gamma) = G'/(G + G') (``kernel.decay_rate_normalized``),
finite across the singularity. This module holds

* rate measure                integral of gamma~ over the negative-rate
  window [p_-, 1], with p_- the singular parameter value (over
  s = 1 - p below alpha = 1e-6, where the window is a few ulps wide);
* distinguishability measure  integral of the positive part of the trace
  distance derivative for the antipodal |+>/|-> pair, which evaluates to
  alpha/4;
* memory witness              X = |s| + ||T||_1 from the Bloch-type
  decomposition of the propagator Choi matrix, equal to 3 |lambda(p, q)|.

Each measure (``hcla_measure``, ``hcla_closed_form``, ``blp_measure``)
returns a plain float, one number per alpha. All quadratures are adaptive
with absolute tolerance 1e-9 and bit-equal to ``scipy.integrate.quad``.
quad's first Gauss-Kronrod pass runs in plain Python (``_quad``), so no
preset loads scipy; only a refused first pass (below alpha of about 1e-6)
imports it, for quad to bisect. The rest of the package needs numpy only.
``memory_witness_X``, ``memory_witness_closed`` and ``trace_distance``
also take whole grids (stacks of states), point by point bit-equal to
single calls, and so does ``plus_minus_distance``, the dense |+>/|->
trace-distance column; the two dense columns walk a grid in blocks
(``matcore.blockwise``), so the stacks they hold stay bounded. The rate
integrands call ``kernel.decay_rate_normalized`` on plain Python floats,
thousands of times per measure.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .channels import apply_channel, qubit_kraus
from .dynmaps import choi_of, propagator_column
from .dynmaps import intermediate_choi  # noqa: F401 -- measures.intermediate_choi stays importable (perfbench wraps re-bindings)
from .kernel import _check_unit, _survival_derivative, crossover_point, decay_rate_normalized, lambda_ratio, survival
from .matcore import PAULI_X, PAULI_Y, PAULI_Z, blockwise, kron, trace_norm

__all__ = [
    "hcla_measure",
    "hcla_closed_form",
    "qutrit_hcla_log_form",
    "trace_distance",
    "plus_minus_states",
    "plus_minus_distance",
    "plus_minus_distance_derivative",
    "blp_measure",
    "memory_witness_X",
    "memory_witness_closed",
]

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
    """
    _check_unit("alpha", alpha)
    if alpha < 1e-6:
        c = (levels * levels - 1) / (levels * levels)
        r = math.sqrt((1.0 + alpha) ** 2 - 4.0 * c * alpha)
        width = 4.0 * alpha * (1.0 - c) / ((r + 1.0 - alpha) * ((1.0 + alpha) + r))
        return _quad(lambda s: decay_rate_normalized(alpha, 1.0 - s, levels), 0.0, width)
    return _quad(lambda p: decay_rate_normalized(alpha, p, levels), crossover_point(alpha, levels), 1.0)


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
    """
    _check_unit("alpha", alpha)
    if alpha < 1e-6:
        return alpha / 4.0 + 3.0 * alpha * alpha / 32.0
    s = math.sqrt(4.0 - 4.0 * alpha + 13.0 * alpha * alpha)

    def antiderivative(p: float) -> float:
        den = 4.0 * p + 4.0 * alpha - 2.0 * alpha * p - 3.0 * alpha * p * p
        return math.log(abs(den)) + (6.0 * alpha / s) * math.atanh((3.0 * alpha * p + alpha - 2.0) / s)

    lower = crossover_point(alpha, 2)
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


def trace_distance(a: np.ndarray, b: np.ndarray):
    """Trace distance (1/2) ||a - b||_1 between two density matrices.

    Lies in [0, 1] and reaches 1 exactly for states with orthogonal
    support. Two stacks of states give the array of pairwise distances.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise ValueError(f"state dimensions differ: {a.shape} vs {b.shape}")
    return 0.5 * trace_norm(a - b)


def plus_minus_states() -> tuple:
    """The antipodal pair |+><+| and |-><-| used by the distinguishability measure."""
    plus = 0.5 * np.array([[1, 1], [1, 1]], dtype=complex)
    minus = 0.5 * np.array([[1, -1], [-1, 1]], dtype=complex)
    return plus, minus


def plus_minus_distance(alpha: float, p):
    """Trace distance D(p) of the |+>/|-> pair evolved by the qubit channel, through its Kraus set.

    ``p`` may be a grid, as a list or an array: it is walked in blocks
    (:func:`depolmark.matcore.blockwise`) and an array comes back, point
    by point bit-equal to single calls. One p gives a float. Equals
    |G(p)| (``dense.plus_minus_trace_distance`` is that closed form).
    """
    plus, minus = plus_minus_states()
    distance = lambda kraus: trace_distance(apply_channel(kraus, plus), apply_channel(kraus, minus))
    return blockwise(lambda p: distance(qubit_kraus(alpha, p)), p, dim=2)


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


# I kron sigma_i, then sigma_i kron sigma_j row by row: the observables
# behind the Bloch parts of a two-qubit Choi matrix. Their entries are
# exact, so building them once changes no result.
_BLOCH_OBSERVABLES = np.array(
    [kron(np.eye(2), sig) for sig in (PAULI_X, PAULI_Y, PAULI_Z)]
    + [kron(a, b) for a in (PAULI_X, PAULI_Y, PAULI_Z) for b in (PAULI_X, PAULI_Y, PAULI_Z)]
)


def _choi_bloch_parts(chi: np.ndarray) -> tuple:
    """Local Bloch vector s and correlation matrix T of a two-qubit Choi matrix (or stack)."""
    values = np.trace(chi[..., None, :, :] @ _BLOCH_OBSERVABLES, axis1=-2, axis2=-1).real
    return values[..., :3], values[..., 3:].reshape(values.shape[:-1] + (3, 3))


def _witness_direct(superop) -> np.ndarray:
    """|s| + ||T||_1 of the Choi matrix of each propagator."""
    s, t = _choi_bloch_parts(choi_of(superop).matrix)
    # One norm call per Bloch vector: a batched norm sums in another order.
    norms = np.array([np.linalg.norm(row) for row in s.reshape(-1, 3)]).reshape(s.shape[:-1])
    return norms + trace_norm(t)


def memory_witness_X(alpha: float, q, p):
    """Quantum-memory witness X = |s| + ||T||_1 of the propagator Choi matrix.

    ``s`` collects tr(chi (I kron sigma_i)) and T the correlations
    tr(chi (sigma_i kron sigma_j)). Values above 1 certify quantum
    correlations in the Choi state; a nonmonotonic rise of X along p
    signals quantum information backflow. Equals 3 |lambda(p, q)| for this
    family, which is cross-checked internally to 1e-8 of
    max(1, 3 |lambda|) at every point.

    ``p`` (and ``q``) may be grids, as lists or arrays; the propagators
    then run through :func:`depolmark.dynmaps.propagator_column`, with
    Phi(q, 0)^{-1} built once for a pinned q, and an array comes back.

    Raises:
        SingularMapError: when q sits at the singular parameter value.
        ArithmeticError: when the two routes disagree beyond that bound.
    """
    q, p = np.asarray(q, dtype=float), np.asarray(p, dtype=float)
    direct = propagator_column(_witness_direct, alpha, q, p)
    closed = memory_witness_closed(alpha, q, p)
    # Near the singular q both routes grow like 1/G(q), and so does their
    # rounding difference, hence the relative bound.
    apart = np.abs(direct - closed) > 1e-8 * np.maximum(1.0, np.abs(closed))
    if np.any(apart):
        i = np.argmax(apart.reshape(-1))
        d, c = (float(np.reshape(x, -1)[i]) for x in (direct, closed))
        raise ArithmeticError(f"witness routes disagree: direct {d!r} vs closed {c!r} at (alpha={alpha}, q={q}, p={p})")
    return direct


def memory_witness_closed(alpha: float, q, p):
    """Closed form 3 |lambda(p, q)| of the memory witness."""
    return 3.0 * abs(lambda_ratio(alpha, q, p))
