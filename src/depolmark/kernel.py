"""The scalar kernel of the family: survival factor, singular point, guard band, typed errors.

Everything here is plain arithmetic on the standard library (``math``
only), so the command line can validate a sweep, check a pinned q against
the singular value and exit with a usage or singularity code without
loading numpy. ``kappa``, ``survival`` and ``_guard`` are written with
operators alone and take numpy arrays as well as floats.

The other modules import these names from here; ``matcore``, ``channels``
and ``dynmaps`` keep them importable under their old homes.
"""

from __future__ import annotations

import math

__all__ = [
    "SingularityError",
    "SingularMapError",
    "SingularRateError",
    "kappa",
    "survival",
    "crossover_point",
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


def kappa(alpha: float, p, levels: int = 2):
    """Effective depolarizing probability k(p) of the N-level channel.

    k(p) = p + alpha p - ((N^2 - 1)/N^2) alpha p^2. For alpha = 0 this is
    just p; at p = 1 it equals 1 + alpha/N^2, i.e. the perturbation drives
    the channel past the maximal-depolarizing point k = 1.
    """
    n2 = levels * levels
    return p + alpha * p - (n2 - 1) / n2 * alpha * p * p


def survival(alpha: float, p, levels: int = 2):
    """Survival factor G(p) = 1 - k(p): the shared non-identity transfer eigenvalue of Phi(p, 0).

    For the qubit it is the Bloch contraction factor. Every Choi spectrum,
    rate and measure of the family is a function of G; it vanishes at the
    singular parameter value.
    """
    return 1.0 - kappa(alpha, p, levels)


def crossover_point(alpha: float, levels: int = 2) -> float | None:
    """Singular parameter value of the N-level family (the smaller root).

    Solves ((N^2-1)/N^2) alpha p^2 - (1 + alpha) p + 1 = 0, i.e. k(p) = 1,
    using the cancellation-free form 2 / ((1 + alpha) + sqrt(disc)). At this
    point the one-step map loses invertibility, the propagator eigenvalues
    cross, and the decay rate diverges.

    Returns ``None`` for alpha = 0: the root degenerates to the boundary
    p = 1 (and the companion root escapes to infinity), so the family has
    no interior singularity.

    Raises:
        ValueError: for alpha outside [0, 1] (NaN included).
    """
    if not 0.0 <= float(alpha) <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {float(alpha)}")
    if alpha == 0.0:
        return None
    c = (levels * levels - 1) / (levels * levels)
    disc = (1 + alpha) ** 2 - 4 * c * alpha
    return 2.0 / ((1 + alpha) + math.sqrt(disc))


def _guard(x, alpha: float, levels: int = 2):
    """Whether x (or each point of a grid) lies inside the guard band of the singular parameter.

    At alpha = 0 that parameter is the boundary p = 1 (``crossover_point`` returns None).
    """
    point = crossover_point(alpha, levels)
    return abs(x - (1.0 if point is None else point)) < SINGULARITY_GUARD
