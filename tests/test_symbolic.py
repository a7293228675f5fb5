"""Exact proofs of the qubit closed forms: sympy identities in (alpha, q, p), not float samples.

The single-qubit superoperator is built from the Kraus weights of the
``channels`` docstring, S(x) = sum_i w_i conj(U_i) kron U_i over the Pauli
operators U_i, with the weights w_i = |E_i coefficient|^2 as they stand, so
no square root appears. The propagator S(p) S(q)^-1, reshuffled to its Choi
matrix as ``dynmaps.choi_of`` does, is then proven equal to
top P_Omega + rest (1 - P_Omega), with lambda = G(p)/G(q),
top = 1/4 + (3/4) lambda and rest = (1 - lambda)/4: the spectrum that
``kernel.qudit_choi_eigenvalues`` and the ``choi-norm`` formula read.
"""

import functools
import itertools
from fractions import Fraction

import numpy as np
import sympy
from sympy import I, Matrix, Rational, eye, kronecker_product, zeros

from depolmark.channels import qubit_kraus
from depolmark.dynmaps import intermediate_choi, superoperator_of
from depolmark.kernel import lambda_ratio

ALPHA, P, Q = sympy.symbols("alpha p q", rational=True)
PAULIS = (eye(2), Matrix([[0, 1], [1, 0]]), Matrix([[0, -I], [I, 0]]), Matrix([[1, 0], [0, -1]]))


def superoperator(x):
    """Column-stacking superoperator of the qubit channel at parameter ``x``."""
    c = Rational(3, 4)
    weights = [(1 - c * ALPHA * x) * (1 - c * x)] + [(1 + ALPHA * (1 - c * x)) * x / 4] * 3
    return sum((w * kronecker_product(u.conjugate(), u) for w, u in zip(weights, PAULIS)), zeros(4))


def reshuffle(s, d=2):
    """chi[(b, e), (a, c)] = S[(a, b), (c, e)] / d, the reshuffle of ``dynmaps.choi_of``."""
    return Matrix(d * d, d * d, lambda r, c: s[(c // d) * d + r // d, (c % d) * d + r % d] / d)


def survival(x):
    return 1 - (x + ALPHA * x - Rational(3, 4) * ALPHA * x * x)


LAMBDA = survival(P) / survival(Q)
OMEGA = Matrix([1, 0, 0, 1])
P_OMEGA = OMEGA * OMEGA.T / 2


@functools.cache
def propagator_choi():
    """The Choi matrix of S(p) S(q)^-1, built once."""
    return reshuffle(superoperator(P) * superoperator(Q).inv())


def numeric(expr, alpha, q, p):
    return np.array(expr.subs({ALPHA: alpha, Q: q, P: p}).evalf(), dtype=complex)


def test_the_symbolic_superoperator_is_the_dense_one():
    # The proof below is about the same matrices the dense route builds.
    for alpha, x in [(0.7, 0.3), (0.9, 0.95), (0.0, 0.5)]:
        dense = superoperator_of(qubit_kraus(alpha, x)).matrix
        assert np.allclose(numeric(superoperator(P), alpha, 0, x), dense, rtol=0, atol=1e-14)
    assert np.allclose(numeric(propagator_choi(), 0.7, 0.3, 0.5), intermediate_choi(0.7, 0.3, 0.5).matrix, rtol=0, atol=1e-13)


def test_the_propagator_choi_matrix_is_two_projectors_weighted_by_lambda():
    top, rest = Rational(1, 4) + Rational(3, 4) * LAMBDA, (1 - LAMBDA) / 4
    expected = top * P_OMEGA + rest * (eye(4) - P_OMEGA)
    assert (propagator_choi() - expected).applyfunc(sympy.cancel) == zeros(4)
    # The identity is not vacuous: swapping the two weights breaks it.
    swapped = rest * P_OMEGA + top * (eye(4) - P_OMEGA)
    assert (propagator_choi() - swapped).applyfunc(sympy.cancel) != zeros(4)


def test_lambda_ratio_is_the_proven_lambda_exactly():
    # lambda_ratio on Fractions is one rational function A(alpha, p)/B(alpha, q),
    # as LAMBDA is, each numerator and denominator of degree <= 1 in alpha and
    # <= 2 in p or q. Their cross difference has degree <= 2 in each variable,
    # so it vanishes identically once it vanishes on a 3 x 3 x 3 product grid.
    grids = [0, "1/2", 1], [0, "1/10", "1/5"], ["3/10", "1/2", 1]
    for alpha, q, p in itertools.product(*[[Fraction(v) for v in grid] for grid in grids]):
        exact = lambda_ratio(alpha, q, p)
        assert isinstance(exact, Fraction)
        assert Rational(exact.numerator, exact.denominator) == LAMBDA.subs({ALPHA: Rational(alpha), Q: Rational(q), P: Rational(p)})
