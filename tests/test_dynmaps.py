import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from depolmark.channels import qubit_kraus, qudit_kraus
from depolmark.dynmaps import (
    ChoiMatrix,
    Superoperator,
    _grouped_slot_permutation,
    choi_of,
    choi_trace_norm,
    g_function,
    intermediate_choi,
    intermediate_map,
    maximally_entangled_projector,
    ncp_witness,
    propagator_column,
    superoperator_of,
)
from depolmark.kernel import (
    G_FUNCTION_STEP,
    SingularMapError,
    crossover_point,
    decay_rate,
    kappa,
    lambda_ratio,
    qudit_choi_eigenvalues,
    survival,
)
from depolmark.matcore import inverse, kron, trace_norm
from helpers import random_density
from oracle.dense import (
    bell_expectations,
    bell_states,
    choi_closed_form,
    devectorize,
    multiqubit_kraus,
    pauli_transfer,
    vectorize,
)

ALPHA_MINUS_07 = 0.7725529126366106  # closed-form root for alpha = 0.7


def test_identity_channel_superoperator():
    from depolmark.channels import KrausSet

    built = superoperator_of(KrausSet((np.eye(2, dtype=complex),)))
    assert np.array_equal(built.matrix, np.eye(4)) and built.dim == 2


def test_memoryless_pauli_transfer_is_uniform_shrink():
    for p in (0.0, 0.4, 1.0):
        ptm = pauli_transfer(superoperator_of(qubit_kraus(0.0, p)))
        assert np.abs(ptm - np.diag([1.0, 1 - p, 1 - p, 1 - p])).max() < 1e-12


def test_superoperator_action_matches_kraus_application():
    from depolmark.channels import apply_channel

    rng = np.random.default_rng(21)
    for alpha, p in itertools.product((0.0, 0.7, 1.0), (0.1, 0.6, 1.0)):
        kraus = qubit_kraus(alpha, p)
        superop = superoperator_of(kraus)
        rho = random_density(rng)
        image = devectorize(superop.matrix @ vectorize(rho), superop.dim)
        assert np.abs(image - apply_channel(kraus, rho)).max() < 1e-12


@pytest.mark.parametrize(
    "builder,dim",
    [
        (lambda: qubit_kraus(0.8, 0.6), 2),
        (lambda: qudit_kraus(0.8, 0.6, 3), 3),
        (lambda: multiqubit_kraus(0.8, 0.6, 2), 4),
    ],
)
def test_superoperator_unitality(builder, dim):
    superop = superoperator_of(builder())
    mixed = vectorize(np.eye(dim, dtype=complex) / dim)
    assert np.abs(superop.matrix @ mixed - mixed).max() < 1e-12


def test_intermediate_map_endpoints():
    identity = intermediate_map(0.7, 0.5, 0.5)
    assert np.abs(identity.matrix - np.eye(4)).max() < 1e-12
    from_zero = intermediate_map(0.7, 0.0, 0.6)
    assert np.abs(from_zero.matrix - superoperator_of(qubit_kraus(0.7, 0.6)).matrix).max() < 1e-12


def test_intermediate_map_diagonal_value():
    ptm = pauli_transfer(intermediate_map(0.7, 0.3, 1.0))
    lam = 0.7 / (-2.149)
    assert np.abs(ptm - np.diag([1.0, lam, lam, lam])).max() < 1e-10
    assert abs(ptm[0, 0] - 1.0) < 1e-12


def test_intermediate_map_singular_q():
    with pytest.raises(SingularMapError):
        intermediate_map(0.7, ALPHA_MINUS_07, 0.9)


def test_intermediate_map_rejects_bad_pair():
    with pytest.raises(ValueError, match="0 <= q <= p <= 1"):
        intermediate_map(0.7, 0.8, 0.5)


def test_lambda_ratio_special_values():
    for p in (0.0, 0.3, 0.9):
        assert abs(lambda_ratio(0.0, 0.0, p) - (1 - p)) < 1e-15
    assert lambda_ratio(0.6, 0.4, 0.4) == 1.0
    assert abs(lambda_ratio(0.7, 0.3, 1.0) + 0.3257328990228014) < 1e-14
    # The denominator of the ratio is -4 G(q): G(0.3) = 2.149 / 4 at alpha = 0.7.
    assert abs(4 * survival(0.7, 0.3) - 2.149) < 1e-14
    with pytest.raises(SingularMapError):
        lambda_ratio(0.7, ALPHA_MINUS_07, 0.9)


def test_choi_of_identity_map():
    chi = choi_of(Superoperator(np.eye(4)))
    assert chi.dim == 2
    assert np.abs(chi.matrix - maximally_entangled_projector(2)).max() < 1e-14
    eigs = chi.eigenvalues()
    assert abs(eigs[-1] - 1.0) < 1e-12 and np.abs(eigs[:-1]).max() < 1e-12


@pytest.mark.parametrize("alpha", [0.0, 0.7])
@pytest.mark.parametrize("q", [0.0, 0.3])
def test_choi_pipeline_matches_closed_form(alpha, q):
    for p in np.minimum(np.arange(q, 1.0 + 1e-9, 0.1), 1.0):
        chi = choi_of(intermediate_map(alpha, q, p))
        assert np.abs(chi.matrix - choi_closed_form(alpha, q, p)).max() < 1e-12
        top, rest = qudit_choi_eigenvalues(alpha, q, p, 2)
        closed = np.sort([top, rest, rest, rest])
        assert np.abs(chi.eigenvalues() - closed).max() < 1e-10
        assert abs(chi.trace() - 1.0) < 1e-12


def test_choi_eigenvalues_memoryless():
    for p in (0.0, 0.5, 1.0):
        top, rest = qudit_choi_eigenvalues(0.0, 0.0, p, 2)
        assert abs(top - (1 - 0.75 * p)) < 1e-14
        assert abs(rest - 0.25 * p) < 1e-14


def test_choi_eigenvalues_identity_propagator():
    assert qudit_choi_eigenvalues(0.9, 0.4, 0.4, 2) == (1.0, 0.0)


def test_choi_eigenvalues_ncp_region():
    # past the singular parameter the shared ratio exceeds 1 and the
    # threefold eigenvalue goes negative
    _, rest = qudit_choi_eigenvalues(0.7, 0.8, 0.9, 2)
    assert lambda_ratio(0.7, 0.8, 0.9) > 1
    assert rest < 0


def test_choi_eigenvalue_sum_is_one():
    for alpha, q in itertools.product((0.0, 0.5, 0.9), (0.0, 0.3)):
        for p in np.arange(q, 1.0 + 1e-9, 0.25):
            top, rest = qudit_choi_eigenvalues(alpha, q, p, 2)
            assert abs(top + rest + rest + rest - 1.0) < 1e-12


def test_crossover_values():
    assert abs(crossover_point(0.7) - 0.772553) < 1e-6
    assert abs(crossover_point(1.0) - 2 / 3) < 1e-15
    assert abs(crossover_point(0.7, 3) - 6 / 7) < 1e-12
    assert crossover_point(0.0) == 1.0


@pytest.mark.parametrize("levels", [2, 3, 4])
def test_crossover_point_never_leaves_the_parameter_range(levels):
    # alpha = 0 gives the boundary point p = 1; below alpha of about 1e-15
    # the root form rounds to 1 + 2**-52 unless it is clamped.
    assert crossover_point(0.0, levels) == 1.0
    alphas = np.logspace(-20, -10, 20001).tolist()
    assert max(crossover_point(alpha, levels) for alpha in alphas) <= 1.0


def test_crossover_monotone_in_dimension():
    for alpha in (0.5, 0.7, 0.9):
        values = [crossover_point(alpha, n) for n in (2, 3, 4, 5)]
        assert all(a < b for a, b in zip(values, values[1:]))


def test_crossover_rejects_bad_alpha():
    with pytest.raises(ValueError):
        crossover_point(1.5)


def test_ncp_witness_identity_and_boundary():
    norm, flagged = ncp_witness(intermediate_choi(0.7, 0.5, 0.5))
    assert abs(norm - 1.0) < 1e-12 and not flagged
    # all eigenvalues stay nonnegative here, so the norm sits on the CP boundary
    norm, flagged = ncp_witness(intermediate_choi(0.7, 0.3, 1.0))
    assert abs(norm - 1.0) < 1e-10 and not flagged


def test_ncp_witness_flags_ncp_region():
    norm, flagged = ncp_witness(intermediate_choi(0.7, 0.8, 0.95))
    assert norm > 1.0 and flagged


def test_ncp_witness_flags_a_norm_1e_9_above_one():
    # Past the singular q, G(p) < G(q) < 0, so lambda = G(p)/G(q) > 1 and the
    # norm is (3 lambda - 1)/2. A step of 2.5e-10 in p lifts it about 1.6e-9
    # above 1: past the 1e-10 margin, well inside a tenfold larger one.
    alpha, q = 0.9, 0.9
    norm, flagged = ncp_witness(intermediate_choi(alpha, q, q + 2.5e-10))
    assert 1e-9 < norm - 1.0 < 3e-9
    assert norm == pytest.approx((3.0 * lambda_ratio(alpha, q, q + 2.5e-10) - 1.0) / 2.0, rel=1e-15)
    assert flagged
    assert not ncp_witness(intermediate_choi(alpha, q, q)).is_ncp


def test_ncp_witness_equivalent_to_negative_eigenvalue():
    for alpha, q, p in ((0.7, 0.3, 0.6), (0.7, 0.3, 1.0), (0.7, 0.8, 0.95), (0.9, 0.4, 0.9)):
        chi = intermediate_choi(alpha, q, p)
        assert ncp_witness(chi).is_ncp == (chi.eigenvalues()[0] < -1e-10)


def test_ncp_witness_threshold_location():
    # for alpha=0.9, q=0.4 the norm first exceeds 1 once the shared ratio
    # drops below -1/3, at p about 0.836
    norms = {p: choi_trace_norm(0.9, 0.4, p) for p in (0.83, 0.84)}
    assert norms[0.83] <= 1.0 + 1e-10
    assert norms[0.84] > 1.0 + 1e-6


def test_bell_expectations_match_spectrum():
    for alpha, q, p in ((0.0, 0.0, 0.6), (0.7, 0.3, 0.9), (0.9, 0.4, 1.0)):
        chi = intermediate_choi(alpha, q, p)
        expectations = bell_expectations(chi)
        top, rest = qudit_choi_eigenvalues(alpha, q, p, 2)
        assert abs(expectations[0] - top) < 1e-10
        assert np.abs(expectations[1:] - rest).max() < 1e-10


def test_bell_states_are_orthonormal():
    states = bell_states()
    gram = np.array([[abs(a.conj() @ b) for b in states] for a in states])
    assert np.abs(gram - np.eye(4)).max() < 1e-15


def test_qudit_choi_matches_closed_spectrum():
    for levels in (3, 4):
        for p in (0.5, 0.8, 1.0):
            chi = intermediate_choi(0.7, 0.3, p, levels=levels)
            top, rest = qudit_choi_eigenvalues(0.7, 0.3, p, levels)
            expected = np.sort(np.array([top] + [rest] * (levels**2 - 1)))
            assert np.abs(chi.eigenvalues() - expected).max() < 1e-10
            assert abs(chi.trace() - 1.0) < 1e-10


def test_qudit_choi_spectrum_near_the_singular_q():
    # q is 9e-6 below the N = 3 singular value: entries reach about 4e3 and
    # the rounding asymmetry about 1e-8, beyond an absolute 1e-10 bound.
    alpha, q, p = 0.777, 0.831405, 0.964
    assert abs(q - crossover_point(alpha, 3)) < 1e-3
    chi = intermediate_choi(alpha, q, p, levels=3)
    top, rest = qudit_choi_eigenvalues(alpha, q, p, 3)
    expected = np.sort(np.array([top] + [rest] * 8))
    assert np.abs(chi.eigenvalues() - expected).max() < 1e-10 * np.abs(expected).max()


def test_qudit_intermediate_singularity_moves_up():
    # q = 0.8 is singular-side for the qubit family but regular for N = 3
    with pytest.raises(SingularMapError):
        intermediate_map(0.7, ALPHA_MINUS_07, 0.9)
    superop = intermediate_map(0.7, ALPHA_MINUS_07, 0.9, levels=3)
    assert np.isfinite(superop.matrix).all()


def test_multiqubit_intermediate_matches_generic_route():
    s_p, s_q = (superoperator_of(multiqubit_kraus(0.9, t, 2)).matrix for t in (0.95, 0.4))
    generic = s_p @ inverse(s_q)
    fast = intermediate_map(0.9, 0.4, 0.95, qubits=2)
    assert np.abs(generic - fast.matrix).max() < 1e-12


def test_multiqubit_choi_norm_matches_full_pipeline():
    for p in (0.5, 0.84, 0.95):
        full = trace_norm(choi_of(intermediate_map(0.9, 0.4, p, qubits=2)).matrix)
        fast = choi_trace_norm(0.9, 0.4, p, qubits=2)
        assert abs(full - fast) < 1e-10


@pytest.mark.parametrize("qubits", (2, 3))
def test_multiqubit_choi_norm_grid_is_the_python_power_of_the_single_norm(qubits):
    # The n-qubit norm is the n-th power of the single-qubit one, taken per
    # point in Python floats; np.power differs from it in the last bit at
    # some points of this grid (the fig12a sweep).
    grid = np.linspace(0.4, 1.0, 241)
    single = choi_trace_norm(0.9, 0.4, grid).tolist()
    got = choi_trace_norm(0.9, 0.4, grid, qubits=qubits).tolist()
    assert [v.hex() for v in got] == [(b**qubits).hex() for b in single]


def test_three_qubit_norm_matches_kron_of_chois():
    chi1 = intermediate_choi(0.9, 0.4, 0.95).matrix
    expected = trace_norm(kron(kron(chi1, chi1), chi1))
    assert abs(choi_trace_norm(0.9, 0.4, 0.95, qubits=3) - expected) < 1e-10


def test_qudit_choi_trace_norm_boundary():
    assert abs(choi_trace_norm(0.7, 0.3, 0.3, levels=3) - 1.0) < 1e-12


def test_g_function_values():
    g = g_function(0.9, 0.9)
    analytic = 1.5 * abs(decay_rate(0.9, 0.9))
    assert abs(g - analytic) <= 1e-4 * analytic
    assert abs(g - 6.294) < 1e-3


def test_g_function_zero_below_crossover():
    assert g_function(0.9, 0.4) == 0.0
    # The refined quotient there is about -1.3e-9: its clamp is +0.0, not -0.0.
    assert math.copysign(1.0, g_function(0.9, 0.4)) == 1.0
    assert g_function(0.0, 0.5) == 0.0


def test_g_function_two_qubits_doubles_the_slope():
    g1 = g_function(0.9, 0.85, 1)
    g2 = g_function(0.9, 0.85, 2)
    assert g2 >= g1
    assert abs(g2 - 2 * g1) < 1e-3 * g1


def test_g_function_takes_any_qubit_count():
    # n = 3 is the refined difference quotient of the cubed single-qubit
    # norm, about 3 g_1; only the command line stops at n = 2.
    q = np.array([0.4, 0.7, 0.8, 0.85, 0.9, 0.95])
    g1, g3 = g_function(0.9, q, (1, 3))
    eps = G_FUNCTION_STEP

    def quotient(step):
        return (choi_trace_norm(0.9, q, q + step, qubits=3) - 1.0) / step

    refined = 2.0 * quotient(eps / 2.0) - quotient(eps)
    assert np.array_equal(g3, refined * (refined > 1e-8))
    assert np.array_equal(g3 == 0.0, g1 == 0.0) and (g1 == 0.0).sum() == 2
    positive = g1 > 0.0
    assert np.all(np.abs(g3[positive] - 3 * g1[positive]) <= 1e-4 * 3 * g1[positive])
    assert g_function(0.9, 0.9, 3) == g3[4]


def test_g_function_domain_errors():
    with pytest.raises(ValueError):
        g_function(0.9, 1.0)
    # The domain ends one finite-difference step below 1.
    with pytest.raises(ValueError, match=r"q must lie in \[0, 1 - 1e-06\]"):
        g_function(0.5, 1 - 5e-7)
    assert type(g_function(0.5, 1 - 2e-6)) is float
    with pytest.raises(ValueError, match="qubits must be >= 1"):
        g_function(0.9, 0.5, qubits=0)
    with pytest.raises(SingularMapError):
        g_function(0.9, crossover_point(0.9))


def test_g_function_raises_inside_the_guard_band():
    # Below the singular q, 0 < lambda < 1 and the exact right-derivative is 0,
    # but the finite-difference steps would cross the singularity (the
    # quotient read 2.94e8 at 5e-9 below it).
    point = crossover_point(0.9)
    for offset in (-9.9e-7, -5e-9, 0.0, 5e-9, 9.9e-7):
        with pytest.raises(SingularMapError):
            g_function(0.9, point + offset)
    with pytest.raises(SingularMapError):
        g_function(0.9, np.array([0.5, point - 5e-9]), qubits=2)
    assert g_function(0.9, point - 2e-6) == 0.0


def test_choi_matrix_shape_validation():
    # d is read from the matrix: its side must be square and a perfect square.
    with pytest.raises(ValueError, match=r"^Choi matrix must be d\^2 x d\^2 for an integer d >= 1, got shape \(4, 9\)$"):
        ChoiMatrix(np.ones((4, 9)))
    with pytest.raises(ValueError, match=r"^superoperator must be d\^2 x d\^2 for an integer d >= 1, got shape \(3, 3\)$"):
        Superoperator(np.eye(3))
    with pytest.raises(ValueError, match=r"^Choi matrix must be d\^2 x d\^2 for an integer d >= 1, got shape \(2, 3, 3\)$"):
        ChoiMatrix(np.ones((2, 3, 3)))
    with pytest.raises(ValueError, match=r"got shape \(4,\)$"):
        Superoperator(np.ones(4))
    assert [Superoperator(np.eye(k * k)).dim for k in (1, 2, 3, 4)] == [1, 2, 3, 4]
    assert ChoiMatrix(np.zeros((5, 16, 16))).dim == 4


def test_choi_matrix_needs_dimension_at_least_one():
    with pytest.raises(ValueError, match=r"^Choi matrix must be d\^2 x d\^2 for an integer d >= 1, got shape \(0, 0\)$"):
        ChoiMatrix(np.zeros((0, 0)))
    with pytest.raises(ValueError, match=r"^Choi matrix must be d\^2 x d\^2 for an integer d >= 1, got shape \(3, 0, 0\)$"):
        ChoiMatrix(np.zeros((3, 0, 0)))
    # An empty grid is a stack of no matrices, still of dimension 2.
    assert ChoiMatrix(np.zeros((0, 4, 4))).dim == 2


def test_superoperator_needs_dimension_at_least_one():
    with pytest.raises(ValueError, match=r"^superoperator must be d\^2 x d\^2 for an integer d >= 1, got shape \(0, 0\)$"):
        Superoperator(np.zeros((0, 0)))
    assert Superoperator(np.zeros((0, 4, 4))).dim == 2


@pytest.mark.parametrize("levels", [5, 6, 8])
def test_choi_spectrum_matches_the_dense_route_up_to_eight_levels(levels):
    # Off the guard band: the dense digits there are bounded by 1/|G(q)| only.
    for alpha, q, p in ((0.7, 0.3, 0.5), (0.9, 0.2, 0.95), (0.0, 0.4, 0.8), (1.0, 0.5, 1.0)):
        assert abs(q - crossover_point(alpha, levels)) > 0.1
        top, rest = qudit_choi_eigenvalues(alpha, q, p, levels)
        expected = np.sort([top] + [rest] * (levels * levels - 1))
        dense = intermediate_choi(alpha, q, p, levels=levels).eigenvalues()
        assert np.abs(dense - expected).max() <= 1e-12 * np.abs(expected).max()


# (levels, qubits): n copies of an N-level system beyond the qubit products.
PRODUCT_SYSTEMS = [(3, 2), (4, 2), (2, 4)]


@pytest.mark.parametrize("levels,qubits", PRODUCT_SYSTEMS, ids=[f"N{n}-n{k}" for n, k in PRODUCT_SYSTEMS])
def test_n_copies_of_n_levels_match_the_dense_oracle(levels, qubits):
    # The power rule against the trace norm of the full Choi matrix, and the
    # reordered Kronecker power against the superoperator of the product Kraus
    # set; off the guard band, at one NCP point and two others.
    for alpha, q, p in ((0.9, 0.4, 1.0), (0.5, 0.1, 0.95), (1.0, 0.2, 0.9)):
        assert abs(q - crossover_point(alpha, levels)) > 0.1
        dense = trace_norm(intermediate_choi(alpha, q, p, levels, qubits).matrix)
        assert abs(choi_trace_norm(alpha, q, p, levels, qubits) - dense) <= 1e-12 * dense
        kraus_route = superoperator_of(multiqubit_kraus(alpha, p, qubits, levels=levels)).matrix
        assert kraus_route.shape == (levels ** (2 * qubits),) * 2
        assert np.abs(kraus_route - intermediate_map(alpha, 0.0, p, levels, qubits).matrix).max() <= 1e-12


@pytest.mark.parametrize("levels", [2, 3, 4, 5])
def test_one_copy_is_the_single_system_propagator_bit_for_bit(levels):
    # One copy goes through the slot permutation too, as arange(N^2). Swapping
    # the two slots of a single-system propagator keeps its bits at N = 2 only.
    assert np.array_equal(_grouped_slot_permutation(levels, 1), np.arange(levels * levels))
    for q, p in ((0.2, np.linspace(0.2, 1.0, 9)), (np.linspace(0.0, 0.3, 9), np.linspace(0.35, 1.0, 9))):
        got = intermediate_map(0.7, q, p, levels, 1).matrix
        want = propagator_column(lambda s: s.matrix, 0.7, q, p, levels)
        assert got.shape == want.shape == (9, levels * levels, levels * levels)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_intermediate_map_rejects_fewer_than_one_qubit():
    with pytest.raises(ValueError, match="qubits"):
        intermediate_map(0.5, 0.2, 0.8, qubits=0)
    with pytest.raises(ValueError, match="qubits"):
        choi_trace_norm(0.5, 0.2, 0.8, qubits=0)


# (levels, qubits): Choi dimensions d = 2, 3, 4, 4 and 8.
ORACLE_SYSTEMS = [(2, 1), (3, 1), (4, 1), (2, 2), (2, 3)]


@st.composite
def propagator_parameters(draw) -> tuple:
    """(alpha, q, p, levels, qubits) with q <= p; half of the q within 1e-3 of the singular q."""
    levels, qubits = draw(st.sampled_from(ORACLE_SYSTEMS))
    alpha = draw(st.floats(0.0, 1.0))
    if alpha > 0.0 and draw(st.booleans()):
        q = min(1.0, max(0.0, crossover_point(alpha, levels) + draw(st.floats(-1e-3, 1e-3))))
    else:
        q = draw(st.floats(0.0, 1.0))
    return alpha, q, draw(st.floats(q, 1.0)), levels, qubits


@settings(max_examples=300)
@given(params=propagator_parameters())
def test_oracle_preserves_trace_and_gives_hermitian_unit_trace_choi(params):
    alpha, q, p, levels, qubits = params
    try:
        superop = intermediate_map(alpha, q, p, levels, qubits)
    except SingularMapError:
        assume(False)
    s = superop.matrix
    # Phi(q, 0)^{-1} has condition number about 1/|G(q)|, and the propagator
    # is exact only to that many ulps of its largest entry (up to 2 of them
    # in a scan of 3000 draws). Near the singular q no fixed relative bound
    # holds: 1e-10 max|S| fails at the guard band (|q - p_-| = 1e-6).
    bound = 1e-13 * max(1.0, np.abs(s).max()) / abs(1.0 - kappa(alpha, q, levels))
    vec_identity = vectorize(np.eye(superop.dim))
    assert np.abs(vec_identity @ s - vec_identity).max() <= bound, params
    chi = choi_of(superop)
    assert np.abs(chi.matrix - chi.matrix.conj().T).max() <= bound, params
    assert abs(np.trace(chi.matrix) - 1.0) <= bound, params


def test_qubit_closed_forms_keep_their_bits():
    # The qubit forms before lambda_ratio took N: common denominator 4 and
    # the spectrum 1/4 +- l. The general-N forms must give the same bits.
    rng = np.random.default_rng(20)
    for alpha, q, u in rng.uniform(0.0, 1.0, size=(2000, 3)).tolist():
        if abs(q - (crossover_point(alpha) or 2.0)) < 1e-9:
            continue
        p = q + u * (1.0 - q)
        # The denominator is the numerator's grouping at q, so lambda(q, q) is exactly 1.
        num = p * (4 + 4 * alpha - 3 * alpha * p) - 4
        lam = num / (q * (4 + 4 * alpha - 3 * alpha * q) - 4)
        assert lambda_ratio(alpha, q, p).hex() == lam.hex()
        top, rest = qudit_choi_eigenvalues(alpha, q, p, 2)
        assert (top.hex(), rest.hex()) == ((0.25 + 0.75 * lam).hex(), (0.25 - 0.25 * lam).hex())


@settings(max_examples=300)
@given(alpha=st.floats(0.0, 1.0), q=st.floats(0.0, 1.0), levels=st.integers(2, 64))
def test_lambda_is_exactly_one_at_p_equal_q(alpha, q, levels):
    # The propagator from q to q is the identity map: no NCP flag, however small.
    assume(abs(1.0 - kappa(alpha, q, levels)) > 1e-9)
    assert lambda_ratio(alpha, q, q, levels) == 1.0
    assert qudit_choi_eigenvalues(alpha, q, q, levels) == (1.0, 0.0)


@pytest.mark.parametrize("levels", [3, 4])
def test_lambda_ratio_is_the_survival_ratio_at_every_level(levels):
    rng = np.random.default_rng(levels)
    for alpha, q, u in rng.uniform(0.0, 1.0, size=(200, 3)).tolist():
        p = q + u * (1.0 - q)
        g_p, g_q = (1.0 - kappa(alpha, t, levels) for t in (p, q))
        if abs(g_q) < 1e-6:
            continue
        assert abs(lambda_ratio(alpha, q, p, levels) - g_p / g_q) <= 1e-12 * max(1.0, abs(g_p / g_q))
    with pytest.raises(SingularMapError):
        lambda_ratio(0.7, crossover_point(0.7, levels), 0.95, levels)
