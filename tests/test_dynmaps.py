import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from depolmark.channels import kappa, multiqubit_kraus, qubit_kraus, qudit_kraus
from depolmark.dynmaps import (
    ChoiMatrix,
    Superoperator,
    bell_expectations,
    bell_states,
    choi_closed_form,
    choi_eigenvalues_closed,
    choi_of,
    choi_trace_norm,
    crossover_point,
    g_function,
    intermediate_choi,
    intermediate_map,
    lambda_ratio,
    maximally_entangled_projector,
    ncp_witness,
    pauli_transfer,
    qudit_choi_eigenvalues,
    superoperator_of,
)
from depolmark.matcore import SingularMapError, inverse, kron, trace_norm, vectorize
from depolmark.measures import decay_rate

ALPHA_MINUS_07 = 0.7725529126366106  # closed-form root for alpha = 0.7


def random_density(rng, dim=2):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def test_identity_channel_superoperator():
    from depolmark.channels import KrausSet

    built = superoperator_of(KrausSet((np.eye(2, dtype=complex),), 2))
    assert np.array_equal(built.matrix, np.eye(4))


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
        assert np.abs(superop.apply(rho) - apply_channel(kraus, rho)).max() < 1e-12


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
        assert abs(lambda_ratio(0.0, 0.0, p).value - (1 - p)) < 1e-15
    assert lambda_ratio(0.6, 0.4, 0.4).value == 1.0
    ratio = lambda_ratio(0.7, 0.3, 1.0)
    assert abs(ratio.value + 0.3257328990228014) < 1e-14
    assert abs(ratio.denominator + 2.149) < 1e-14
    with pytest.raises(SingularMapError):
        lambda_ratio(0.7, ALPHA_MINUS_07, 0.9)


def test_choi_of_identity_map():
    chi = choi_of(Superoperator(np.eye(4), 2))
    assert np.abs(chi.matrix - maximally_entangled_projector(2)).max() < 1e-14
    eigs = chi.eigenvalues()
    assert abs(eigs[-1] - 1.0) < 1e-12 and np.abs(eigs[:-1]).max() < 1e-12


@pytest.mark.parametrize("alpha", [0.0, 0.7])
@pytest.mark.parametrize("q", [0.0, 0.3])
def test_choi_pipeline_matches_closed_form(alpha, q):
    for p in np.minimum(np.arange(q, 1.0 + 1e-9, 0.1), 1.0):
        chi = choi_of(intermediate_map(alpha, q, p))
        assert np.abs(chi.matrix - choi_closed_form(alpha, q, p)).max() < 1e-12
        closed = np.sort(choi_eigenvalues_closed(alpha, q, p))
        assert np.abs(chi.eigenvalues() - closed).max() < 1e-10
        assert abs(chi.trace() - 1.0) < 1e-12


def test_choi_eigenvalues_memoryless():
    for p in (0.0, 0.5, 1.0):
        top, x, y, z = choi_eigenvalues_closed(0.0, 0.0, p)
        assert abs(top - (1 - 0.75 * p)) < 1e-14
        assert abs(x - 0.25 * p) < 1e-14 and x == y == z


def test_choi_eigenvalues_identity_propagator():
    assert choi_eigenvalues_closed(0.9, 0.4, 0.4) == (1.0, 0.0, 0.0, 0.0)


def test_choi_eigenvalues_ncp_region():
    # past the singular parameter the shared ratio exceeds 1 and the
    # threefold eigenvalue goes negative
    top, x, _, _ = choi_eigenvalues_closed(0.7, 0.8, 0.9)
    assert lambda_ratio(0.7, 0.8, 0.9).value > 1
    assert x < 0


def test_choi_eigenvalue_sum_is_one():
    for alpha, q in itertools.product((0.0, 0.5, 0.9), (0.0, 0.3)):
        for p in np.arange(q, 1.0 + 1e-9, 0.25):
            top, x, y, z = choi_eigenvalues_closed(alpha, q, p)
            assert abs(top + x + y + z - 1.0) < 1e-12


def test_crossover_values():
    assert abs(crossover_point(0.7) - 0.772553) < 1e-6
    assert abs(crossover_point(1.0) - 2 / 3) < 1e-15
    assert abs(crossover_point(0.7, 3) - 6 / 7) < 1e-12
    assert crossover_point(0.0) is None


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
        top, x, y, z = choi_eigenvalues_closed(alpha, q, p)
        assert abs(expectations[0] - top) < 1e-10
        assert np.abs(expectations[1:] - np.array([x, y, z])).max() < 1e-10


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
    assert g_function(0.0, 0.5) == 0.0


def test_g_function_two_qubits_doubles_the_slope():
    g1 = g_function(0.9, 0.85, 1)
    g2 = g_function(0.9, 0.85, 2)
    assert g2 >= g1
    assert abs(g2 - 2 * g1) < 1e-3 * g1


def test_g_function_domain_errors():
    with pytest.raises(ValueError):
        g_function(0.9, 1.0)
    with pytest.raises(ValueError):
        g_function(0.9, 0.5, qubits=3)
    with pytest.raises(SingularMapError):
        g_function(0.9, crossover_point(0.9))


def test_choi_matrix_shape_validation():
    with pytest.raises(ValueError):
        ChoiMatrix(np.eye(3), 2)


def test_intermediate_choi_rejects_mixed_extension():
    with pytest.raises(ValueError):
        intermediate_choi(0.5, 0.2, 0.8, levels=3, qubits=2)


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


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
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
        num = p * (4 + 4 * alpha - 3 * alpha * p) - 4
        lam = num / (4 * q + 4 * alpha * q - 3 * alpha * q * q - 4)
        assert lambda_ratio(alpha, q, p).value.hex() == lam.hex()
        top, rest, _, _ = choi_eigenvalues_closed(alpha, q, p)
        assert (top.hex(), rest.hex()) == ((0.25 + 0.75 * lam).hex(), (0.25 - 0.25 * lam).hex())


@pytest.mark.parametrize("levels", [3, 4])
def test_lambda_ratio_is_the_survival_ratio_at_every_level(levels):
    rng = np.random.default_rng(levels)
    for alpha, q, u in rng.uniform(0.0, 1.0, size=(200, 3)).tolist():
        p = q + u * (1.0 - q)
        g_p, g_q = (1.0 - kappa(alpha, t, levels) for t in (p, q))
        if abs(g_q) < 1e-6:
            continue
        assert abs(lambda_ratio(alpha, q, p, levels).value - g_p / g_q) <= 1e-12 * max(1.0, abs(g_p / g_q))
    with pytest.raises(SingularMapError):
        lambda_ratio(0.7, crossover_point(0.7, levels), 0.95, levels)
