import itertools
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from depolmark.channels import (
    KrausSet,
    apply_channel,
    qubit_kraus,
    qudit_kraus,
    weyl_operator,
)
from depolmark.dynmaps import intermediate_map, superoperator_of
from depolmark.geometry import gell_mann_matrices
from depolmark.kernel import _check_unit, crossover_point, kappa
from depolmark.matcore import PAULI_I, PAULI_X, PAULI_Y, PAULI_Z
from helpers import random_density
from oracle.dense import multiqubit_kraus, swap_permutation

ALPHAS = (0.0, 0.3, 0.7, 1.0)
PS = (0.0, 0.2, 0.5, 0.8, 1.0)


def test_kappa_reduces_to_p_without_memory():
    for p in PS:
        assert kappa(0.0, p) == p


def test_kappa_value():
    assert abs(kappa(0.7, 0.5) - 0.71875) < 1e-15


@pytest.mark.parametrize("levels", [2, 3, 5])
def test_kappa_at_full_sweep(levels):
    for alpha in ALPHAS:
        assert abs(kappa(alpha, 1.0, levels) - (1 + alpha / levels**2)) < 1e-14


def test_qubit_kraus_memoryless_matches_standard_form():
    for p in PS:
        ops = qubit_kraus(0.0, p).operators
        assert np.allclose(ops[0], math.sqrt(1 - 0.75 * p) * PAULI_I, atol=1e-15)
        for op, pauli in zip(ops[1:], (PAULI_X, PAULI_Y, PAULI_Z)):
            assert np.allclose(op, math.sqrt(p / 4) * pauli, atol=1e-15)


def test_qubit_kraus_identity_coefficient():
    ops = qubit_kraus(0.7, 0.5).operators
    assert abs(ops[0][0, 0].real - 0.678925) < 2e-6
    assert abs(ops[0][0, 0].real - math.sqrt((1 - 0.75 * 0.7 * 0.5) * (1 - 0.75 * 0.5))) < 1e-15


def test_qubit_kraus_noiseless():
    ops = qubit_kraus(0.4, 0.0).operators
    assert np.array_equal(ops[0], PAULI_I)
    for op in ops[1:]:
        assert np.array_equal(op, np.zeros((2, 2)))


def test_qubit_kraus_domain():
    with pytest.raises(ValueError):
        qubit_kraus(1.2, 0.5)
    with pytest.raises(ValueError):
        qubit_kraus(0.5, -0.1)


def test_weyl_n2_recovers_paulis():
    assert np.allclose(weyl_operator(2, 0, 1), PAULI_X, atol=1e-15)
    assert np.allclose(weyl_operator(2, 1, 0), PAULI_Z, atol=1e-15)
    assert np.allclose(weyl_operator(2, 1, 1), 1j * PAULI_Y, atol=1e-15)


@pytest.mark.parametrize("levels", [2, 3, 4])
def test_weyl_identity_and_unitarity(levels):
    assert np.array_equal(weyl_operator(levels, 0, 0), np.eye(levels))
    for r in range(levels):
        for s in range(levels):
            u = weyl_operator(levels, r, s)
            assert np.abs(u @ u.conj().T - np.eye(levels)).max() < 1e-14


def test_weyl_index_out_of_range():
    with pytest.raises(ValueError):
        weyl_operator(3, 3, 0)
    with pytest.raises(ValueError):
        weyl_operator(3, 0, -1)


def test_qudit_n2_superoperator_matches_qubit():
    # U_{1,1} = i sigma_y differs from sigma_y by a phase that cancels in the
    # channel action, so the two constructions define the same map
    from depolmark.dynmaps import superoperator_of

    for alpha, p in itertools.product((0.0, 0.7), (0.3, 0.9)):
        s_qudit = superoperator_of(qudit_kraus(alpha, p, 2)).matrix
        s_qubit = superoperator_of(qubit_kraus(alpha, p)).matrix
        assert np.abs(s_qudit - s_qubit).max() < 1e-14


def test_qudit_noiseless_case():
    ops = qudit_kraus(0.6, 0.0, 3).operators
    assert np.array_equal(ops[0], np.eye(3))
    for op in ops[1:]:
        assert np.abs(op).max() == 0.0


def test_qudit_memoryless_weight_split():
    # without memory, the total non-identity weight is ((N^2-1)/N^2) p
    for p in (0.25, 0.7, 1.0):
        ops = qudit_kraus(0.0, p, 3).operators
        weight = sum(np.trace(op.conj().T @ op).real / 3 for op in ops[1:])
        assert abs(weight - (8 / 9) * p) < 1e-13


@pytest.mark.parametrize("levels", [2, 3, 4])
def test_qudit_completeness(levels):
    for alpha, p in itertools.product(ALPHAS, PS):
        assert qudit_kraus(alpha, p, levels).completeness_defect() <= 1e-12


@pytest.mark.parametrize("qubits", [1, 2, 3])
def test_multiqubit_completeness(qubits):
    for alpha, p in itertools.product(ALPHAS, PS):
        kraus = multiqubit_kraus(alpha, p, qubits)
        assert len(kraus) == 4**qubits
        assert kraus.dim == 2**qubits
        assert kraus.completeness_defect() <= 1e-12


def test_multiqubit_single_matches_qubit():
    single = qubit_kraus(0.6, 0.4).operators
    multi = multiqubit_kraus(0.6, 0.4, 1).operators
    for a, b in zip(single, multi):
        assert np.array_equal(a, b)


def test_four_qubit_kraus_propagator_matches_intermediate_map():
    # No qubit cap: the 256 Kraus operators of four qubits give the propagator
    # S(p) S(q)^-1 that intermediate_map builds as a reordered Kronecker power.
    alpha, q, p = 0.6, 0.3, 0.7
    step = lambda t: superoperator_of(multiqubit_kraus(alpha, t, 4)).matrix
    kraus_route = step(p) @ np.linalg.inv(step(q))
    direct = intermediate_map(alpha, q, p, qubits=4).matrix
    assert kraus_route.shape == direct.shape == (256, 256)
    assert np.abs(kraus_route - direct).max() <= 1e-12 * np.abs(direct).max()


def test_apply_channel_unital():
    out = apply_channel(qubit_kraus(0.7, 0.6), np.eye(2, dtype=complex) / 2)
    assert out[0, 1] == 0 and out[1, 0] == 0
    assert np.abs(out - np.eye(2) / 2).max() < 5e-16


def test_apply_channel_plus_minus_states():
    # the antipodal pair stays on the x axis, scaled by the contraction factor
    plus = 0.5 * np.array([[1, 1], [1, 1]], dtype=complex)
    minus = 0.5 * np.array([[1, -1], [-1, 1]], dtype=complex)
    for alpha, p in itertools.product((0.0, 0.5, 0.9), (0.2, 0.7, 1.0)):
        lam = 1.0 - kappa(alpha, p)
        kraus = qubit_kraus(alpha, p)
        evolved_plus = apply_channel(kraus, plus)
        evolved_minus = apply_channel(kraus, minus)
        assert np.abs(evolved_plus - np.array([[0.5, lam / 2], [lam / 2, 0.5]])).max() < 1e-14
        assert np.abs(evolved_minus - np.array([[0.5, -lam / 2], [-lam / 2, 0.5]])).max() < 1e-14


def test_memoryless_full_depolarizing_reaches_maximally_mixed():
    from depolmark.measures import trace_distance

    rng = np.random.default_rng(2)
    vec = rng.normal(size=3)
    vec /= np.linalg.norm(vec)
    pure = 0.5 * (PAULI_I + vec[0] * PAULI_X + vec[1] * PAULI_Y + vec[2] * PAULI_Z)
    out = apply_channel(qubit_kraus(0.0, 1.0), pure)
    assert trace_distance(out, np.eye(2) / 2) < 1e-12


def test_apply_channel_preserves_trace_and_hermiticity():
    rng = np.random.default_rng(8)
    for alpha, p in itertools.product(ALPHAS, PS):
        rho = random_density(rng, 2)
        out = apply_channel(qubit_kraus(alpha, p), rho)
        assert abs(np.trace(out) - 1.0) < 1e-12
        assert np.abs(out - out.conj().T).max() < 1e-12
        assert np.linalg.eigvalsh(out).min() >= -1e-10


def test_apply_channel_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension"):
        apply_channel(qubit_kraus(0.5, 0.5), np.eye(3) / 3)


def test_apply_channel_validates_density_input():
    with pytest.raises(ValueError, match="density"):
        apply_channel(qubit_kraus(0.5, 0.5), np.eye(2))  # trace 2
    # non-density operators pass through the linear action when unvalidated
    out = apply_channel(qubit_kraus(0.0, 1.0), PAULI_Z, validate=False)
    assert np.abs(out).max() < 1e-15


def test_kraus_set_rejects_incomplete_family():
    with pytest.raises(ValueError, match="completeness"):
        KrausSet((0.5 * PAULI_I,))


def test_kraus_set_rejects_operators_of_mixed_stack_shapes():
    first, *rest = qubit_kraus(0.7, np.array([0.2, 0.4])).operators
    with pytest.raises(ValueError, match=r"of one stack shape and d >= 1, got shapes \[\(2, 2\), \(2, 2, 2\)"):
        KrausSet((first[0], *rest))


def test_kraus_set_needs_at_least_one_operator():
    with pytest.raises(ValueError, match=r"^a Kraus set needs one or more square operators of one stack shape and d >= 1, got shapes \[\]$"):
        KrausSet(())


def test_kraus_set_needs_dimension_at_least_one():
    with pytest.raises(ValueError, match=r"^a Kraus set needs one or more square operators of one stack shape and d >= 1, got shapes \[\(0, 0\)\]$"):
        KrausSet((np.zeros((0, 0)),))
    with pytest.raises(ValueError, match=r"and d >= 1, got shapes \[\(3, 0, 0\)\]$"):
        KrausSet((np.zeros((3, 0, 0)),))
    # An empty grid is a stack of no channels, still of dimension 2.
    assert qubit_kraus(0.7, []).dim == 2


def test_kraus_set_reads_its_dimension_from_the_operators():
    assert [qudit_kraus(0.7, [0.2, 0.4], n).dim for n in (2, 3, 4)] == [2, 3, 4]
    with pytest.raises(ValueError, match=r"^a Kraus set needs one or more square operators of one stack shape and d >= 1, got shapes \[\(2, 3\)\]$"):
        KrausSet((np.ones((2, 3)),))


@pytest.mark.parametrize(
    "build",
    [
        lambda: weyl_operator(1, 0, 0),
        lambda: qudit_kraus(0.5, 0.5, 1),
        lambda: qudit_kraus(0.5, 0.5, 0),  # builds no Weyl operator, so only its own check fires
        lambda: gell_mann_matrices(1),
        lambda: weyl_operator(0, 0, 0),
        lambda: weyl_operator(-1, 0, 0),
        lambda: qudit_kraus(0.5, 0.5, -1),
        lambda: gell_mann_matrices(0),
        lambda: gell_mann_matrices(-1),
        lambda: swap_permutation(1),
        lambda: swap_permutation(0),
        lambda: swap_permutation(-1),
    ],
    ids=[
        "weyl_operator",
        "qudit_kraus-1",
        "qudit_kraus-0",
        "gell_mann_matrices",
        "weyl_operator-0",
        "weyl_operator-minus1",
        "qudit_kraus-minus1",
        "gell_mann_matrices-0",
        "gell_mann_matrices-minus1",
        "swap_permutation-1",
        "swap_permutation-0",
        "swap_permutation-minus1",
    ],
)
def test_builders_need_at_least_two_levels(build):
    with pytest.raises(ValueError, match="levels must be >= 2"):
        build()


def test_unit_check_names_the_first_point_outside():
    with pytest.raises(ValueError, match=r"^p must lie in \[0, 1\], got 1\.5$"):
        qubit_kraus(0.5, [0.2, 1.5, -1.0])
    with pytest.raises(ValueError, match=r"^p must lie in \[0, 1\], got -1\.0$"):
        qudit_kraus(0.5, np.array([[0.2, 0.3], [-1.0, 2.0]]), 3)
    with pytest.raises(ValueError, match=r"^alpha must lie in \[0, 1\], got nan$"):
        qubit_kraus(float("nan"), 0.5)
    with pytest.raises(ValueError, match=r"^alpha must lie in \[0, 1\], got nan$"):
        crossover_point(float("nan"))


def test_unit_check_returns_its_argument_unchanged():
    third = Fraction(1, 3)
    zero_d = np.asarray(0.25)
    grid = np.array([0.0, -0.0, 1.0])
    for x in (third, zero_d, grid, 0.5, 1):
        assert _check_unit("x", x) is x
    assert type(_check_unit("x", third)) is Fraction
    with pytest.raises(ValueError, match=r"got 1\.5$"):
        _check_unit("x", Fraction(3, 2))


def test_each_parameter_domain_is_checked_in_one_place():
    # Outside the command line, whose usage errors are its exit-2 contract.
    src = Path(__file__).resolve().parents[1] / "src" / "depolmark"
    texts = {path.name: path.read_text(encoding="utf-8") for path in src.glob("*.py") if path.name != "cli.py"}
    rules = (("must lie in [0, 1]", "kernel.py"), ("levels must be >= 2", "kernel.py"), ("qubits must be >= 1", "dynmaps.py"))
    for text, home in rules:
        assert {name: t.count(text) for name, t in texts.items() if text in t} == {home: 1}
    # No private copy truncates a count, and no cap the mathematics does not
    # impose is left: the quantity table in cli.py is the only one.
    for gone in ("int(levels)", "int(qubits)", "MAX_QUBITS", "(3, 4)"):
        assert [name for name, t in texts.items() if gone in t] == []


def test_kraus_set_completeness_bound_is_1e_9():
    # Scaling every operator by s moves sum E^dag E away from I by s^2 - 1.
    ops = qubit_kraus(0.7, 0.4).operators
    assert len(KrausSet(tuple(np.sqrt(1 + 5e-10) * op for op in ops))) == 4
    with pytest.raises(ValueError, match="completeness"):
        KrausSet(tuple(np.sqrt(1 + 5e-9) * op for op in ops))
