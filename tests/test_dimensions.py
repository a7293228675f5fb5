"""One rule per dimension: every library function that takes a level count N
or a copy count n (and every oracle function) refuses the same values with
the same text, and takes every integral value (numpy integers and integral
floats included) as the int it equals, bit for bit."""

import math
import re

import numpy as np
import pytest

from depolmark import channels, dynmaps, geometry, kernel
from oracle import dense

TRACE = lambda superop: np.trace(superop.matrix, axis1=-2, axis2=-1)

# Every function of the library and of the oracle that takes N, called at N:
# those of the kernel first.
KERNEL_LEVEL_TAKERS = {
    "kappa": lambda n: kernel.kappa(0.7, 0.5, n),
    "survival": lambda n: kernel.survival(0.7, 0.5, n),
    "crossover_point": lambda n: kernel.crossover_point(0.7, n),
    "lambda_ratio": lambda n: kernel.lambda_ratio(0.7, 0.3, 0.5, n),
    "qudit_choi_eigenvalues": lambda n: kernel.qudit_choi_eigenvalues(0.7, 0.3, 0.5, n),
    "decay_rate": lambda n: kernel.decay_rate(0.7, 0.5, n),
    "decay_rate_normalized": lambda n: kernel.decay_rate_normalized(0.7, 0.5, n),
    "hcla_measure": lambda n: kernel.hcla_measure(0.7, n),
    "hcla_measure-small-alpha": lambda n: kernel.hcla_measure(1e-7, n),
}
LEVEL_TAKERS = {
    **KERNEL_LEVEL_TAKERS,
    "qudit_kraus": lambda n: channels.qudit_kraus(0.7, [0.2, 0.5], n),
    "weyl_operator": lambda n: channels.weyl_operator(n, 1, 1),
    "gell_mann_matrices": lambda n: geometry.gell_mann_matrices(n),
    "f_matrix": lambda n: geometry.f_matrix(0.7, 0.5, n),
    "f_norm": lambda n: geometry.f_norm(0.7, [0.2, 0.5], n),
    "propagator_column-pinned-q": lambda n: dynmaps.propagator_column(TRACE, 0.7, 0.3, [0.5, 0.6], n),
    "propagator_column-q-grid": lambda n: dynmaps.propagator_column(TRACE, 0.7, [0.1, 0.3], [0.5, 0.6], n),
    "intermediate_map": lambda n: dynmaps.intermediate_map(0.7, 0.3, 0.5, levels=n),
    "intermediate_choi": lambda n: dynmaps.intermediate_choi(0.7, 0.3, [0.5, 0.6], levels=n),
    "choi_trace_norm": lambda n: dynmaps.choi_trace_norm(0.7, 0.3, [0.5, 0.6], levels=n),
    "swap_permutation": lambda n: dense.swap_permutation(n),
    "swap_matrix": lambda n: dense.swap_matrix(n),
    "multiqubit_kraus": lambda n: dense.multiqubit_kraus(0.7, [0.2, 0.5], 2, levels=n),
}

# Every function of the library and of the oracle that takes n, called at n.
QUBIT_TAKERS = {
    "intermediate_map": lambda n: dynmaps.intermediate_map(0.7, 0.3, 0.5, qubits=n),
    "intermediate_choi": lambda n: dynmaps.intermediate_choi(0.7, 0.3, 0.5, qubits=n),
    "choi_trace_norm": lambda n: dynmaps.choi_trace_norm(0.7, 0.3, [0.5, 0.6], qubits=n),
    "choi_trace_norm-tuple": lambda n: dynmaps.choi_trace_norm(0.7, 0.3, [0.5, 0.6], qubits=(1, n)),
    "g_function": lambda n: dynmaps.g_function(0.9, [0.2, 0.95], n),
    "g_function-tuple": lambda n: dynmaps.g_function(0.9, [0.2, 0.95], (1, n)),
    "multiqubit_kraus": lambda n: dense.multiqubit_kraus(0.7, [0.2, 0.5], n),
}

BAD_LEVELS = [0, 1, -3, 2.5, 2.7, math.nan, math.inf, "3", None]
BAD_QUBITS = [0, -1, 1.5, 2.9, math.nan, "2", None]


def bits(result) -> list:
    """A result as a list of (shape, dtype, bytes), one per array in it, for a bit-for-bit comparison."""
    if isinstance(result, (list, tuple, channels.KrausSet)):
        return [b for item in result for b in bits(item)]
    array = np.asarray(getattr(result, "matrix", result))
    return [(array.shape, array.dtype.str, array.tobytes())]


@pytest.mark.parametrize("call", LEVEL_TAKERS.values(), ids=LEVEL_TAKERS.keys())
def test_every_function_of_n_levels_refuses_a_bad_level_count(call):
    for levels in BAD_LEVELS:
        with pytest.raises(ValueError, match=rf"^levels must be >= 2 and integral, got {re.escape(repr(levels))}$"):
            call(levels)


@pytest.mark.parametrize("call", LEVEL_TAKERS.values(), ids=LEVEL_TAKERS.keys())
def test_every_function_of_n_levels_refuses_a_level_count_above_the_bound(call):
    # Above 10**150, N^2 would overflow a float: a ValueError, not an OverflowError.
    for levels in (10**150 + 1, 10**160, 1e200):
        with pytest.raises(ValueError, match=rf"^levels must be <= 10\*\*150 \(N\^2 a finite float\), got {re.escape(repr(levels))}$"):
            call(levels)


def test_the_closed_forms_take_every_level_count_up_to_the_bound():
    for levels in (10**8, 10**150):
        assert math.isfinite(kernel.survival(0.7, 0.5, levels))
        assert all(map(math.isfinite, kernel.qudit_choi_eigenvalues(0.7, 0.3, 0.5, levels)))
        assert math.isfinite(kernel.decay_rate(0.7, 0.5, levels))


@pytest.mark.parametrize("call", QUBIT_TAKERS.values(), ids=QUBIT_TAKERS.keys())
def test_every_function_of_n_qubits_refuses_a_bad_qubit_count(call):
    for qubits in BAD_QUBITS:
        with pytest.raises(ValueError, match=rf"^qubits must be >= 1 and integral, got {re.escape(repr(qubits))}$"):
            call(qubits)


@pytest.mark.parametrize("call", LEVEL_TAKERS.values(), ids=LEVEL_TAKERS.keys())
def test_an_integral_level_count_of_any_type_gives_the_same_bits(call):
    for levels in (2, 3):
        same = [bits(call(n)) for n in (np.int64(levels), float(levels), np.float64(levels), np.asarray(levels))]
        assert same == [bits(call(levels))] * 4


@pytest.mark.parametrize("call", KERNEL_LEVEL_TAKERS.values(), ids=KERNEL_LEVEL_TAKERS.keys())
def test_a_large_level_count_of_any_type_gives_the_bits_of_its_int(call):
    # N^2 comes from the checked int: an np.int64 N^2 wraps above
    # 3037000499, and a float one rounds above 2**26.5. (No dense function
    # here: a Kraus set of N levels holds N^2 operators.)
    for levels in (10**8 + 1, 3037000500, 2**32):
        assert [bits(call(n)) for n in (np.int64(levels), float(levels))] == [bits(call(levels))] * 2, levels


@pytest.mark.parametrize("call", QUBIT_TAKERS.values(), ids=QUBIT_TAKERS.keys())
def test_an_integral_qubit_count_of_any_type_gives_the_same_bits(call):
    for qubits in (1, 2):
        same = [bits(call(n)) for n in (np.int64(qubits), float(qubits), np.asarray(qubits))]
        assert same == [bits(call(qubits))] * 3


def test_the_count_check_hands_back_an_int():
    for value, least in ((np.int64(3), 2), (3.0, 2), (np.float64(4.0), 2), (True, 1), (np.asarray(2), 1)):
        checked = kernel._check_count(value, least, "rule")
        assert type(checked) is int and checked == value
    assert dynmaps._check_system(np.int64(2), 3.0, np.int8(1)) == (2, 3, 1)
