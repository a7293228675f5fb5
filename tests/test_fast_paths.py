"""The whole-array constructions of the dense route against their loop forms.

The second half checks the whole-grid sweep columns against the per-point
calls they replaced.

Each oracle below is the construction the library used before it built
its products by broadcasting: ``np.kron`` in a loop over Kraus operators,
the composite U (S kron I_{d^2}) U applied to vec(P) for the Choi matrix,
and one trace per transfer-matrix entry. The fast forms perform the same
floating-point operations, so the results must agree bit for bit, signs
of zeros included, not just within a tolerance. Half of the seeded draws
put q within 1e-3 of the singular parameter, where entries grow like
1/G(q).
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from depolmark import channels, cli, dynmaps, geometry, measures
from depolmark.channels import KrausSet, apply_channel, multiqubit_kraus, qubit_kraus, qudit_kraus
from depolmark.dynmaps import (
    SINGULARITY_GUARD,
    choi_of,
    crossover_point,
    maximally_entangled_projector,
    superoperator_of,
)
from depolmark.matcore import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    SingularityError,
    SingularMapError,
    devectorize,
    inverse,
    kron,
    swap_permutation,
    trace_norm,
    vectorize,
)

# (levels, qubits, draws): Choi dimensions d = 2, 3, 4, 4 and 8.
SYSTEMS = [(2, 1, 8), (3, 1, 8), (4, 1, 8), (2, 2, 8), (2, 3, 2)]
SYSTEM_IDS = ["qubit", "N3", "N4", "2qubit", "3qubit"]


def draws(levels: int, qubits: int, count: int) -> list:
    """Seeded (alpha, q, p) with q <= p; every other q within 1e-3 of the singular q."""
    rng = np.random.default_rng(1000 * levels + qubits)
    out = []
    for i in range(count):
        alpha = rng.uniform(0.05, 1.0)
        if i % 2:
            q = crossover_point(alpha, levels) + rng.uniform(-1e-3, 1e-3)
        else:
            q = rng.uniform(0.0, 1.0)
        out.append((alpha, q, rng.uniform(q, 1.0)))
    return out


def kraus_for(alpha: float, p: float, levels: int, qubits: int):
    if qubits > 1:
        return multiqubit_kraus(alpha, p, qubits)
    return qudit_kraus(alpha, p, levels) if levels > 2 else qubit_kraus(alpha, p)


def propagator(alpha: float, q: float, p: float, levels: int, qubits: int):
    """The superoperator that ``intermediate_choi`` reshuffles for this system."""
    return dynmaps.intermediate_map(alpha, q, p, levels, qubits)


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want)
    assert got.tobytes() == want.tobytes()  # also the signs of zeros


# ---------------------------------------------------------------- oracles


def superoperator_loop(kraus) -> np.ndarray:
    d2 = kraus.dim * kraus.dim
    acc = np.zeros((d2, d2), dtype=complex)
    for op in kraus:
        acc += np.kron(op.conj(), op)
    return acc


def choi_composite(superop) -> np.ndarray:
    d = superop.dim
    perm = swap_permutation(d)
    composite = np.kron(superop.matrix, np.eye(d * d))[np.ix_(perm, perm)]
    return devectorize(composite @ vectorize(maximally_entangled_projector(d)), d * d)


def apply_loop(kraus, rho) -> np.ndarray:
    out = np.zeros_like(rho, dtype=complex)
    for op in kraus:
        out += op @ rho @ op.conj().T
    return out


def transfer_loop(kraus, basis, scale: int) -> np.ndarray:
    images = [apply_loop(kraus, g) for g in basis]
    m = np.empty((len(basis), len(basis)))
    for i, g_i in enumerate(basis):
        for j in range(len(basis)):
            m[i, j] = float(np.trace(g_i @ images[j]).real) / scale
    return m


def bloch_parts_loop(chi) -> tuple:
    paulis = (PAULI_X, PAULI_Y, PAULI_Z)
    s = np.array([float(np.trace(chi @ np.kron(np.eye(2), sig)).real) for sig in paulis])
    t = np.empty((3, 3))
    for i, sig_i in enumerate(paulis):
        for j, sig_j in enumerate(paulis):
            t[i, j] = float(np.trace(chi @ np.kron(sig_i, sig_j)).real)
    return s, t


# ---------------------------------------------------------------- tests


def test_kron_matches_np_kron():
    rng = np.random.default_rng(11)
    for m, n, r, s in ((1, 1, 1, 1), (2, 2, 2, 2), (4, 4, 4, 4), (3, 5, 2, 7), (16, 16, 16, 16)):
        a = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
        b = rng.normal(size=(r, s)) + 1j * rng.normal(size=(r, s))
        assert_same_bits(kron(a, b), np.kron(a, b))
        assert_same_bits(kron(a, np.eye(r)), np.kron(a, np.eye(r)))
        assert_same_bits(kron(np.eye(m), b), np.kron(np.eye(m), b))


def test_kron_of_stacks_is_the_stack_of_products():
    rng = np.random.default_rng(12)
    a = rng.normal(size=(5, 3, 2)) + 1j * rng.normal(size=(5, 3, 2))
    b = rng.normal(size=(5, 2, 4)) + 1j * rng.normal(size=(5, 2, 4))
    assert_same_bits(kron(a, b), np.array([np.kron(x, y) for x, y in zip(a, b)]))


@pytest.mark.parametrize("levels,qubits,count", SYSTEMS, ids=SYSTEM_IDS)
def test_superoperator_matches_kron_loop(levels, qubits, count):
    for alpha, q, p in draws(levels, qubits, count):
        for t in (q, p):
            kraus = kraus_for(alpha, t, levels, qubits)
            assert_same_bits(superoperator_of(kraus).matrix, superoperator_loop(kraus))


@pytest.mark.parametrize("levels,qubits,count", SYSTEMS, ids=SYSTEM_IDS)
def test_choi_reshuffle_matches_composite_route(levels, qubits, count):
    for alpha, q, p in draws(levels, qubits, count):
        superop = propagator(alpha, q, p, levels, qubits)
        want = choi_composite(superop)
        assert_same_bits(choi_of(superop).matrix, want)
        assert_same_bits(dynmaps.intermediate_choi(alpha, q, p, levels, qubits).matrix, want)


def test_affine_map_matches_entry_loop():
    for alpha, _, p in draws(2, 1, 8):
        basis = geometry.bloch_basis()
        want = transfer_loop(qubit_kraus(alpha, p), basis, 1)
        assert_same_bits(geometry.affine_map_of(alpha, p).matrix, want)


@pytest.mark.parametrize("levels", [3, 4])
def test_f_matrix_matches_entry_loop(levels):
    for alpha, _, p in draws(levels, 1, 8):
        f = geometry.f_matrix(alpha, p, levels)
        want = transfer_loop(qudit_kraus(alpha, p, levels), f.basis, levels * levels)
        assert_same_bits(f.matrix, want)


def test_bloch_parts_match_entry_loop():
    for alpha, q, p in draws(2, 1, 8):
        chi = dynmaps.intermediate_choi(alpha, q, p).matrix
        s, t = measures._choi_bloch_parts(chi)
        want_s, want_t = bloch_parts_loop(chi)
        assert_same_bits(s, want_s)
        assert_same_bits(np.ascontiguousarray(t), want_t)


@pytest.mark.parametrize("levels", [2, 3, 4])
def test_apply_channel_on_a_stack_matches_the_loop(levels):
    rng = np.random.default_rng(levels)
    kraus = qudit_kraus(0.7, 0.6, levels)
    ops = rng.normal(size=(2, 3, levels, levels)) + 1j * rng.normal(size=(2, 3, levels, levels))
    out = apply_channel(kraus, ops, validate=False)
    assert out.shape == ops.shape
    for idx in np.ndindex(2, 3):
        assert_same_bits(out[idx], apply_loop(kraus, ops[idx]))
        assert_same_bits(apply_channel(kraus, ops[idx], validate=False), out[idx])


def test_apply_channel_validates_every_state_of_a_stack():
    kraus = qubit_kraus(0.5, 0.5)
    rho = np.eye(2, dtype=complex) / 2
    assert apply_channel(kraus, np.array([rho, rho])).shape == (2, 2, 2)
    with pytest.raises(ValueError, match="density matrix"):
        apply_channel(kraus, np.array([rho, 2 * rho]))
    with pytest.raises(ValueError, match="shape"):
        apply_channel(kraus, np.ones(2))


# ---------------------------------------------------------------- whole-grid columns
#
# The oracle is the per-point evaluation that sweeps made before they
# became column functions: one scalar library call per grid point and per
# series, a singularity turning that one point into NA. The columns must
# reproduce it bit for bit, NA positions included.


def guarded(fn):
    def wrapped(x):
        try:
            return fn(x)
        except SingularityError:
            return None

    return wrapped


def trajectory_point(alpha, p) -> tuple:
    """(lambda, |lambda|, A or None, inside, CP divisible) at one p, the three axes written out."""
    lam = channels.survival(alpha, p)
    lambdas = (lam, lam, lam)
    inside = (1.0 + lambdas[2] >= abs(lambdas[0] + lambdas[1]) - 1e-12) and (
        1.0 - lambdas[2] >= abs(lambdas[0] - lambdas[1]) - 1e-12
    )
    if abs(lam) <= 1e-12:
        return lam, abs(lam), None, inside, False
    a = geometry.bloch_contraction_derivative(alpha, p) / lam
    a_vector = (a, a, a)
    inequalities = (
        -a_vector[0] + a_vector[1] + a_vector[2],
        a_vector[0] - a_vector[1] + a_vector[2],
        a_vector[0] + a_vector[1] - a_vector[2],
    )
    return lam, abs(lam), a, inside, all(v <= 1e-12 for v in inequalities)


def near(x, alpha, levels=2):
    point = crossover_point(alpha, levels)
    return point is not None and abs(x - point) < SINGULARITY_GUARD


def per_point_series(spec) -> list:
    """(name, fn(x)) pairs of the sweep, one scalar call per point."""
    q, out = spec.q, []
    for alpha in spec.alpha:
        short = f"{alpha:g}"
        tag = "alpha" + (short if float(short) == alpha else repr(alpha))
        if spec.quantity == "choi-eigs":
            for n in spec.levels:
                t = tag + (f"_N{n}" if len(spec.levels) > 1 or n != 2 else "")
                if n == 2:
                    out.append((f"Lambda_I_{t}", guarded(lambda p, a=alpha: dynmaps.choi_eigenvalues_closed(a, q, p)[0])))
                    out.append((f"Lambda_XYZ_{t}", guarded(lambda p, a=alpha: dynmaps.choi_eigenvalues_closed(a, q, p)[1])))
                else:
                    out.append((f"Lambda_top_{t}", guarded(lambda p, a=alpha, n=n: dynmaps.qudit_choi_eigenvalues(a, q, p, n)[0])))
                    out.append((f"Lambda_rest_{t}", guarded(lambda p, a=alpha, n=n: dynmaps.qudit_choi_eigenvalues(a, q, p, n)[1])))
        elif spec.quantity == "choi-norm":
            for n in spec.levels:
                for k in spec.qubits:
                    t = tag + (f"_N{n}" if len(spec.levels) > 1 or n != 2 else "")
                    t += f"_n{k}" if len(spec.qubits) > 1 or k != 1 else ""
                    fn = lambda p, a=alpha, n=n, k=k: dynmaps.choi_trace_norm(a, q, p, n, k)
                    out.append((f"choi_norm_{t}", guarded(fn)))
        elif spec.quantity == "decay-rate":
            n = spec.levels[0]

            def rate(p, a=alpha):
                if near(p, a, n) or (a == 0.0 and abs(p - 1.0) < SINGULARITY_GUARD):
                    return None
                return measures.decay_rate(a, p, n)

            def rate_norm(p, a=alpha):
                return None if a == 0.0 and p < SINGULARITY_GUARD else measures.decay_rate_normalized(a, p, n)

            out += [(f"gamma_{tag}", guarded(rate)), (f"gamma_normalized_{tag}", guarded(rate_norm))]
        elif spec.quantity == "trace-distance":
            plus, minus = measures.plus_minus_states()

            def dist(p, a=alpha):
                kraus = qubit_kraus(a, p)
                return measures.trace_distance(apply_channel(kraus, plus), apply_channel(kraus, minus))

            out.append((f"D_{tag}", dist))
        elif spec.quantity == "memory-x":
            out.append((f"X_{tag}", guarded(lambda p, a=alpha: measures.memory_witness_X(a, q, p))))
        elif spec.quantity == "volume":
            out.append((f"volume_{tag}", lambda p, a=alpha: geometry.volume_determinant(a, p)))
        elif spec.quantity == "trajectory":
            names = ("lambda", "abs_lambda", "A", "inside_tetrahedron", "cp_divisible")
            out += [
                (f"{name}_{tag}", lambda p, a=alpha, i=i: trajectory_point(a, p)[i])
                for i, name in enumerate(names)
            ]
        elif spec.quantity == "f-norm":
            n = spec.levels[0]
            out.append((f"F{n}_norm_{tag}", lambda p, a=alpha: geometry.f_matrix(a, p, n).trace_norm))
        elif spec.quantity == "g-function":
            for k in spec.qubits:
                t = tag + (f"_n{k}" if len(spec.qubits) > 1 or k != 1 else "")
                g = lambda x, a=alpha, k=k: None if near(x, a) else dynmaps.g_function(a, x, k)
                out.append((f"g_{t}", guarded(g)))
    return out


def straddling_grid(centre: float, width: float, points: int, lo: float, hi: float) -> np.ndarray:
    """A grid across ``centre`` with points at it, inside its guard band and just outside."""
    offsets = (0.0, -0.5, 0.5, -0.999, 0.999, -2.0, 2.0)
    special = [centre + o * SINGULARITY_GUARD for o in offsets]
    grid = np.concatenate([np.linspace(centre - width, centre + width, points), special])
    return np.unique(np.clip(grid, lo, hi))


def bits(column) -> list:
    """Exact float bits (signs of zeros included) with None for NA, given as None or NaN."""
    return [None if v is None or v != v else float(v).hex() for v in column]


def assert_columns_match_per_point(spec, grid):
    names, columns = [], []
    for alpha in spec.alpha:
        for series_names, fn in cli._QUANTITIES[spec.quantity].columns(spec, alpha):
            names += series_names
            columns += fn(grid)
    oracle = per_point_series(spec)
    assert names == [name for name, _ in oracle]
    for name, column, (_, fn) in zip(names, columns, oracle):
        assert bits(column) == bits([fn(x) for x in grid.tolist()]), name


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    alpha=st.one_of(st.just(0.0), st.floats(0.05, 1.0)),
    levels=st.sampled_from([2, 3, 4]),
    qubits=st.sampled_from([1, 2, 3]),
    width=st.floats(1e-5, 0.3),
    points=st.integers(2, 12),
    q_shift=st.one_of(st.floats(-0.6, -2 * SINGULARITY_GUARD), st.floats(2 * SINGULARITY_GUARD, 1e-3)),
)
def test_sweep_columns_equal_per_point_calls(alpha, levels, qubits, width, points, q_shift):
    centre = crossover_point(alpha, levels) or 0.8
    # q pinned off the guard band, sometimes within 1e-3 of the singular q.
    q = min(max(centre + q_shift, 0.0), 0.99)
    assume(not near(q, alpha, levels))
    pinned = straddling_grid(centre, width, points, q, 1.0)
    swept = straddling_grid(centre, width, points, 0.0, 1.0)
    spec = lambda quantity, **kw: cli.SweepSpec(quantity, **{"alpha": (alpha,), "q": q, "p_max": 1.0, **kw})
    n_or_qubits = dict(qubits=(1, 2, 3)) if levels == 2 else dict(levels=(levels,))
    cases = [
        (spec("choi-eigs", levels=tuple(sorted({2, levels})), p_min=q), pinned),
        (spec("choi-norm", p_min=q, **n_or_qubits), pinned),
        (spec("memory-x", p_min=q), pinned),
        (spec("decay-rate", levels=(levels,)), swept),
        (spec("trace-distance"), swept),
        (spec("volume"), swept),
        (spec("trajectory"), swept),
        (spec("f-norm", levels=(max(levels, 3),)), swept),
    ]
    if qubits < 3:
        g_centre = crossover_point(alpha) or 0.8
        q_grid = straddling_grid(g_centre, width, points, 0.0, 1.0 - dynmaps.G_FUNCTION_STEP)
        cases.append((spec("g-function", qubits=(qubits,), p_max=0.99), q_grid))
    for sweep, grid in cases:
        assert_columns_match_per_point(sweep, grid)


@pytest.mark.parametrize("levels,qubits,count", SYSTEMS, ids=SYSTEM_IDS)
def test_stacked_route_equals_its_0d_case(levels, qubits, count):
    for alpha, q, _ in draws(levels, qubits, count):
        grid = np.linspace(q, 1.0, 5)
        stacked = dynmaps.intermediate_choi(alpha, q, grid, levels, qubits)
        for i, p in enumerate(grid.tolist()):
            assert_same_bits(stacked.matrix[i], dynmaps.intermediate_choi(alpha, q, p, levels, qubits).matrix)
        norms = trace_norm(stacked.matrix)
        assert [trace_norm(m) for m in stacked.matrix] == norms.tolist()
        kraus = kraus_for(alpha, grid, levels, qubits)
        assert kraus.shape == (5,)
        assert_same_bits(superoperator_of(kraus).matrix[2], superoperator_of(kraus_for(alpha, grid[2], levels, qubits)).matrix)
    assert isinstance(dynmaps.choi_trace_norm(0.7, 0.3, 0.5, levels=3), float)
    assert isinstance(dynmaps.choi_trace_norm(0.7, 0.3, 0.5, qubits=2), float)


def test_inverse_checks_every_matrix_of_a_stack():
    singular_q = crossover_point(0.7)
    stack = np.array([superoperator_of(qubit_kraus(0.7, t)).matrix for t in (0.2, singular_q, 0.4)])
    with pytest.raises(SingularMapError):
        inverse(stack)
    assert_same_bits(inverse(stack[[0, 2]])[1], inverse(stack[2]))


def test_kraus_stack_checks_completeness_at_every_point():
    good = qubit_kraus(0.7, np.array([0.2, 0.5])).operators
    broken = tuple(op.copy() for op in good)
    broken[0][1] *= 1.01
    with pytest.raises(ValueError, match="completeness"):
        KrausSet(broken, 2)
    assert np.all(KrausSet(good, 2).completeness_defect() < 1e-12)
