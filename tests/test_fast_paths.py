"""The whole-array constructions of the dense route against their loop forms.

The second half checks the whole-grid sweep columns against the per-point
calls they replaced, the command line's Python-float grid against
``np.linspace``, and each ``kernel`` closed form and each one-step dense
column (``plus_minus_distance``, ``volume_determinant``, ``f_norm``)
evaluated point by point on Python floats against the same function on
the whole array.

Each oracle below is the construction the library used before it built
its products by broadcasting: ``np.kron`` in a loop over Kraus operators,
the composite U (S kron I_{d^2}) U applied to vec(P) for the Choi matrix,
one index per diagonal entry of the maximally entangled vector in P, and
one trace per transfer-matrix entry. The fast forms perform the same
floating-point operations, so the results must agree bit for bit, signs
of zeros included, not just within a tolerance. Half of the seeded draws
put q within 1e-3 of the singular parameter, where entries grow like
1/G(q).
"""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from depolmark import cli, dynmaps, geometry, kernel, matcore, measures
from depolmark.channels import KrausSet, apply_channel, qubit_kraus, qudit_kraus
from depolmark.dense import devectorize, multiqubit_kraus, swap_permutation, vectorize
from depolmark.dynmaps import choi_of, maximally_entangled_projector, superoperator_of
from depolmark.kernel import (
    SINGULARITY_GUARD,
    SingularityError,
    crossover_point,
    decay_rate,
    decay_rate_normalized,
    lambda_ratio,
    qudit_choi_eigenvalues,
    survival,
)
from depolmark.matcore import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    SingularMapError,
    inverse,
    kron,
    trace_norm,
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


def projector_loop(dim: int) -> np.ndarray:
    psi = np.zeros(dim * dim, dtype=complex)
    for i in range(dim):
        psi[i * dim + i] = 1.0
    psi /= math.sqrt(dim)
    return np.outer(psi, psi.conj())


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


@pytest.mark.parametrize("dim", range(2, 9))
def test_maximally_entangled_projector_matches_index_loop(dim):
    assert_same_bits(maximally_entangled_projector(dim), projector_loop(dim))


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
    lam = survival(alpha, p)
    lambdas = (lam, lam, lam)
    inside = (1.0 + lambdas[2] >= abs(lambdas[0] + lambdas[1]) - 1e-12) and (
        1.0 - lambdas[2] >= abs(lambdas[0] - lambdas[1]) - 1e-12
    )
    if abs(lam) <= 1e-12:
        return lam, abs(lam), None, inside, False
    a = kernel.bloch_contraction_derivative(alpha, p) / lam
    a_vector = (a, a, a)
    inequalities = (
        -a_vector[0] + a_vector[1] + a_vector[2],
        a_vector[0] - a_vector[1] + a_vector[2],
        a_vector[0] + a_vector[1] - a_vector[2],
    )
    return lam, abs(lam), a, inside, all(v <= 1e-12 for v in inequalities)


def near(x, alpha, levels=2):
    point = crossover_point(alpha, levels)
    return abs(x - point) < SINGULARITY_GUARD


def public_trajectory(alpha, p) -> tuple:
    """The five ``trajectory`` cells of ``kernel.trajectory`` at one p, checked against ``trajectory_point``'s bits."""
    lam, a, inside, divisible = kernel.trajectory(alpha, p)
    cells = (lam, abs(lam), a, float(inside), float(divisible))
    assert bits(cells) == bits(trajectory_point(alpha, p)), p
    return cells


def per_point_series(spec) -> list:
    """(name, fn(x)) pairs of the sweep, one public scalar call per point."""
    q, out = spec.q, []
    for alpha in spec.alpha:
        short = f"{alpha:g}"
        tag = "alpha" + (short if float(short) == alpha else repr(alpha))
        if spec.quantity == "choi-eigs":
            for n in spec.levels:
                t = tag + (f"_N{n}" if len(spec.levels) > 1 or n != 2 else "")
                if n == 2:
                    out.append((f"Lambda_I_{t}", guarded(lambda p, a=alpha: kernel.qudit_choi_eigenvalues(a, q, p, 2)[0])))
                    out.append((f"Lambda_XYZ_{t}", guarded(lambda p, a=alpha: kernel.qudit_choi_eigenvalues(a, q, p, 2)[1])))
                else:
                    out.append((f"Lambda_top_{t}", guarded(lambda p, a=alpha, n=n: kernel.qudit_choi_eigenvalues(a, q, p, n)[0])))
                    out.append((f"Lambda_rest_{t}", guarded(lambda p, a=alpha, n=n: kernel.qudit_choi_eigenvalues(a, q, p, n)[1])))
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
                return kernel.decay_rate(a, p, n)

            def rate_norm(p, a=alpha):
                return None if a == 0.0 and p < SINGULARITY_GUARD else kernel.decay_rate_normalized(a, p, n)

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
                (f"{name}_{tag}", lambda p, a=alpha, i=i: public_trajectory(a, p)[i])
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
    """Every cell of the sweep's columns has the bits of its public scalar call."""
    names, columns = [], []
    for alpha in spec.alpha:
        for n in spec.levels:
            series_names, fn = cli._QUANTITIES[spec.quantity].columns(spec, alpha, n)
            names += series_names
            columns += fn(grid)
    oracle = per_point_series(spec)
    assert names == [name for name, _ in oracle]
    for name, column, (_, fn) in zip(names, columns, oracle):
        assert bits(column) == bits([fn(x) for x in grid.tolist()]), name


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    alpha=st.one_of(st.just(0.0), st.floats(0.05, 1.0)),
    levels=st.sampled_from([2, 3, 4]),
    kernel_levels=st.one_of(st.integers(2, 8), st.just(64)),
    qubits=st.sampled_from([1, 2, 3]),
    width=st.floats(1e-5, 0.3),
    points=st.integers(2, 12),
    q_shift=st.one_of(st.floats(-0.6, -2 * SINGULARITY_GUARD), st.floats(2 * SINGULARITY_GUARD, 1e-3)),
)
@example(alpha=1.0, levels=2, kernel_levels=8, qubits=1, width=1e-3, points=5, q_shift=2e-6)
@example(alpha=0.9, levels=3, kernel_levels=5, qubits=2, width=1e-3, points=5, q_shift=-2e-6)
@example(alpha=0.6, levels=4, kernel_levels=64, qubits=1, width=0.2, points=9, q_shift=5e-4)
def test_sweep_columns_equal_per_point_calls(alpha, levels, kernel_levels, qubits, width, points, q_shift):
    # At alpha = 0 the singular parameter is the boundary p = 1, where a
    # straddling grid is clipped to one side: centre those grids at p = 0.8.
    centre = crossover_point(alpha, levels) if alpha > 0.0 else 0.8
    # q pinned off the guard band, sometimes within 1e-3 of the singular q.
    q = min(max(centre + q_shift, 0.0), 0.99)
    assume(not near(q, alpha, levels))
    pinned = straddling_grid(centre, width, points, q, 1.0)
    swept = straddling_grid(centre, width, points, 0.0, 1.0)
    # The kernel columns (choi-eigs, decay-rate) at any N, across that N's
    # singular parameter; the qubit trajectory across the qubit's.
    k_centre = crossover_point(alpha, kernel_levels) if alpha > 0.0 else 0.8
    k_q = min(max(k_centre + q_shift, 0.0), 0.99)
    assume(not near(k_q, alpha, kernel_levels) and not near(k_q, alpha))
    qubit_swept = straddling_grid(crossover_point(alpha) if alpha > 0.0 else 0.8, width, points, 0.0, 1.0)
    spec = lambda quantity, **kw: cli.SweepSpec(quantity, **{"alpha": (alpha,), "q": q, "p_max": 1.0, **kw})
    n_or_qubits = dict(qubits=(1, 2, 3)) if levels == 2 else dict(levels=(levels,))
    cases = [
        (spec("choi-eigs", levels=tuple(sorted({2, levels})), p_min=q), pinned),
        (spec("choi-eigs", levels=(kernel_levels,), q=k_q, p_min=k_q), straddling_grid(k_centre, width, points, k_q, 1.0)),
        (spec("choi-norm", p_min=q, **n_or_qubits), pinned),
        (spec("memory-x", p_min=q), pinned),
        (spec("decay-rate", levels=(kernel_levels,)), straddling_grid(k_centre, width, points, 0.0, 1.0)),
        (spec("trace-distance"), swept),
        (spec("volume"), swept),
        (spec("trajectory"), swept),
        (spec("trajectory"), qubit_swept),
        (spec("f-norm", levels=(max(levels, 3),)), swept),
    ]
    if qubits < 3:
        g_centre = crossover_point(alpha) if alpha > 0.0 else 0.8
        q_grid = straddling_grid(g_centre, width, points, 0.0, 1.0 - dynmaps.G_FUNCTION_STEP)
        cases.append((spec("g-function", qubits=(qubits,), p_max=0.99), q_grid))
    for sweep, grid in cases:
        assert_columns_match_per_point(sweep, grid)


# Grid bounds: anywhere in [0, 1], or a few thousand subnormal units
# (5e-324 each) wide, where the step of a long grid underflows to zero.
GRID_BOUNDS = st.one_of(
    st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    st.tuples(st.integers(0, 4096), st.integers(0, 4096)).map(lambda units: tuple(k * 5e-324 for k in units)),
).map(sorted).filter(lambda bounds: bounds[0] < bounds[1])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(bounds=GRID_BOUNDS, steps=st.integers(2, 10_000))
@example(bounds=[0.0, 1e-323], steps=5)  # step == 0: numpy's i / div * delta branch
@example(bounds=[0.3, 1.0], steps=141)
def test_grid_is_linspace_bit_for_bit(bounds, steps):
    p_min, p_max = bounds
    grid = cli.SweepSpec("trace-distance", p_min=p_min, p_max=p_max, steps=steps).grid()
    assert all(type(x) is float for x in grid)
    assert [x.hex() for x in grid] == [x.hex() for x in np.linspace(p_min, p_max, steps).tolist()]


def assert_pointwise_equals_array(fn, points: list) -> None:
    """``fn`` at each point (Python floats) gives the bits of ``fn`` on the array of them.

    Points where the scalar call raises (a singular q, a vanishing G or
    G + G') are left out, as the sweeps mask them.
    """
    kept = []
    for x in points:
        try:
            fn(x)
        except (SingularityError, ValueError):
            continue
        kept.append(x)
    if not kept:
        return
    columns = lambda value: value if isinstance(value, tuple) else (value,)
    whole = columns(fn(np.array(kept)))
    per_point = list(zip(*(columns(fn(x)) for x in kept)))
    assert len(whole) == len(per_point)
    for array, scalars in zip(whole, per_point):
        assert all(type(v) is float for v in scalars)
        assert [v.hex() for v in array.tolist()] == [v.hex() for v in scalars]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    alpha=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
    levels=st.sampled_from([2, 3, 4]),
    q_offset=st.one_of(st.none(), st.floats(-1e-3, 1e-3)),
    q_unit=st.floats(0.0, 1.0),
    near=st.lists(st.floats(-1e-3, 1e-3), min_size=1, max_size=8),
    far=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8),
)
def test_kernel_closed_forms_give_the_same_bits_per_point_and_on_an_array(alpha, levels, q_offset, q_unit, near, far):
    # Half of the points, and half of the pinned q, lie within 1e-3 of the
    # singular parameter (p = 1 at alpha = 0).
    centre = crossover_point(alpha, levels)
    clip = lambda x: min(max(x, 0.0), 1.0)
    swept = [clip(centre + o) for o in near] + far
    q = q_unit if q_offset is None else clip(centre + q_offset)
    pinned = [min(q + (1.0 - q) * u, 1.0) for u in far] + [p for p in swept if p >= q]
    assert_pointwise_equals_array(lambda p: lambda_ratio(alpha, q, p, levels), pinned)
    assert_pointwise_equals_array(lambda p: qudit_choi_eigenvalues(alpha, q, p, levels), pinned)
    assert_pointwise_equals_array(lambda p: decay_rate(alpha, p, levels), swept)
    assert_pointwise_equals_array(lambda p: decay_rate_normalized(alpha, p, levels), swept)


@pytest.mark.parametrize("alpha", [0.0, 0.7, 1.0])
def test_one_step_dense_columns_give_the_same_bits_per_point_and_on_a_grid(alpha, monkeypatch):
    # A small budget makes the grid span several blocks at every N.
    monkeypatch.setattr(matcore, "_BUDGET", 64)
    for levels, fn in (
        (2, lambda p: measures.plus_minus_distance(alpha, p)),
        (2, lambda p: geometry.volume_determinant(alpha, p)),
        (3, lambda p: geometry.f_norm(alpha, p, 3)),
        (4, lambda p: geometry.f_norm(alpha, p, 4)),
    ):
        points = straddling_grid(crossover_point(alpha, levels), 0.2, 12, 0.0, 1.0).tolist()
        assert_pointwise_equals_array(fn, points)
        assert fn(points).tobytes() == fn(np.array(points)).tobytes()


def array_trajectory(alpha, p_grid) -> tuple:
    """The whole-grid trajectory formula ``kernel.trajectory`` replaced: (lam, a, inside, CP divisible) arrays."""
    p = np.array(p_grid, dtype=float, ndmin=1)
    if not np.all((0.0 <= p) & (p <= 1.0)):
        raise ValueError(f"grid values must lie in [0, 1], got {p}")
    lam = survival(alpha, p)
    singular = np.abs(lam) <= 1e-12
    a = np.divide(1.5 * alpha * p - alpha - 1.0, lam, out=np.full_like(lam, np.nan), where=~singular)
    inside = (1.0 + lam >= np.abs(lam + lam)) & (1.0 - lam >= np.abs(lam - lam))
    return lam, a, inside, ~singular & (a <= 0)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    alpha=st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)),
    near=st.lists(st.floats(-1e-3, 1e-3), min_size=1, max_size=8),
    far=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8),
)
@example(alpha=1.0, near=[0.0], far=[2 / 3])  # lam vanishes: a is NaN, CP divisibility False
def test_kernel_trajectory_matches_the_array_formula(alpha, near, far):
    # Half of the points lie within 1e-3 of the singular parameter (p = 1 at alpha = 0).
    centre = crossover_point(alpha)
    grid = [min(max(centre + o, 0.0), 1.0) for o in near] + far
    lam, a, inside, divisible = array_trajectory(alpha, grid)
    for i, p in enumerate(grid):
        got = kernel.trajectory(alpha, p)
        assert all(type(v) is float for v in got[:2]) and all(type(v) is bool for v in got[2:])
        assert bits(got[:2]) == bits([lam[i], a[i]])
        assert got[2:] == (bool(inside[i]), bool(divisible[i]))


@pytest.mark.parametrize("p", [-0.5, 1.5, float("nan")])
@pytest.mark.parametrize(
    "call",
    [
        lambda p: kernel.kappa(0.5, p),
        lambda p: survival(0.5, p),
        lambda p: decay_rate(0.5, p),
        lambda p: decay_rate_normalized(0.5, p, 3),
        lambda p: kernel.plus_minus_distance_derivative(0.5, p),
        lambda p: kernel.trajectory(0.5, p),
        lambda p: lambda_ratio(0.5, 0.0, p),
        lambda p: qudit_choi_eigenvalues(0.5, 0.0, p, 3),
    ],
    ids=["kappa", "survival", "decay_rate", "decay_rate_normalized", "plus_minus_distance_derivative", "trajectory", "lambda_ratio", "qudit_choi_eigenvalues"],
)
def test_kernel_functions_reject_p_outside_the_unit_interval(call, p):
    # One domain rule for p: each public function that takes it checks it.
    with pytest.raises(ValueError, match=r"must lie in \[0, 1\]|must satisfy 0 <= q <= p <= 1"):
        call(p)


def test_kernel_trajectory_rejects_p_outside_the_unit_interval():
    for p in (-1e-300, 1.0 + 2**-52, float("nan")):
        with pytest.raises(ValueError, match="grid values must lie in"):
            kernel.trajectory(0.5, p)


@pytest.mark.parametrize("alpha", [3.0, 5.0, -1.0, -1e-300, 1.0 + 2**-52, float("nan")])
def test_kernel_closed_forms_reject_alpha_outside_the_unit_interval(alpha):
    calls = [
        lambda: kernel.kappa(alpha, 0.5),
        lambda: survival(alpha, 0.5),
        lambda: kernel.plus_minus_distance_derivative(alpha, 0.5),
        lambda: lambda_ratio(alpha, 0.1, 0.2),
        lambda: qudit_choi_eigenvalues(alpha, 0.1, 0.2, 3),
        lambda: decay_rate(alpha, 0.5),
        lambda: decay_rate_normalized(alpha, 0.5),
        lambda: kernel.trajectory(alpha, 0.5),
        lambda: crossover_point(alpha),
        lambda: kernel.blp_measure(alpha),  # its check is crossover_point's
        lambda: kernel.hcla_measure(alpha),
        lambda: kernel.hcla_closed_form(alpha),
        lambda: kernel.qutrit_hcla_log_form(alpha),
        lambda: kernel.volume_measure(alpha),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=r"alpha must lie in \[0, 1\]"):
            call()


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
        KrausSet(broken)
    assert np.all(KrausSet(good).completeness_defect() < 1e-12)
