"""The block walk of the dense route and the Choi-norm columns it shares.

``matcore.blockwise`` evaluates a grid in blocks of
``max(1, _BUDGET // d**4)`` points, d the system dimension. These tests
check that a block never holds more points than that, that the blocks
tile the grid in order, that the result has the bits of one call per
point, and that no dense preset column depends on the block length. A
single value is a one-point block whose 0-d result comes back as a
float, and an empty grid is one call on empty blocks, so every grid call
of the dense route gives an empty result of the right shape there. The
count tests pin the shared single-system column: the qubit counts of a
``choi-norm`` or ``g-function`` sweep are powers of one column per N (per
alpha and finite-difference step for ``g-function``). Every dense
quantity walks its grid in such blocks, so the stacks a sweep holds stay
bounded whatever its number of steps, and each of the six dense column
functions walks them when called directly; one N = 4 ``f_norm`` block
stays under 2 MiB traced; and the propagator functions take a list grid
as they take an array.
"""

import tracemalloc

import numpy as np
import pytest

from depolmark import channels, cli, dynmaps, geometry, matcore, measures
from depolmark.channels import qudit_kraus
from depolmark.measures import memory_witness_X
from depolmark.cli import SweepSpec, run_sweep
from depolmark.dynmaps import superoperator_of
from depolmark.matcore import blockwise, trace_norm

DENSE_PRESETS = ["fig5", "fig6", "fig7", "fig11", "fig12", "fig13"]


def recording(fn, blocks: list):
    """``fn``, recording the grid blocks it is called with."""

    def wrapper(*grids):
        blocks.append([g.tolist() for g in grids])
        return fn(*grids)

    return wrapper


def superoperator_norm(p):
    return trace_norm(superoperator_of(qudit_kraus(0.7, p, 4)).matrix)


@pytest.mark.parametrize("dim,points", [(4, 200), (3, 450), (2, 2100)])
def test_blocks_hold_the_budget_and_tile_the_grid_in_order(dim, points):
    grid = np.linspace(0.0, 1.0, points)
    blocks: list = []
    out = blockwise(recording(lambda p: p * p + 1.0, blocks), grid, dim=dim)
    size = max(1, matcore._BUDGET // dim**4)
    assert len(blocks) == -(-points // size) >= 3
    assert all(len(b[0]) == size for b in blocks[:-1]) and 0 < len(blocks[-1][0]) <= size
    assert [x for b in blocks for x in b[0]] == grid.tolist()
    assert out.tolist() == [x * x + 1.0 for x in grid.tolist()]


def test_block_walk_has_the_bits_of_single_point_calls():
    grid = np.linspace(0.0, 1.0, 150)  # three blocks at d = 4
    column = blockwise(superoperator_norm, grid, dim=4)
    assert [v.hex() for v in column.tolist()] == [superoperator_norm(np.asarray(p)).hex() for p in grid.tolist()]


def test_broadcast_q_grid_walks_every_pair_once():
    q = np.array([[0.1], [0.2], [0.3]])
    p = np.linspace(0.3, 1.0, 100)
    blocks: list = []
    out = blockwise(recording(lambda qb, pb: np.stack([qb, pb * qb], axis=-1), blocks), q, p, dim=3)
    assert out.shape == (3, 100, 2)
    assert [len(b[0]) for b in blocks] == [202, 98]
    pairs = [pair for b in blocks for pair in zip(*b)]
    assert pairs == [(qi, pi) for qi in (0.1, 0.2, 0.3) for pi in p.tolist()]
    assert out[..., 1].tolist() == [[pi * qi for pi in p.tolist()] for qi in (0.1, 0.2, 0.3)]


def test_a_scalar_is_a_one_point_block_and_a_0d_result_comes_back_as_a_float():
    blocks: list = []
    out = blockwise(recording(lambda q, p: q + p, blocks), 0.3, 0.5, dim=2)
    assert blocks == [[[0.3], [0.5]]]
    assert type(out) is float and out == 0.3 + 0.5


def test_an_empty_grid_is_one_call_on_empty_blocks_and_keeps_the_trailing_axes():
    blocks: list = []
    out = blockwise(recording(lambda q, p: np.zeros((p.size, 3, 3)), blocks), 0.3, [], dim=2)
    assert blocks == [[[], []]]
    assert out.shape == (0, 3, 3)


# The twelve grid calls of the dense route, each with the shape its result
# has on an empty grid: a column, a map or Choi stack, or a Kraus stack.
EMPTY_GRID_CALLS = [
    pytest.param(lambda g: channels.qubit_kraus(0.7, g).shape, (0,), id="qubit_kraus"),
    pytest.param(lambda g: channels.qudit_kraus(0.7, g, 3).shape, (0,), id="qudit_kraus"),
    pytest.param(lambda g: geometry.affine_map_of(0.7, g).matrix.shape, (0, 4, 4), id="affine_map_of"),
    pytest.param(lambda g: geometry.f_matrix(0.7, g, 3).matrix.shape, (0, 9, 9), id="f_matrix"),
    pytest.param(lambda g: geometry.volume_determinant(0.7, g).shape, (0,), id="volume_determinant"),
    pytest.param(lambda g: geometry.f_norm(0.7, g, 4).shape, (0,), id="f_norm"),
    pytest.param(lambda g: dynmaps.intermediate_map(0.7, 0.3, g, qubits=2).matrix.shape, (0, 16, 16), id="intermediate_map"),
    pytest.param(lambda g: dynmaps.intermediate_choi(0.7, 0.3, g, levels=3).matrix.shape, (0, 9, 9), id="intermediate_choi"),
    pytest.param(lambda g: dynmaps.choi_trace_norm(0.7, 0.3, g).shape, (0,), id="choi_trace_norm"),
    pytest.param(lambda g: dynmaps.g_function(0.9, g).shape, (0,), id="g_function"),
    pytest.param(lambda g: measures.plus_minus_distance(0.7, g).shape, (0,), id="plus_minus_distance"),
    pytest.param(lambda g: measures.memory_witness_X(0.7, 0.3, g).shape, (0,), id="memory_witness_X"),
]


@pytest.mark.parametrize("grid", [[], np.array([])], ids=["list", "array"])
@pytest.mark.parametrize("call,shape", EMPTY_GRID_CALLS)
def test_an_empty_grid_gives_an_empty_result(call, shape, grid):
    assert call(grid) == shape


def test_g_function_on_an_empty_grid_gives_one_empty_column_per_count():
    columns = dynmaps.g_function(0.9, [], (1, 2))
    assert [c.shape for c in columns] == [(0,), (0,)]


# The six dense column functions, as functions of their grid.
COLUMN_FUNCTIONS = [
    pytest.param(lambda p: measures.plus_minus_distance(0.7, p), id="plus_minus_distance"),
    pytest.param(lambda p: measures.memory_witness_X(0.7, 0.3, p), id="memory_witness_X"),
    pytest.param(lambda p: geometry.volume_determinant(0.7, p), id="volume_determinant"),
    pytest.param(lambda p: geometry.f_norm(0.7, p, 3), id="f_norm"),
    pytest.param(lambda p: dynmaps.choi_trace_norm(0.7, 0.3, p, qubits=2), id="choi_trace_norm"),
    pytest.param(lambda p: dynmaps.g_function(0.9, p), id="g_function"),
]


@pytest.mark.parametrize("column", COLUMN_FUNCTIONS)
def test_a_scalar_call_gives_a_float_with_the_bits_of_a_one_point_grid(column):
    value = column(0.8)
    assert type(value) is float
    assert value.hex() == column([0.8])[0].hex()


@pytest.mark.parametrize("fig_id", DENSE_PRESETS)
def test_dense_preset_columns_do_not_depend_on_the_block_length(fig_id, monkeypatch):
    specs = [spec for _, *specs in cli._FIGURES[fig_id] for spec in specs]

    def cells() -> list:
        return [[["NA" if v is None else v.hex() for v in col] for col in run_sweep(spec).columns] for spec in specs]

    default = cells()
    monkeypatch.setattr(matcore, "_BUDGET", 1)  # one point per block
    assert cells() == default


def counting(monkeypatch) -> list:
    calls: list = []
    column = dynmaps.propagator_column

    def wrapper(fn, alpha, q, p, levels=2):
        calls.append((alpha, levels))
        return column(fn, alpha, q, p, levels)

    monkeypatch.setattr(dynmaps, "propagator_column", wrapper)
    return calls


def test_g_function_takes_one_column_per_alpha_and_step(monkeypatch):
    calls = counting(monkeypatch)
    spec = SweepSpec("g-function", alpha=(0.0, 0.9), p_min=0.7, p_max=0.95, steps=6, qubits=(1, 2))
    table = run_sweep(spec)
    assert calls == [(0.0, 2)] * 2 + [(0.9, 2)] * 2
    for k in (1, 2):
        column = table.column(f"g_alpha0.9_n{k}")
        assert column == dynmaps.g_function(0.9, np.array(spec.grid()), k).tolist()


@pytest.mark.parametrize("axis,values,expected", [("qubits", (1, 2, 3), [2]), ("levels", (2, 3, 4), [2, 3, 4])])
def test_choi_norm_takes_one_column_per_n(monkeypatch, axis, values, expected):
    calls = counting(monkeypatch)
    spec = SweepSpec("choi-norm", alpha=(0.9,), q=0.4, p_min=0.4, steps=21, **{axis: values})
    table = run_sweep(spec)
    assert [levels for _, levels in calls] == expected
    for name, column in zip(table.series_names, table.columns[1:]):
        levels, qubits = (2, int(name[-1])) if axis == "qubits" else (int(name[-1]), 1)
        assert column == dynmaps.choi_trace_norm(0.9, 0.4, np.array(spec.grid()), levels, qubits).tolist()


def test_a_tuple_of_counts_gives_the_bits_of_one_call_per_count():
    grid = np.linspace(0.4, 1.0, 31)
    norms = dynmaps.choi_trace_norm(0.9, 0.4, grid, qubits=(1, 2, 3))
    assert [n.tolist() for n in norms] == [dynmaps.choi_trace_norm(0.9, 0.4, grid, qubits=k).tolist() for k in (1, 2, 3)]
    q = np.linspace(0.7, 0.95, 11)
    gs = dynmaps.g_function(0.9, q, (1, 2))
    assert [g.tolist() for g in gs] == [dynmaps.g_function(0.9, q, k).tolist() for k in (1, 2)]
    assert dynmaps.g_function(0.9, 0.9, (2,)) == [dynmaps.g_function(0.9, 0.9, 2)]


def test_qubit_norms_of_a_broadcast_grid_keep_its_shape():
    q, p = np.array([[0.4], [0.5]]), np.array([0.6, 0.7, 0.9])
    got = dynmaps.choi_trace_norm(0.9, q, p, qubits=2)
    assert got.shape == (2, 3)
    assert got.tolist() == [[dynmaps.choi_trace_norm(0.9, qi, pi, qubits=2) for pi in p.tolist()] for qi in (0.4, 0.5)]


# One small sweep of each dense quantity: more grid points than a block at
# the budget below holds, every system size the quantity takes.
DENSE_SWEEPS = [
    SweepSpec("trace-distance", alpha=(0.0, 0.7), steps=11),
    SweepSpec("memory-x", alpha=(0.7,), q=0.3, p_min=0.3, steps=11),
    SweepSpec("volume", alpha=(0.7,), steps=11),
    SweepSpec("f-norm", alpha=(0.7,), steps=3, levels=(3,)),
    SweepSpec("f-norm", alpha=(0.7,), steps=3, levels=(4,)),
    SweepSpec("choi-norm", alpha=(0.9,), q=0.4, p_min=0.4, steps=11, qubits=(1, 2, 3)),
    SweepSpec("choi-norm", alpha=(0.9,), q=0.4, p_min=0.4, steps=3, levels=(2, 3, 4)),
    SweepSpec("g-function", alpha=(0.9,), p_min=0.7, p_max=0.95, steps=11, qubits=(1, 2)),
]


@pytest.mark.parametrize("spec", DENSE_SWEEPS, ids=lambda spec: f"{spec.quantity}-{spec.levels}-{spec.qubits}")
def test_every_dense_column_walks_its_grid_in_budgeted_blocks(spec, monkeypatch):
    budget, sizes = 64, []
    kraus_set = channels._kraus_set

    def spy(alpha, p, levels, *rest):
        sizes.append((levels, np.size(p)))
        return kraus_set(alpha, p, levels, *rest)

    monkeypatch.setattr(matcore, "_BUDGET", budget)
    monkeypatch.setattr(channels, "_kraus_set", spy)
    run_sweep(spec)
    assert len(sizes) > 1
    assert all(points <= max(1, budget // levels**4) for levels, points in sizes), sizes


# The six dense column functions, each called on a list grid.
DENSE_COLUMNS = [
    pytest.param(lambda grid: measures.plus_minus_distance(0.7, grid), id="plus_minus_distance"),
    pytest.param(lambda grid: measures.memory_witness_X(0.7, 0.3, grid), id="memory_witness_X"),
    pytest.param(lambda grid: geometry.volume_determinant(0.7, grid), id="volume_determinant"),
    pytest.param(lambda grid: geometry.f_norm(0.7, grid, 3), id="f_norm-N3"),
    pytest.param(lambda grid: geometry.f_norm(0.7, grid, 4), id="f_norm-N4"),
    pytest.param(lambda grid: dynmaps.choi_trace_norm(0.7, 0.3, grid, 3), id="choi_trace_norm-N3"),
    pytest.param(lambda grid: dynmaps.choi_trace_norm(0.7, 0.3, grid, qubits=(1, 2)), id="choi_trace_norm-qubits"),
    pytest.param(lambda grid: dynmaps.g_function(0.7, grid, (1, 2)), id="g_function"),
]


@pytest.mark.parametrize("column", DENSE_COLUMNS)
def test_dense_column_functions_walk_budgeted_blocks_when_called_directly(column, monkeypatch):
    budget, sizes = 64, []
    kraus_set = channels._kraus_set

    def spy(alpha, p, levels, *rest):
        sizes.append((levels, np.size(p)))
        return kraus_set(alpha, p, levels, *rest)

    monkeypatch.setattr(matcore, "_BUDGET", budget)
    monkeypatch.setattr(channels, "_kraus_set", spy)
    column(np.linspace(0.3, 0.6, 9).tolist())  # more points than a block holds at N = 2
    assert len(sizes) > 1
    assert all(points <= max(1, budget // levels**4) for levels, points in sizes), sizes


def test_one_f_norm_block_holds_no_stack_of_transfer_products():
    # One 64-point block at N = 4 holds the images Phi(G_j) and one row of
    # the table at a time (1.25 MiB traced); the (block, N^2, N^2, N, N)
    # stack of products G_i Phi(G_j) alone would take 4 MiB.
    grid = np.linspace(0.0, 1.0, max(1, matcore._BUDGET // 4**4))
    geometry.f_norm(0.7, grid, 4)
    tracemalloc.start()
    try:
        geometry.f_norm(0.7, grid, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_list_grids_give_the_bits_of_array_grids():
    grid = [0.4, 0.5, 0.55]
    for fn in (
        lambda p: memory_witness_X(0.5, 0.3, p),
        lambda p: dynmaps.choi_trace_norm(0.5, 0.3, p),
        lambda p: dynmaps.choi_trace_norm(0.5, 0.3, p, qubits=(1, 2))[1],
        lambda p: dynmaps.g_function(0.5, p),
        lambda p: dynmaps.intermediate_choi(0.5, 0.3, p).matrix,
    ):
        from_list, from_array = fn(grid), fn(np.array(grid))
        assert from_list.shape == from_array.shape == (3,) + from_array.shape[1:]
        assert from_list.tobytes() == from_array.tobytes()
