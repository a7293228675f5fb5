"""Command-line front end: parameter sweeps and figure-ready datasets.

Every run evaluates one quantity on a one-dimensional grid and emits a
table, either CSV (header row, ``NA`` for singular samples, 15 significant
digits) or JSON (``{"spec": ..., "columns": ..., "rows": ...}``). Output is
deterministic: no timestamps or randomness enter the payload, so repeated
runs are byte identical.

One table, ``_QUANTITIES``, is the only place a quantity is defined. Its
entry holds the abscissa (``p``, ``q`` or ``alpha``), the default grid,
the allowed ``levels`` and ``qubits``, whether the p range starts at a
pinned ``q`` (which is then checked against the singular value), any
further domain rule, and the column builder that turns a spec and one
alpha into ``(names, fn(grid))`` series groups. ``SweepSpec`` validates
against the entry, ``run_sweep`` evaluates its groups and the command line
takes its default grid from it, so adding a quantity means adding one
entry. ``QUANTITIES`` lists the table's keys in order.

Figure presets ``fig1`` .. ``fig13`` are a second table, ``_FIGURES``,
from figure id to the files the preset writes, each with the pinned
spec(s) behind it; two specs behind one file (``fig4``) are merged column
by column. ``FIGURES`` lists its keys in order.

Every series group is a column function: it takes the whole grid as an
array and returns one float column per series name, NaN marking an NA
sample; ``run_sweep`` turns NaN into ``None`` in one place, and
``SweepTable`` keeps the columns (abscissa first), its ``rows`` being
derived from them. The dense columns (``choi-norm``,
``memory-x``, ``g-function``, ``trace-distance``, ``volume``, ``f-norm``)
run the whole grid through the stacked Kraus -> superoperator -> Choi
route, 32 grid points per block (``matcore.blockwise``) so that the
stacks held at once stay a few hundred kilobytes whatever ``--steps`` is;
with ``q`` pinned, Phi(q, 0)^{-1} is built and SVD-checked once per series,
and ``choi-norm`` computes one ``choi_trace_norm`` column per alpha and N,
whose n-th powers are the n-qubit norms. The stacked route is bit-equal to evaluating the points one by
one. ``choi-eigs`` and ``decay-rate`` evaluate their closed forms on the
whole grid, the ``trajectory`` of one alpha is computed once and feeds its
five columns, and ``hcla`` and ``blp`` call their measure once per alpha.

Grid points inside the singularity guard band, or where a closed form is
undefined, are emitted as ``NA`` samples, never dropped: a mask, computed
once per series, marks them before the column is computed; at alpha = 0
the singular point is the boundary p = 1. A singularity at a *pinned*
parameter (``--q`` within 1e-6 of the singular value for a Choi
quantity) aborts with exit code 3; usage errors exit with code 2. Among
them: a single ``alpha`` for ``hcla`` or ``blp``, which sweep alpha, a
grid bound outside [0, 1], ``levels`` < 2, ``qubits`` < 1, more than
1 000 000 ``steps`` (every row is held in memory), a ``g-function``
grid ending above 1 - 1e-6 (its finite-difference step), a value repeated
in ``alpha``, ``levels`` or ``qubits``, several ``levels`` for a quantity
that takes one, and an output path that cannot be written. Series names
and the CSV metadata echo print numbers with ``:g`` where that reads back
as the same float, and with the shortest round-tripping ``repr``
otherwise.

``DEPOLMARK_THREADS`` is accepted and ignored: sweeps run serially, as
whole-grid columns are faster than the per-point threads they replaced.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field
from typing import Callable, Sequence, TextIO

import numpy as np

from . import __version__
from .channels import apply_channel, qubit_kraus, survival
from .dynmaps import (
    G_FUNCTION_STEP,
    SINGULARITY_GUARD,
    choi_trace_norm,
    crossover_point,
    g_function,
    qudit_choi_eigenvalues,
)
from .geometry import f_matrix, trajectory, volume_determinant
from .matcore import SingularityError, SingularMapError, blockwise
from .measures import (
    blp_measure,
    decay_rate,
    decay_rate_normalized,
    hcla_closed_form,
    hcla_measure,
    memory_witness_X,
    plus_minus_states,
    qutrit_hcla_log_form,
    _survival_derivative,
    trace_distance,
)

__all__ = [
    "SweepSpec",
    "SweepTable",
    "UsageError",
    "run_sweep",
    "figure",
    "write_csv",
    "write_json",
    "main",
    "console_main",
    "QUANTITIES",
    "FIGURES",
]

# Largest accepted number of grid points: a sweep holds every row in memory.
_MAX_STEPS = 1_000_000


class UsageError(ValueError):
    """A sweep specification violates a documented parameter domain."""


@dataclass(frozen=True)
class _Quantity:
    """One entry of the quantity table: what a sweep of this quantity needs to know."""

    # (spec, alpha) -> [(series names, fn(grid) -> one column per name)]; an
    # alpha-swept quantity is built once, with alpha None.
    columns: Callable
    abscissa: str = "p"
    # Default grid; a pinned quantity starts it at q instead.
    grid: tuple = (0.0, 1.0)
    # Allowed values; None allows every levels >= 2.
    levels: tuple | None = (2,)
    qubits: tuple = (1,)
    # The p range starts at or above q, and q is checked against the singularity.
    pinned: bool = False
    # A further domain rule: spec -> None, raising UsageError.
    rule: Callable | None = None

    def check(self, spec: "SweepSpec") -> None:
        """Raise UsageError where ``spec`` leaves this quantity's domain."""
        for axis in ("levels", "qubits"):
            allowed, values = getattr(self, axis), getattr(spec, axis)
            if allowed is None:
                continue
            # One allowed value is the whole list: it is not swept, not even repeated.
            if not (values == allowed if len(allowed) == 1 else all(n in allowed for n in values)):
                single = (self.levels, self.qubits) == ((2,), (1,))
                domain = "the single-qubit family (levels=2, qubits=1)" if single else f"{axis} in {allowed}"
                raise UsageError(f"{spec.quantity} is defined for {domain}, got {axis} = {values}")
        if self.rule is not None:
            self.rule(spec)
        if self.pinned and spec.p_min < spec.q:
            raise UsageError(f"p range must start at or above q = {spec.q}, got p_min = {spec.p_min}")


@dataclass(frozen=True)
class SweepSpec:
    """Validated description of one sweep.

    ``alpha``, ``levels`` and ``qubits`` accept several values at once; the
    sweep then emits one series per combination. ``p_min``/``p_max``/
    ``steps`` describe the abscissa grid of whichever variable the quantity
    sweeps (p, q or alpha, see the quantity table).
    """

    quantity: str
    alpha: tuple = (0.7,)
    q: float = 0.3
    p_min: float = 0.0
    p_max: float = 1.0
    steps: int = 101
    levels: tuple = (2,)
    qubits: tuple = (1,)
    out: str | None = None
    fmt: str = "csv"

    def __post_init__(self) -> None:
        entry = _QUANTITIES.get(self.quantity)
        if entry is None:
            raise UsageError(f"unknown quantity {self.quantity!r}; expected one of {QUANTITIES}")
        object.__setattr__(self, "alpha", tuple(float(a) for a in self.alpha))
        object.__setattr__(self, "levels", tuple(int(n) for n in self.levels))
        object.__setattr__(self, "qubits", tuple(int(n) for n in self.qubits))
        for axis in ("alpha", "levels", "qubits"):
            values = getattr(self, axis)
            if not values:
                raise UsageError(f"at least one {axis} value is required")
            if len(set(values)) != len(values):
                raise UsageError(f"{axis} values must be distinct, got {values}")
        for a in self.alpha:
            if not 0.0 <= a <= 1.0:
                raise UsageError(f"alpha must lie in [0, 1], got {a}")
        if not 0.0 <= self.q <= 1.0:
            raise UsageError(f"q must lie in [0, 1], got {self.q}")
        if not 2 <= self.steps <= _MAX_STEPS:
            raise UsageError(f"steps must lie in [2, {_MAX_STEPS}], got {self.steps}")
        if any(n < 2 for n in self.levels):
            raise UsageError(f"levels must be >= 2, got {self.levels}")
        if any(n < 1 for n in self.qubits):
            raise UsageError(f"qubits must be >= 1, got {self.qubits}")
        if self.fmt not in ("csv", "json"):
            raise UsageError(f"format must be csv or json, got {self.fmt!r}")
        if not self.p_min < self.p_max:
            raise UsageError(f"grid needs min < max, got [{self.p_min}, {self.p_max}]")
        if self.uses_grid() and not (0.0 <= self.p_min and self.p_max <= 1.0):
            raise UsageError(f"{entry.abscissa} grid values must lie in [0, 1], got [{self.p_min}, {self.p_max}]")
        entry.check(self)

    def uses_grid(self) -> bool:
        """False when an alpha-swept quantity takes its several alphas as the grid."""
        return _QUANTITIES[self.quantity].abscissa != "alpha" or len(self.alpha) == 1

    def grid(self) -> np.ndarray:
        return np.linspace(self.p_min, self.p_max, self.steps)

    def metadata(self) -> dict:
        return {
            "tool": "depolmark",
            "version": __version__,
            "quantity": self.quantity,
            "alpha": list(self.alpha),
            "q": self.q,
            "p_min": self.p_min,
            "p_max": self.p_max,
            "steps": self.steps,
            "levels": list(self.levels),
            "qubits": list(self.qubits),
            "format": self.fmt,
        }


@dataclass
class SweepTable:
    """Grid samples of one or more named series over a common abscissa.

    ``columns`` holds the abscissa column first, then one column per series
    name: lists of floats, with ``None`` for an NA sample.
    """

    abscissa_name: str
    series_names: tuple
    columns: list = field(repr=False)
    metadata: dict = field(default_factory=dict)

    @property
    def rows(self) -> list:
        return list(zip(*self.columns))

    def column(self, name: str) -> list:
        return list(self.columns[[self.abscissa_name, *self.series_names].index(name)])


# ---------------------------------------------------------------- series helpers


def _number(value: float) -> str:
    """``:g`` where it reads back as the same float, else the shortest round-tripping repr."""
    short = format(value, "g")
    return short if float(short) == value else repr(value)


def _alpha_tag(alpha: float) -> str:
    return f"alpha{_number(alpha)}"


def _system_tag(spec: SweepSpec, alpha: float, levels: int = 2, qubits: int = 1) -> str:
    """Series suffix naming N and n wherever the spec sweeps them or leaves the single qubit."""
    tag = _alpha_tag(alpha)
    if len(spec.levels) > 1 or levels != 2:
        tag += f"_N{levels}"
    if len(spec.qubits) > 1 or qubits != 1:
        tag += f"_n{qubits}"
    return tag


def _column(name: str, fn: Callable[[np.ndarray], Sequence]) -> tuple:
    """A series group of one column."""
    return (name,), lambda grid: [fn(grid)]


def _dense(fn: Callable[[np.ndarray], np.ndarray]) -> Callable[[np.ndarray], np.ndarray]:
    """Column of a stacked dense-route function, evaluated block by block."""
    return lambda grid: blockwise(fn, grid)


def _masked(mask: Callable[[np.ndarray], np.ndarray], fn: Callable[[np.ndarray], Sequence]) -> Callable:
    """Column of ``fn`` on the grid points outside ``mask(grid)``, NaN (NA) at the masked ones."""

    def column(grid: np.ndarray) -> np.ndarray:
        na = mask(grid)
        out = np.full(grid.shape, np.nan)
        if not na.all():
            out[~na] = fn(grid[~na])
        return out

    return column


def _guard(x, alpha: float, levels: int = 2):
    """Whether x (or each point of a grid) lies inside the guard band of the singular parameter.

    At alpha = 0 that parameter is the boundary p = 1 (``crossover_point`` returns None).
    """
    point = crossover_point(alpha, levels)
    return abs(x - (1.0 if point is None else point)) < SINGULARITY_GUARD


def _check_pinned_q(spec: SweepSpec) -> None:
    """A singular pinned q cannot produce any sample: abort, not NA."""
    for alpha in spec.alpha:
        for levels in spec.levels:
            if _guard(spec.q, alpha, levels):
                raise SingularMapError(
                    f"pinned q = {spec.q} sits at the singular parameter value for "
                    f"alpha = {alpha}, levels = {levels}"
                )


# ---------------------------------------------------------------- column builders


def _choi_eigs(spec: SweepSpec, alpha: float) -> list:
    groups = []
    for n in spec.levels:
        tag = _system_tag(spec, alpha, levels=n)
        names = ("Lambda_I", "Lambda_XYZ") if n == 2 else ("Lambda_top", "Lambda_rest")
        spectrum = lambda grid, n=n: qudit_choi_eigenvalues(alpha, spec.q, grid, n)
        groups.append((tuple(f"{name}_{tag}" for name in names), spectrum))
    return groups


def _choi_norm(spec: SweepSpec, alpha: float) -> list:
    def norms(grid: np.ndarray, n: int) -> list:
        # One N-level column; the n-qubit norm is its n-th power (spec.qubits
        # is (1,) above N = 2), taken per point in Python floats as
        # choi_trace_norm takes it (np.power can differ in the last bit).
        base = choi_trace_norm(alpha, spec.q, grid, n).tolist()
        return [[b**k for b in base] for k in spec.qubits]

    return [
        (tuple(f"choi_norm_{_system_tag(spec, alpha, n, k)}" for k in spec.qubits), lambda grid, n=n: norms(grid, n))
        for n in spec.levels
    ]


def _decay_rate(spec: SweepSpec, alpha: float) -> list:
    n, tag = spec.levels[0], _alpha_tag(alpha)
    # NA in the guard band of each pole (p_- for the rate, p = 1 and p = 0 at
    # alpha = 0) and wherever the library would raise: G = 0 for the rate,
    # G + G' = 0 (alpha + p below about 1e-12) for the normalized rate.
    g = lambda p: survival(alpha, p, n)
    pole = lambda p: _guard(p, alpha, n) | (abs(g(p)) <= 1e-12)
    norm_pole = lambda p: ((alpha == 0.0) & (p < SINGULARITY_GUARD)) | (abs(g(p) + _survival_derivative(alpha, p, n)) <= 1e-12)
    return [
        _column(f"gamma_{tag}", _masked(pole, lambda p: decay_rate(alpha, p, n))),
        _column(f"gamma_normalized_{tag}", _masked(norm_pole, lambda p: decay_rate_normalized(alpha, p, n))),
    ]


def _per_alpha(name: str, fn: Callable[[float], float]) -> tuple:
    """Column of a measure over the alpha grid, one call per alpha."""
    return _column(name, lambda alphas: [fn(a) for a in alphas.tolist()])


def _hcla(spec: SweepSpec, alpha: float | None) -> list:
    n = spec.levels[0]
    closed = ("N_HCLA_closed", lambda a: hcla_closed_form(a).value) if n == 2 else ("N_HCLA_log_form", qutrit_hcla_log_form)
    return [_per_alpha("N_HCLA_numeric", lambda a: hcla_measure(a, n).value), _per_alpha(*closed)]


def _trace_distance(spec: SweepSpec, alpha: float) -> list:
    plus, minus = plus_minus_states()

    def dist(p: np.ndarray) -> np.ndarray:
        kraus = qubit_kraus(alpha, p)
        return trace_distance(apply_channel(kraus, plus), apply_channel(kraus, minus))

    return [_column(f"D_{_alpha_tag(alpha)}", _dense(dist))]


def _trajectory(spec: SweepSpec, alpha: float) -> list:
    def columns(grid: np.ndarray) -> list:
        path = trajectory(alpha, grid)
        return [path.lam, np.abs(path.lam), path.a, path.inside_tetrahedron, path.cp_divisible]

    names = ("lambda", "abs_lambda", "A", "inside_tetrahedron", "cp_divisible")
    return [(tuple(f"{name}_{_alpha_tag(alpha)}" for name in names), columns)]


def _g_function(spec: SweepSpec, alpha: float) -> list:
    return [
        _column(f"g_{_system_tag(spec, alpha, qubits=k)}", _masked(lambda q: _guard(q, alpha), lambda q, k=k: g_function(alpha, q, k)))
        for k in spec.qubits
    ]


# ---------------------------------------------------------------- domain rules


def _one_system_axis(spec: SweepSpec) -> None:
    if len(spec.levels) > 1 and len(spec.qubits) > 1:
        raise UsageError("sweep either levels or qubits, not both")
    if any(n > 2 for n in spec.levels) and any(k > 1 for k in spec.qubits):
        raise UsageError("combined multi-level multi-qubit maps are not supported")


def _one_level(spec: SweepSpec) -> None:
    if len(spec.levels) != 1:
        raise UsageError(f"{spec.quantity} supports a single levels value")


def _step_room(spec: SweepSpec) -> None:
    if spec.p_max + G_FUNCTION_STEP > 1.0:
        raise UsageError(f"g-function sweeps q and requires max + {G_FUNCTION_STEP:g} <= 1")


_QUANTITIES = {
    "choi-eigs": _Quantity(_choi_eigs, levels=(2, 3, 4), pinned=True),
    "choi-norm": _Quantity(_choi_norm, levels=(2, 3, 4), qubits=(1, 2, 3), pinned=True, rule=_one_system_axis),
    "decay-rate": _Quantity(_decay_rate, levels=None, rule=_one_level),
    "hcla": _Quantity(_hcla, abscissa="alpha", levels=(2, 3), rule=_one_level),
    "blp": _Quantity(lambda spec, _: [_per_alpha("N_BLP", lambda a: blp_measure(a).value)], abscissa="alpha"),
    "trace-distance": _Quantity(_trace_distance),
    "memory-x": _Quantity(
        lambda spec, a: [_column(f"X_{_alpha_tag(a)}", lambda grid: memory_witness_X(a, spec.q, grid))],
        pinned=True,
    ),
    "volume": _Quantity(lambda spec, a: [_column(f"volume_{_alpha_tag(a)}", _dense(lambda p: volume_determinant(a, p)))]),
    "trajectory": _Quantity(_trajectory),
    "f-norm": _Quantity(
        lambda spec, a: [_column(f"F{spec.levels[0]}_norm_{_alpha_tag(a)}", _dense(lambda p: f_matrix(a, p, spec.levels[0]).trace_norm))],
        levels=(3, 4),
        rule=_one_level,
    ),
    "g-function": _Quantity(_g_function, abscissa="q", grid=(0.0, 0.98), qubits=(1, 2), rule=_step_room),
}

QUANTITIES = tuple(_QUANTITIES)


def run_sweep(spec: SweepSpec) -> SweepTable:
    """Evaluate the requested quantity on its grid, one column function call per series group.

    Every group returns one float column per name, NaN marking NA; here,
    and only here, NaN becomes the ``None`` sample that the writers print
    as NA. Singular grid points are never dropped.
    """
    entry = _QUANTITIES[spec.quantity]
    if entry.pinned:
        _check_pinned_q(spec)
    grid = spec.grid() if spec.uses_grid() else np.array(spec.alpha)
    names: list = []
    columns: list = [grid.tolist()]
    for alpha in spec.alpha if entry.abscissa != "alpha" else (None,):
        for series_names, fn in entry.columns(spec, alpha):
            names.extend(series_names)
            columns.extend([None if v != v else v for v in np.asarray(column, dtype=float).tolist()] for column in fn(grid))
    return SweepTable(entry.abscissa, tuple(names), columns, spec.metadata())


def _merge(tables: Sequence[SweepTable]) -> SweepTable:
    """Join tables that share an identical abscissa grid; a single table comes back as it is."""
    first = tables[0]
    if len(tables) == 1:
        return first
    for other in tables[1:]:
        if other.abscissa_name != first.abscissa_name or other.columns[0] != first.columns[0]:
            raise ValueError("cannot merge tables with different grids")
    names = tuple(n for t in tables for n in t.series_names)
    columns = [first.columns[0]] + [c for t in tables for c in t.columns[1:]]
    meta = dict(first.metadata)
    meta["merged_quantities"] = [t.metadata.get("quantity") for t in tables]
    return SweepTable(first.abscissa_name, names, columns, meta)


# Figure id -> one (file name, spec, ...) per file written; the specs behind
# one file are merged column by column.
_FIGURES = {
    "fig1": [("fig1", SweepSpec("choi-eigs", alpha=(0.0, 0.7), q=0.3, p_min=0.3, steps=141))],
    "fig2": [("fig2", SweepSpec("choi-eigs", alpha=(0.7,), q=0.8, p_min=0.8))],
    "fig3": [("fig3", SweepSpec("decay-rate", alpha=(0.0, 0.7), steps=201))],
    "fig4": [("fig4", SweepSpec("blp", alpha=(0.7,)), SweepSpec("hcla", alpha=(0.7,)))],
    "fig5": [("fig5", SweepSpec("trace-distance", alpha=(0.0, 0.7, 0.9), steps=201))],
    "fig6": [("fig6", SweepSpec("memory-x", alpha=(0.0, 0.7, 0.8, 0.9, 1.0), q=0.3, p_min=0.3, steps=141))],
    "fig7": [("fig7", SweepSpec("volume", alpha=(0.0, 0.7, 0.8), steps=201))],
    "fig8": [("fig8", SweepSpec("trajectory", alpha=(0.0,), p_max=0.99, steps=100))],
    "fig9": [("fig9", SweepSpec("trajectory", alpha=(0.0, 0.7)))],
    "fig10": [("fig10", SweepSpec("hcla", alpha=(0.7,), levels=(3,)))],
    "fig11": [("fig11", SweepSpec("f-norm", alpha=(0.7,), steps=201, levels=(3,)))],
    "fig12": [
        ("fig12a", SweepSpec("choi-norm", alpha=(0.9,), q=0.4, p_min=0.4, steps=241, qubits=(1, 2, 3))),
        ("fig12b", SweepSpec("choi-norm", alpha=(0.9,), q=0.4, p_min=0.4, steps=241, levels=(2, 3, 4))),
    ],
    "fig13": [("fig13", SweepSpec("g-function", alpha=(0.9,), p_max=0.98, steps=197, qubits=(1, 2)))],
}

FIGURES = tuple(_FIGURES)


def figure(fig_id: str, out_dir: str = ".", fmt: str = "csv") -> list:
    """Write the dataset(s) behind one figure preset; returns the paths."""
    if fmt not in ("csv", "json"):
        raise UsageError(f"format must be csv or json, got {fmt!r}")
    if fig_id not in _FIGURES:
        raise UsageError(f"unknown figure id {fig_id!r}; expected one of {FIGURES}")
    paths = []
    for name, *specs in _FIGURES[fig_id]:
        table = _merge([run_sweep(spec) for spec in specs])
        path = os.path.join(out_dir, f"{name}.{fmt}")
        with _open_out(path) as fh:
            (write_csv if fmt == "csv" else write_json)(table, fh)
        paths.append(path)
    return paths


def _open_out(path: str) -> TextIO:
    """The output file opened for writing; a path that cannot be written is a usage error."""
    try:
        return open(path, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror}") from exc


def _format_value(value: float | None) -> str:
    return "NA" if value is None else format(float(value), ".15g")


def write_csv(table: SweepTable, fh: TextIO) -> None:
    """CSV payload: ``#`` metadata lines, header row, 15-significant-digit rows."""
    for key in sorted(table.metadata):
        fh.write(f"# {key}={_meta_str(table.metadata[key])}\n")
    fh.write(",".join((table.abscissa_name,) + tuple(table.series_names)) + "\n")
    for row in table.rows:
        fh.write(",".join(_format_value(v) for v in row) + "\n")


def _meta_str(value) -> str:
    if isinstance(value, (list, tuple)):
        return ";".join(_meta_str(v) for v in value)
    if isinstance(value, float):
        return _number(value)
    return str(value)


def write_json(table: SweepTable, fh: TextIO) -> None:
    """JSON payload: spec echo, column names and row arrays (null = singular)."""
    payload = {
        "spec": table.metadata,
        "columns": [table.abscissa_name, *table.series_names],
        "rows": [[None if v is None else float(v) for v in row] for row in table.rows],
    }
    json.dump(payload, fh, sort_keys=True)
    fh.write("\n")


def _parse_list(raw: str, kind: type) -> tuple:
    try:
        return tuple(kind(v) for v in raw.split(","))
    except ValueError as exc:
        what = "integers" if kind is int else "numbers"
        raise UsageError(f"expected comma-separated {what}, got {raw!r}") from exc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="depolmark",
        description="Sweep non-Markovian depolarizing channel diagnostics onto plot-ready tables.",
        epilog=(
            "TARGET is a quantity (" + ", ".join(QUANTITIES) + ") or a figure preset "
            "(fig1..fig13). Figure presets pin their own parameters and treat --out as "
            f"an output directory. --steps is capped at {_MAX_STEPS}. Sweeps run serially; "
            "DEPOLMARK_THREADS is accepted and ignored."
        ),
    )
    parser.add_argument("target", choices=QUANTITIES + FIGURES, metavar="TARGET")
    parser.add_argument("--alpha", default=None, help="memory strength(s), comma separated")
    parser.add_argument("--q", type=float, default=None, help="pinned lower timelike parameter")
    parser.add_argument("--p-min", type=float, default=None, help="grid start (p, q or alpha)")
    parser.add_argument("--p-max", type=float, default=None, help="grid end (p, q or alpha)")
    parser.add_argument("--steps", type=int, default=None, help=f"number of grid samples (2 to {_MAX_STEPS})")
    parser.add_argument("--levels", default=None, help="system dimension(s) N, comma separated")
    parser.add_argument("--qubits", default=None, help="qubit count(s) n, comma separated")
    parser.add_argument("--out", default=None, help="output file (sweeps) or directory (figures)")
    parser.add_argument("--format", dest="fmt", choices=("csv", "json"), default=None)
    return parser


def _spec_from_args(args: argparse.Namespace) -> SweepSpec:
    """The sweep the flags ask for; unset flags keep the spec defaults and the entry's default grid."""
    entry = _QUANTITIES[args.target]
    given = {name: getattr(args, name) for name in ("q", "p_min", "p_max", "steps") if getattr(args, name) is not None}
    for name, kind in (("alpha", float), ("levels", int), ("qubits", int)):
        if getattr(args, name) is not None:
            given[name] = _parse_list(getattr(args, name), kind)
    if entry.abscissa == "alpha" and len(given.get("alpha", ())) == 1:
        raise UsageError(
            f"{args.target} sweeps alpha: give two or more --alpha values, or leave --alpha out and set the grid with --p-min/--p-max/--steps"
        )
    given.setdefault("p_min", given.get("q", SweepSpec.q) if entry.pinned else entry.grid[0])
    given.setdefault("p_max", entry.grid[1])
    return SweepSpec(args.target, out=args.out, fmt=args.fmt or "csv", **given)


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point. Exit codes: 0 success, 2 usage error, 3 pinned singularity."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        if args.target in FIGURES:
            sweep_flags = ("alpha", "q", "p_min", "p_max", "steps", "levels", "qubits")
            ignored = [name for name in sweep_flags if getattr(args, name) is not None]
            if ignored:
                print(
                    "depolmark: warning: figure presets pin their own parameters; ignoring "
                    + ", ".join("--" + n.replace("_", "-") for n in ignored),
                    file=sys.stderr,
                )
            paths = figure(args.target, out_dir=args.out or ".", fmt=args.fmt or "csv")
            for path in paths:
                print(path)
            return 0

        spec = _spec_from_args(args)
        table = run_sweep(spec)
        writer = write_csv if spec.fmt == "csv" else write_json
        if spec.out:
            with _open_out(spec.out) as fh:
                writer(table, fh)
        else:
            writer(table, sys.stdout)
        return 0
    except UsageError as exc:
        print(f"depolmark: error: {exc}", file=sys.stderr)
        return 2
    except SingularityError as exc:
        print(f"depolmark: singularity: {exc}", file=sys.stderr)
        return 3


def console_main() -> None:
    raise SystemExit(main())
