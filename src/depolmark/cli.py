"""Command-line front end: parameter sweeps and figure-ready datasets.

Every run evaluates one quantity on a one-dimensional grid and emits a
table, either CSV (header row, ``NA`` for singular samples, 15 significant
digits) or JSON (``{"spec": ..., "columns": ..., "rows": ...}``). Output is
deterministic: no timestamps or randomness enter the payload, so repeated
runs are byte identical.

One table, ``_QUANTITIES``, is the only place a quantity is defined. Its
entry holds the abscissa (``p``, ``q`` or ``alpha``), the default grid,
the allowed ``levels`` (the first one the default) and ``qubits``, whether
the p range starts at a pinned ``q`` (which is then checked against the
singular value), any further domain rule, and the column builder that
turns a spec and one alpha into ``(names, fn(grid))`` series groups.
``SweepSpec`` takes the defaults it is not given from the entry (the grid,
started at ``q`` when q is pinned, and the first allowed level) and
validates against it; ``run_sweep`` evaluates its groups. The command line
only turns the flags given into fields, so ``SweepSpec("f-norm")`` and a
bare ``depolmark f-norm`` are the same sweep, and adding a quantity means
adding one entry. ``QUANTITIES`` lists the table's keys in order.

Figure presets ``fig1`` .. ``fig13`` are a second table, ``_FIGURES``,
from figure id to the files the preset writes, each with the pinned
spec(s) behind it; two specs behind one file (``fig4``) are merged column
by column. ``FIGURES`` lists its keys in order.

Every series group has one shape, ``_series(names, fn, mask)``: ``fn``
takes the grid points outside ``mask`` as a list of floats and returns
one column per series name, and the masked points read NaN. ``run_sweep``
turns each cell into a Python float, and NaN into ``None``, in one place,
and ``SweepTable`` keeps the columns (abscissa first), its ``rows`` being
derived from them. ``SweepSpec.grid`` performs ``np.linspace``'s own
arithmetic on Python floats, so the grid is bit-equal to numpy's.
``choi-eigs``, ``decay-rate``, ``trajectory``, ``hcla`` and ``blp`` use
the per-point adapter ``_points``: it calls a scalar function once per
grid point (or alpha), which returns one value per series name.
``kernel``'s closed forms give the bits the whole-array call gives (IEEE
arithmetic), one ``kernel.trajectory`` call feeds the five ``trajectory``
columns (its two flags written as 1.0/0.0), and ``hcla`` and ``blp`` call
their measure once per alpha. The dense columns (``choi-norm``,
``memory-x``, ``g-function``, ``trace-distance``, ``volume``, ``f-norm``)
hand the list to the library, which runs it through the stacked Kraus ->
superoperator -> Choi route in blocks of ``max(1, 2**14 // N**4)`` grid
points (``matcore.blockwise``), so that a block's superoperators hold at
most 2**14 complex entries (256 KiB) whatever ``--steps`` is: the three
one-step builders (``trace-distance``, ``volume``, ``f-norm``) call
``blockwise`` themselves, and the propagator columns walk their blocks in
``dynmaps.propagator_column``, where with ``q`` pinned Phi(q, 0)^{-1} is
built and SVD-checked once per series. ``choi-norm`` computes one
single-system ``choi_trace_norm`` column per alpha and N, and
``g-function`` one per alpha and finite-difference step; their n-th
powers are the n-qubit norms. The stacked route is bit-equal to
evaluating the points one by one.

Grid points inside the singularity guard band, or where a closed form is
undefined, are emitted as ``NA`` samples, never dropped: a mask marks them
before the column is computed, point by point for a closed form and once
per alpha for ``g-function``; at alpha = 0 the singular point is the
boundary p = 1. A singularity at a *pinned* parameter (``q`` within 1e-6
of the singular value for a Choi quantity) is refused when the
``SweepSpec`` is built, with ``SingularMapError``, and the command exits
with code 3; usage errors exit with code 2. Among them: a grid bound
outside [0, 1], ``levels`` < 2, ``qubits`` < 1, more than 1 000 000
``steps`` (every row is held in memory), a ``g-function`` grid ending
above 1 - 1e-6 (its finite-difference step), a value repeated in
``alpha``, ``levels`` or ``qubits``, several ``levels`` for a quantity
that takes one, a non-integer ``steps``, ``levels`` or ``qubits`` or a
non-numeric ``alpha``, ``q`` or grid bound given to ``SweepSpec``, an
``--alpha``, ``--levels`` or ``--qubits`` that is not a comma-separated
list (argparse names the flag), a format other than csv or json given to
``figure``, and any output that cannot be opened or written: an ``--out``
file, a preset's file or stdout (a full disk, a closed pipe). That one
prints ``cannot write <dest>: <reason>`` and no traceback, and a broken
stdout is pointed at the null device so the interpreter's last flush stays
silent. Two refusals depend on a flag being given at all, so they live on
the command line alone, never in ``SweepSpec`` (its defaults
``alpha=(0.7,)`` and ``q=0.3`` are echoed in every table): a single ``--alpha``
for ``hcla`` or ``blp``, which sweep alpha, and ``--q`` for a quantity
that does not pin q (only ``choi-eigs``, ``choi-norm`` and ``memory-x``
read it). Series names and the CSV metadata echo print numbers with ``:g``
where that reads back as the same float, and with the shortest
round-tripping ``repr`` otherwise; ``SweepSpec`` adds 0.0 to ``alpha``,
``q`` and the grid bounds, so a -0.0 prints and names as 0.

At module level this file imports the standard library and the numpy-free
``kernel`` only: parsing, ``SweepSpec`` validation (the pinned-q check and
the ``_FIGURES`` table included), the grid, ``run_sweep``, the closed-form
columns and every exit-2 or exit-3 path run without numpy, so ``choi-eigs``,
``decay-rate``, ``trajectory`` and the presets ``fig1``, ``fig2``,
``fig3``, ``fig8`` and ``fig9`` load ``cli`` and ``kernel`` alone. This
file imports numpy nowhere: the dense builders, ``hcla`` and ``blp``
import the library modules they call when they run, and those load numpy,
so a command loads only the modules its quantity needs, and library
functions are looked up at call time.

``SweepSpec`` holds the sweep and nothing else: its ``metadata()`` is its
fields, and the command line's ``--out`` and ``--format`` go to the
writers, never into the spec. Each writer adds its own ``format`` (csv or
json) to the metadata it prints. Library callers hand ``write_csv`` or
``write_json`` an open file, and ``figure`` a directory and a format.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import operator
import os
import sys
from dataclasses import dataclass, field, fields
from typing import Callable, Sequence, TextIO

from . import __version__
from .kernel import G_FUNCTION_STEP, SINGULARITY_GUARD, ZERO_FLOOR, SingularityError, SingularMapError, _guard
from .kernel import _survival_derivative, decay_rate, decay_rate_normalized, qudit_choi_eigenvalues, survival, trajectory

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
    # Allowed values, the first one the default; None allows every levels >= 2 (default 2).
    levels: tuple | None = (2,)
    qubits: tuple = (1,)
    # The p range starts at or above q, and q is checked against the singularity.
    pinned: bool = False
    # A further domain rule: spec -> None, raising UsageError.
    rule: Callable | None = None

    def check(self, spec: "SweepSpec") -> None:
        """Raise UsageError where ``spec`` leaves this quantity's domain, SingularMapError at a singular pinned q."""
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
        if not self.pinned:
            return
        if spec.p_min < spec.q:
            raise UsageError(f"p range must start at or above q = {spec.q}, got p_min = {spec.p_min}")
        # A singular pinned q cannot produce any sample: abort, not NA.
        for alpha in spec.alpha:
            for levels in spec.levels:
                if _guard(spec.q, alpha, levels):
                    raise SingularMapError(f"pinned q = {spec.q} sits at the singular parameter value for alpha = {alpha}, levels = {levels}")


@dataclass(frozen=True)
class SweepSpec:
    """Validated description of one sweep.

    ``alpha``, ``levels`` and ``qubits`` accept several values at once; the
    sweep then emits one series per combination. ``p_min``/``p_max``/
    ``steps`` describe the abscissa grid of whichever variable the quantity
    sweeps (p, q or alpha, see the quantity table). ``p_min``, ``p_max``
    and ``levels`` left at None take the quantity's defaults: its grid
    (from ``q`` when it pins q) and its first allowed level.
    """

    quantity: str
    alpha: tuple = (0.7,)
    q: float = 0.3
    p_min: float | None = None
    p_max: float | None = None
    steps: int = 101
    levels: tuple | None = None
    qubits: tuple = (1,)

    def __post_init__(self) -> None:
        entry = _QUANTITIES.get(self.quantity) if isinstance(self.quantity, str) else None
        if entry is None:
            raise UsageError(f"unknown quantity {self.quantity!r}; expected one of {QUANTITIES}")
        default = {"p_min": self.q if entry.pinned else entry.grid[0], "p_max": entry.grid[1], "levels": (entry.levels or (2,))[:1]}
        for name, value in default.items():
            if getattr(self, name) is None:
                object.__setattr__(self, name, value)
        for name in ("alpha", "q", "p_min", "p_max", "steps", "levels", "qubits"):
            value = getattr(self, name)
            convert = operator.index if name in ("steps", "levels", "qubits") else _real
            try:
                object.__setattr__(self, name, tuple(map(convert, value)) if name in ("alpha", "levels", "qubits") else convert(value))
            except TypeError:
                raise UsageError(f"{name} takes {'integers' if convert is operator.index else 'numbers'} only, got {value!r}") from None
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
        if not self.p_min < self.p_max:
            raise UsageError(f"grid needs min < max, got [{self.p_min}, {self.p_max}]")
        if self.uses_grid() and not (0.0 <= self.p_min and self.p_max <= 1.0):
            raise UsageError(f"{entry.abscissa} grid values must lie in [0, 1], got [{self.p_min}, {self.p_max}]")
        entry.check(self)

    def uses_grid(self) -> bool:
        """False when an alpha-swept quantity takes its several alphas as the grid."""
        return _QUANTITIES[self.quantity].abscissa != "alpha" or len(self.alpha) == 1

    def grid(self) -> list:
        """``np.linspace(p_min, p_max, steps)`` in Python floats, bit for bit: numpy's own arithmetic."""
        div, delta = self.steps - 1, self.p_max - self.p_min
        step = delta / div
        if step == 0:  # numpy's branch for a step that underflows to zero
            points = [i / div * delta + self.p_min for i in range(div)]
        else:
            points = [i * step + self.p_min for i in range(div)]
        return points + [self.p_max]

    def metadata(self) -> dict:
        """The spec's fields (tuples as lists) after the tool and version; the writers add the format."""
        meta = {"tool": "depolmark", "version": __version__}
        for f in fields(self):
            value = getattr(self, f.name)
            meta[f.name] = list(value) if isinstance(value, tuple) else value
        return meta


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


def _real(value) -> float:
    """A number (numpy scalars included) as a float; TypeError for a string, as ``float`` gives for a non-number."""
    if isinstance(value, (str, bytes, bytearray)):
        raise TypeError(f"{value!r} is not a number")
    # Adding 0.0 turns a -0.0 into 0.0, which names and prints as 0.
    return float(value) + 0.0


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


def _series(names: tuple, fn: Callable[[list], Sequence], mask: Callable[[float], bool] | None = None) -> tuple:
    """A series group: ``fn`` maps the grid points outside ``mask``, as a list, to one column per name; masked points read NaN (NA)."""

    def columns(grid: list) -> Sequence:
        if mask is None:  # nothing to fill: skips a pass per column on large unmasked grids
            return fn(grid)
        na = [mask(x) for x in grid]
        kept = [x for x, masked in zip(grid, na) if not masked]
        # With every point masked fn is not called: no column value is read.
        return [[math.nan if masked else next(values) for masked in na] for values in map(iter, fn(kept) if kept else [()] * len(names))]

    return names, columns


def _points(names: tuple, fn: Callable[[float], tuple], mask: Callable[[float], bool] | None = None) -> tuple:
    """A series group evaluated point by point: ``fn(x)`` gives one value per name."""
    return _series(names, lambda xs: list(zip(*map(fn, xs))), mask)


# ---------------------------------------------------------------- column builders


def _choi_eigs(spec: SweepSpec, alpha: float) -> list:
    def spectrum(n: int) -> tuple:
        names = ("Lambda_I", "Lambda_XYZ") if n == 2 else ("Lambda_top", "Lambda_rest")
        tag = _system_tag(spec, alpha, levels=n)
        return _points(tuple(f"{name}_{tag}" for name in names), lambda p: qudit_choi_eigenvalues(alpha, spec.q, p, n))

    return [spectrum(n) for n in spec.levels]


def _choi_norm(spec: SweepSpec, alpha: float) -> list:
    from .dynmaps import choi_trace_norm

    # One N-level column per N, and its n-th powers (spec.qubits is (1,) above N = 2).
    names = lambda n: tuple(f"choi_norm_{_system_tag(spec, alpha, n, k)}" for k in spec.qubits)
    return [_series(names(n), lambda grid, n=n: choi_trace_norm(alpha, spec.q, grid, n, spec.qubits)) for n in spec.levels]


def _decay_rate(spec: SweepSpec, alpha: float) -> list:
    n, tag = spec.levels[0], _alpha_tag(alpha)
    # NA in the guard band of each pole (p_- for the rate, p = 1 and p = 0 at
    # alpha = 0) and wherever the library would raise: G = 0 for the rate,
    # G + G' = 0 (alpha + p below about 1e-12) for the normalized rate.
    g = lambda p: survival(alpha, p, n)
    pole = lambda p: _guard(p, alpha, n) or abs(g(p)) <= ZERO_FLOOR
    norm_pole = lambda p: (alpha == 0.0 and p < SINGULARITY_GUARD) or abs(g(p) + _survival_derivative(alpha, p, n)) <= ZERO_FLOOR
    return [
        _points((f"gamma_{tag}",), lambda p: (decay_rate(alpha, p, n),), pole),
        _points((f"gamma_normalized_{tag}",), lambda p: (decay_rate_normalized(alpha, p, n),), norm_pole),
    ]


def _hcla(spec: SweepSpec, alpha: float | None) -> list:
    from .measures import hcla_closed_form, hcla_measure, qutrit_hcla_log_form

    n = spec.levels[0]
    name, closed = ("N_HCLA_closed", hcla_closed_form) if n == 2 else ("N_HCLA_log_form", qutrit_hcla_log_form)
    return [_points(("N_HCLA_numeric", name), lambda a: (hcla_measure(a, n), closed(a)))]


def _blp(spec: SweepSpec, alpha: None) -> list:
    from .measures import blp_measure

    return [_points(("N_BLP",), lambda a: (blp_measure(a),))]


def _trace_distance(spec: SweepSpec, alpha: float) -> list:
    from .channels import apply_channel, qubit_kraus
    from .matcore import blockwise
    from .measures import plus_minus_states, trace_distance

    plus, minus = plus_minus_states()

    def dist(p):
        kraus = qubit_kraus(alpha, p)
        return trace_distance(apply_channel(kraus, plus), apply_channel(kraus, minus))

    return [_series((f"D_{_alpha_tag(alpha)}",), lambda grid: [blockwise(dist, grid, dim=2)])]


def _memory_x(spec: SweepSpec, alpha: float) -> list:
    from .measures import memory_witness_X

    return [_series((f"X_{_alpha_tag(alpha)}",), lambda grid: [memory_witness_X(alpha, spec.q, grid)])]


def _volume(spec: SweepSpec, alpha: float) -> list:
    from .geometry import volume_determinant
    from .matcore import blockwise

    return [_series((f"volume_{_alpha_tag(alpha)}",), lambda grid: [blockwise(lambda p: volume_determinant(alpha, p), grid, dim=2)])]


def _trajectory(spec: SweepSpec, alpha: float) -> list:
    def point(p: float) -> tuple:
        lam, a, inside, divisible = trajectory(alpha, p)
        return lam, abs(lam), a, float(inside), float(divisible)

    names = ("lambda", "abs_lambda", "A", "inside_tetrahedron", "cp_divisible")
    return [_points(tuple(f"{name}_{_alpha_tag(alpha)}" for name in names), point)]


def _f_norm(spec: SweepSpec, alpha: float) -> list:
    from .geometry import f_matrix
    from .matcore import blockwise

    n = spec.levels[0]
    return [_series((f"F{n}_norm_{_alpha_tag(alpha)}",), lambda grid: [blockwise(lambda p: f_matrix(alpha, p, n).trace_norm, grid, dim=n)])]


def _g_function(spec: SweepSpec, alpha: float) -> list:
    from .dynmaps import g_function

    names = tuple(f"g_{_system_tag(spec, alpha, qubits=k)}" for k in spec.qubits)
    return [_series(names, lambda q: g_function(alpha, q, spec.qubits), lambda q: _guard(q, alpha))]


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
    "blp": _Quantity(_blp, abscissa="alpha"),
    "trace-distance": _Quantity(_trace_distance),
    "memory-x": _Quantity(_memory_x, pinned=True),
    "volume": _Quantity(_volume),
    "trajectory": _Quantity(_trajectory),
    "f-norm": _Quantity(_f_norm, levels=(3, 4), rule=_one_level),
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
    grid = spec.grid() if spec.uses_grid() else list(spec.alpha)
    names: list = []
    columns: list = [grid]
    for alpha in spec.alpha if entry.abscissa != "alpha" else (None,):
        for series_names, fn in entry.columns(spec, alpha):
            names.extend(series_names)
            columns.extend([None if v != v else float(v) for v in column] for column in fn(grid))
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
    """Write the dataset(s) behind one figure preset in ``fmt``, csv or json; returns the paths."""
    if fig_id not in _FIGURES:
        raise UsageError(f"unknown figure id {fig_id!r}; expected one of {FIGURES}")
    if fmt not in ("csv", "json"):
        raise UsageError(f"format must be csv or json, got {fmt!r}")
    paths = []
    for name, *specs in _FIGURES[fig_id]:
        table = _merge([run_sweep(spec) for spec in specs])
        path = os.path.join(out_dir, f"{name}.{fmt}")
        _write_out(path, lambda fh: (write_csv if fmt == "csv" else write_json)(table, fh))
        paths.append(path)
    return paths


def _write_out(path: str | None, write: Callable[[TextIO], None]) -> None:
    """Run ``write`` on the file at ``path``, or on stdout (then flushed) when there is none.

    A failed open or write is a usage error naming the destination. A broken
    stdout is pointed at the null device, so that the interpreter's last
    flush at exit stays silent.
    """
    try:
        with open(path, "w", encoding="utf-8", newline="") if path else contextlib.nullcontext(sys.stdout) as fh:
            write(fh)
            fh.flush()
    except OSError as exc:
        if not path:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        raise UsageError(f"cannot write {path or 'stdout'}: {exc.strerror}") from exc


def _format_value(value: float | None) -> str:
    return "NA" if value is None else format(float(value), ".15g")


def write_csv(table: SweepTable, fh: TextIO) -> None:
    """CSV payload: ``#`` metadata lines (``format=csv`` among them), header row, 15-significant-digit rows."""
    meta = {**table.metadata, "format": "csv"}
    for key in sorted(meta):
        fh.write(f"# {key}={_meta_str(meta[key])}\n")
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
    """JSON payload: spec echo (``"format": "json"`` in it), column names and row arrays (null = singular)."""
    payload = {
        "spec": {**table.metadata, "format": "json"},
        "columns": [table.abscissa_name, *table.series_names],
        "rows": [[None if v is None else float(v) for v in row] for row in table.rows],
    }
    json.dump(payload, fh, sort_keys=True)
    fh.write("\n")


def _list_of(kind: type, what: str) -> Callable[[str], tuple]:
    """An argparse ``type=`` for a comma-separated flag; argparse names the flag in its error."""

    def parse(raw: str) -> tuple:
        try:
            return tuple(map(kind, raw.split(",")))
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected comma-separated {what}, got {raw!r}") from None

    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="depolmark",
        description="Sweep non-Markovian depolarizing channel diagnostics onto plot-ready tables.",
        epilog=(
            "TARGET is a quantity (" + ", ".join(QUANTITIES) + ") or a figure preset "
            "(fig1..fig13). Figure presets pin their own parameters and treat --out as "
            f"an output directory. --steps is capped at {_MAX_STEPS}."
        ),
    )
    parser.add_argument("target", choices=QUANTITIES + FIGURES, metavar="TARGET")
    parser.add_argument("--alpha", type=_list_of(float, "numbers"), default=None, help="memory strength(s), comma separated")
    parser.add_argument("--q", type=float, default=None, help="pinned lower timelike parameter")
    parser.add_argument("--p-min", type=float, default=None, help="grid start (p, q or alpha)")
    parser.add_argument("--p-max", type=float, default=None, help="grid end (p, q or alpha)")
    parser.add_argument("--steps", type=int, default=None, help=f"number of grid samples (2 to {_MAX_STEPS})")
    parser.add_argument("--levels", type=_list_of(int, "integers"), default=None, help="system dimension(s) N, comma separated")
    parser.add_argument("--qubits", type=_list_of(int, "integers"), default=None, help="qubit count(s) n, comma separated")
    parser.add_argument("--out", default=None, help="output file (sweeps) or directory (figures)")
    parser.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")
    return parser


def _spec_from_args(target: str, given: dict) -> SweepSpec:
    """The sweep of the flags ``given``; refuses the two flags that are wrong merely by being given."""
    entry = _QUANTITIES[target]
    if entry.abscissa == "alpha" and len(given.get("alpha", ())) == 1:
        raise UsageError(
            f"{target} sweeps alpha: give two or more --alpha values, or leave --alpha out and set the grid with --p-min/--p-max/--steps"
        )
    if "q" in given and not entry.pinned:
        if entry.abscissa == "q":
            raise UsageError(f"{target} sweeps q: set the q grid with --p-min/--p-max instead of --q")
        pinned = ", ".join(name for name, e in _QUANTITIES.items() if e.pinned)
        raise UsageError(f"{target} does not read --q; only {pinned} pin q")
    return SweepSpec(target, **given)


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point. Exit codes: 0 success, 2 usage error, 3 pinned singularity."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    given = {name: value for name in ("alpha", "q", "p_min", "p_max", "steps", "levels", "qubits") if (value := getattr(args, name)) is not None}
    try:
        if args.target in FIGURES:
            if given:
                flags = ", ".join("--" + n.replace("_", "-") for n in given)
                print(f"depolmark: warning: figure presets pin their own parameters; ignoring {flags}", file=sys.stderr)
            paths = figure(args.target, out_dir=args.out or ".", fmt=args.fmt)
            _write_out(None, lambda fh: fh.writelines(f"{path}\n" for path in paths))
            return 0

        table = run_sweep(_spec_from_args(args.target, given))
        _write_out(args.out, lambda fh: (write_csv if args.fmt == "csv" else write_json)(table, fh))
        return 0
    except UsageError as exc:
        print(f"depolmark: error: {exc}", file=sys.stderr)
        return 2
    except SingularityError as exc:
        print(f"depolmark: singularity: {exc}", file=sys.stderr)
        return 3


def console_main() -> None:
    raise SystemExit(main())
