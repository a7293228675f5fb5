"""The ``depolmark`` command line: parameter sweeps and figure-ready datasets.

Table-driven. ``_QUANTITIES`` is the one place a quantity is defined, one
row of data: abscissa, default grid, allowed ``levels`` and ``qubits``,
pinned q, one level only, grid room below 1, column builder. ``_FIGURES``
maps each preset to the files it writes and the pinned specs behind each.
``SweepSpec`` takes the defaults it is not given from the row and is the
sweep's one validator; the command line only turns the flags given into
fields, so ``SweepSpec("f-norm")`` and ``depolmark f-norm`` are one
sweep. A builder returns one ``(names, fn)`` group per (alpha, N),
``fn(grid)`` giving one column per name with NaN in each NA cell. Reruns
are byte identical: no timestamp or randomness enters a payload.

Exit codes: 0 success; 2 usage error (``UsageError``: a parameter outside
its domain, a malformed flag, an output that cannot be written), reported
as one ``depolmark: error:`` line; 3 a pinned q at the singular parameter
(``SingularMapError``, raised as the ``SweepSpec`` is built). No input
ends in a traceback.

numpy loads only for a dense column. This module imports the standard
library and the numpy-free ``kernel`` alone, and reaches a dense module
through the package (``_lib.measures``), which imports it on first
access. So parsing, validation, every exit-2 or exit-3 path and every
``kernel`` column load ``cli`` and ``kernel`` only.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import math
import operator
import os
import sys
from dataclasses import dataclass, field, fields
from typing import Callable, Sequence, TextIO

from . import __version__
from .kernel import G_FUNCTION_STEP, SINGULARITY_GUARD, ZERO_FLOOR, SingularityError, SingularMapError, _check_levels, _choi_spectrum
from .kernel import _guard, _lambda_source, _rate, _rate_normalized, _survival_source, _trajectory_point, blp_measure
from .kernel import hcla_closed_form, hcla_measure, qutrit_hcla_log_form

# The package: its first access to ``_lib.measures`` imports that module.
_lib = sys.modules[__package__]

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

# Largest accepted number of grid points: a sweep holds every column in memory.
_MAX_STEPS = 1_000_000
# Rows per json.dumps call of write_json: the C encoder is used, and one
# chunk's text is held at a time.
_JSON_CHUNK = 4096


class UsageError(ValueError):
    """A sweep specification violates a documented parameter domain."""


@dataclass(frozen=True)
class _Quantity:
    """One row of the quantity table, read by ``SweepSpec``."""

    # (spec, alpha, N) -> (series names, fn(grid) -> one column per name);
    # an alpha-swept quantity gets alpha None.
    columns: Callable
    abscissa: str = "p"
    # Default grid; a pinned quantity starts it at q instead.
    grid: tuple = (0.0, 1.0)
    # Allowed values, the first one the default; None allows every N that
    # ``kernel._check_levels`` accepts (default 2).
    levels: tuple | None = (2,)
    qubits: tuple = (1,)
    # The p range starts at or above q, and q is checked against the singularity.
    pinned: bool = False
    # A sweep takes one levels value only.
    one_level: bool = False
    # The grid end plus this stays at or below 1: room for a finite-difference step.
    room: float = 0.0


@dataclass(frozen=True)
class SweepSpec:
    """Validated description of one sweep.

    ``alpha``, ``levels`` and ``qubits`` take sequences, one series per
    combination; ``p_min``, ``p_max`` and ``steps`` set the grid of the
    quantity's abscissa (p, q or alpha). A field left at None takes the
    quantity's default.

    Raises:
        UsageError: for a field of the wrong type or outside the domain.
        SingularMapError: for a pinned q at the singular parameter.
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
            value, many = getattr(self, name), name in ("alpha", "levels", "qubits")
            convert, kind = (operator.index, "integers") if name in ("steps", "levels", "qubits") else (_real, "numbers")
            try:  # iter() itself: a 0-d array has __iter__ but is no sequence
                items = iter(value) if many else None
            except TypeError:
                raise UsageError(f"{name} takes a sequence of {kind}, got {value!r}") from None
            try:
                object.__setattr__(self, name, tuple(map(convert, items)) if many else convert(value))
            except TypeError:
                raise UsageError(f"{name} takes {kind} only, got {value!r}") from None
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
        try:
            for n in self.levels:
                _check_levels(n)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        if not self.p_min < self.p_max:
            raise UsageError(f"grid needs min < max, got [{self.p_min}, {self.p_max}]")
        if not (0.0 <= self.p_min and self.p_max + entry.room <= 1.0):
            raise UsageError(f"{entry.abscissa} grid values must lie in [0, {1.0 - entry.room:g}], got [{self.p_min}, {self.p_max}]")
        for axis in ("levels", "qubits"):
            allowed, values = getattr(entry, axis), getattr(self, axis)
            if allowed is not None and not all(n in allowed for n in values):
                single = (entry.levels, entry.qubits) == ((2,), (1,))
                domain = "the single-qubit family (levels=2, qubits=1)" if single else f"{axis} in {allowed}"
                raise UsageError(f"{self.quantity} is defined for {domain}, got {axis} = {values}")
        if entry.one_level and len(self.levels) != 1:
            raise UsageError(f"{self.quantity} supports a single levels value")
        if entry.pinned and self.p_min < self.q:
            raise UsageError(f"p range must start at or above q = {self.q}, got p_min = {self.p_min}")
        # A singular pinned q cannot produce any sample: abort, not NA.
        for alpha, levels in itertools.product(self.alpha, self.levels):
            if entry.pinned and _guard(alpha, levels)(self.q):
                raise SingularMapError(f"pinned q = {self.q} sits at the singular parameter value for alpha = {alpha}, levels = {levels}")

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
    """Grid samples of named series over one abscissa.

    ``columns`` holds the abscissa column, then one column per series name:
    Python floats, ``None`` for an NA sample. The writers print the cells
    as they are, so a table built by hand holds floats too.
    """

    abscissa_name: str
    series_names: tuple
    columns: list = field(repr=False)
    metadata: dict = field(default_factory=dict)

    @property
    def rows(self) -> list:
        """The cells row by row, abscissa first."""
        return list(zip(*self.columns))

    def column(self, name: str) -> list:
        """A copy of the column ``name``; ValueError for a name the table lacks."""
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


def _system_tag(spec: SweepSpec, alpha: float, levels: int = 2, qubits: int = 1) -> str:
    """Series suffix naming alpha, then N and n wherever the spec sweeps them or leaves the single qubit."""
    tag = f"alpha{_number(alpha)}"
    if len(spec.levels) > 1 or levels != 2:
        tag += f"_N{levels}"
    if len(spec.qubits) > 1 or qubits != 1:
        tag += f"_n{qubits}"
    return tag


def _points(names: tuple, fn: Callable[[float], tuple]) -> tuple:
    """A series group evaluated point by point: ``fn(x)`` gives one value per name."""
    return names, lambda xs: list(zip(*map(fn, xs)))


def _column(name: str, fn: Callable) -> Callable:
    """A dense one-column builder: ``name`` formatted with ``n`` and the system ``tag``, ``fn(spec, alpha, n, grid)`` the column."""
    return lambda spec, alpha, n: ((name.format(n=n, tag=_system_tag(spec, alpha)),), lambda grid: [fn(spec, alpha, n, grid)])


# ---------------------------------------------------------------- column builders


def _choi_eigs(spec: SweepSpec, alpha: float, n: int) -> tuple:
    names = ("Lambda_I", "Lambda_XYZ") if n == 2 else ("Lambda_top", "Lambda_rest")
    tag, lam = _system_tag(spec, alpha, levels=n), _lambda_source(alpha, spec.q, n)
    return _points(tuple(f"{name}_{tag}" for name in names), lambda p: _choi_spectrum(lam(p), n * n))


def _choi_norm(spec: SweepSpec, alpha: float, n: int) -> tuple:
    names = tuple(f"choi_norm_{_system_tag(spec, alpha, n, k)}" for k in spec.qubits)
    return names, lambda grid: _lib.dynmaps.choi_trace_norm(alpha, spec.q, grid, n, spec.qubits)


def _decay_rate(spec: SweepSpec, alpha: float, n: int) -> tuple:
    # NaN (NA) in the guard band of each pole (p_- for the rate, p = 1 and
    # p = 0 at alpha = 0) and wherever the library would raise: G = 0 for the
    # rate, G + G' = 0 (alpha + p below about 1e-12) for the normalized rate.
    pair, near = _survival_source(alpha, n), _guard(alpha, n)

    def point(p: float) -> tuple:
        g, dg = pair(p)
        pole = near(p) or abs(g) <= ZERO_FLOOR
        norm_pole = (alpha == 0.0 and p < SINGULARITY_GUARD) or abs(g + dg) <= ZERO_FLOOR
        return math.nan if pole else _rate(g, dg), math.nan if norm_pole else _rate_normalized(g, dg)

    tag = _system_tag(spec, alpha)
    return _points((f"gamma_{tag}", f"gamma_normalized_{tag}"), point)


def _hcla(spec: SweepSpec, alpha: None, n: int) -> tuple:
    name, closed = ("N_HCLA_closed", hcla_closed_form) if n == 2 else ("N_HCLA_log_form", qutrit_hcla_log_form)
    return _points(("N_HCLA_numeric", name), lambda a: (hcla_measure(a, n), closed(a)))


def _trajectory(spec: SweepSpec, alpha: float, n: int) -> tuple:
    survival = _survival_source(alpha)

    def point(p: float) -> tuple:
        lam, a, inside, divisible = _trajectory_point(alpha, p, survival(p)[0])
        return lam, abs(lam), a, float(inside), float(divisible)

    names = ("lambda", "abs_lambda", "A", "inside_tetrahedron", "cp_divisible")
    return _points(tuple(f"{name}_{_system_tag(spec, alpha)}" for name in names), point)


def _g_function(spec: SweepSpec, alpha: float, n: int) -> tuple:
    def columns(grid: list) -> list:
        # The library raises inside the guard band of p_-: it gets the kept
        # points alone (maybe none), and the others are NA.
        na = list(map(_guard(alpha), grid))
        kept = [q for q, masked in zip(grid, na) if not masked]
        values = map(iter, _lib.dynmaps.g_function(alpha, kept, spec.qubits))
        return [[math.nan if masked else next(column) for masked in na] for column in values]

    return tuple(f"g_{_system_tag(spec, alpha, qubits=k)}" for k in spec.qubits), columns


_QUANTITIES = {
    "choi-eigs": _Quantity(_choi_eigs, levels=None, pinned=True),
    "choi-norm": _Quantity(_choi_norm, levels=(2, 3, 4), qubits=(1, 2, 3), pinned=True),
    "decay-rate": _Quantity(_decay_rate, levels=None, one_level=True),
    "hcla": _Quantity(_hcla, abscissa="alpha", levels=(2, 3), one_level=True),
    "blp": _Quantity(lambda spec, alpha, n: _points(("N_BLP",), lambda a: (blp_measure(a),)), abscissa="alpha"),
    "trace-distance": _Quantity(_column("D_{tag}", lambda spec, a, n, grid: _lib.measures.plus_minus_distance(a, grid))),
    "memory-x": _Quantity(_column("X_{tag}", lambda spec, a, n, grid: _lib.measures.memory_witness_X(a, spec.q, grid)), pinned=True),
    "volume": _Quantity(_column("volume_{tag}", lambda spec, a, n, grid: _lib.geometry.volume_determinant(a, grid))),
    "trajectory": _Quantity(_trajectory),
    "f-norm": _Quantity(_column("F{n}_norm_{tag}", lambda spec, a, n, grid: _lib.geometry.f_norm(a, grid, n)), levels=(3, 4), one_level=True),
    "g-function": _Quantity(_g_function, abscissa="q", grid=(0.0, 0.98), qubits=(1, 2), room=G_FUNCTION_STEP),
}

QUANTITIES = tuple(_QUANTITIES)


def run_sweep(spec: SweepSpec) -> SweepTable:
    """The table of one sweep: its grid, then the columns of every series group.

    Here, and only here, NaN becomes the ``None`` that the writers print as
    NA; singular grid points are kept as NA, never dropped.
    """
    entry = _QUANTITIES[spec.quantity]
    grid = list(spec.alpha) if entry.abscissa == "alpha" and len(spec.alpha) > 1 else spec.grid()
    names: list = []
    columns: list = [grid]
    for alpha in spec.alpha if entry.abscissa != "alpha" else (None,):
        for n in spec.levels:
            series_names, fn = entry.columns(spec, alpha, n)
            names.extend(series_names)
            columns.extend([None if v != v else float(v) for v in column] for column in fn(grid))
    return SweepTable(entry.abscissa, tuple(names), columns, spec.metadata())


def _merge(tables: Sequence[SweepTable]) -> SweepTable:
    """Join the tables column by column; a single table comes back as it is.

    Precondition, which the tests check for every ``_FIGURES`` file: every
    table has the first one's abscissa name and grid.
    """
    first = tables[0]
    if len(tables) == 1:
        return first
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
    """Write the dataset(s) behind one figure preset into ``out_dir`` in ``fmt``, csv or json; returns the paths.

    Raises:
        UsageError: for an unknown id or format, or a file that cannot be written.
    """
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
    """Run ``write`` on the file at ``path``, or on stdout when there is none.

    A failed open or write raises UsageError naming the destination. A broken
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


def write_csv(table: SweepTable, fh: TextIO) -> None:
    """Write the CSV payload to ``fh``: ``#`` metadata lines (``format=csv`` among them), header row, 15-significant-digit rows."""
    meta = {**table.metadata, "format": "csv"}
    for key in sorted(meta):
        fh.write(f"# {key}={_meta_str(meta[key])}\n")
    fh.write(",".join((table.abscissa_name,) + tuple(table.series_names)) + "\n")
    fh.writelines(",".join("NA" if v is None else format(v, ".15g") for v in row) + "\n" for row in zip(*table.columns))


def _meta_str(value) -> str:
    if isinstance(value, (list, tuple)):
        return ";".join(_meta_str(v) for v in value)
    if isinstance(value, float):
        return _number(value)
    return str(value)


def write_json(table: SweepTable, fh: TextIO) -> None:
    """Write the JSON payload to ``fh``: column names, row arrays (null = NA) and the spec echo, keys sorted, ``"format": "json"`` in it."""
    import json  # here, not at the top: only this writer needs it, and CSV commands stay without it

    rows = zip(*table.columns)
    fh.write(f'{{"columns": {json.dumps([table.abscissa_name, *table.series_names])}, "rows": [')
    for i, chunk in enumerate(iter(lambda: list(itertools.islice(rows, _JSON_CHUNK)), [])):
        fh.write((", " if i else "") + json.dumps(chunk)[1:-1])
    fh.write(f'], "spec": {json.dumps({**table.metadata, "format": "json"}, sort_keys=True)}}}\n')


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
    """Run the command line on ``argv`` (default ``sys.argv[1:]``); returns the exit code: 0 success, 2 usage error, 3 pinned singularity."""
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
    """Run ``main`` on the process arguments and exit with its code."""
    raise SystemExit(main())
