"""Command-line front end: parameter sweeps and figure-ready datasets.

Every run evaluates one quantity on a one-dimensional grid and emits a
table, either CSV (header row, ``NA`` for singular samples, 15 significant
digits) or JSON (``{"spec": ..., "columns": ..., "rows": ...}``). Output is
deterministic: no timestamps or randomness enter the payload, so repeated
runs are byte identical.

Grid semantics per quantity:

=================  =========  =======================================
quantity           abscissa   series
=================  =========  =======================================
choi-eigs          p          Choi eigenvalues per alpha (and N)
choi-norm          p          Choi trace norm per alpha / qubits / N
decay-rate         p          gamma and normalized gamma per alpha
trace-distance     p          evolved |+>/|-> distance per alpha
memory-x           p          memory witness X per alpha
volume             p          |det M| per alpha
trajectory         p          lambda, |lambda|, A, flags per alpha
f-norm             p          ||F_N||_1 per alpha
g-function         q          trace-norm right derivative per alpha/n
hcla               alpha      quadrature (+ closed/log form)
blp                alpha      distinguishability-revival measure
=================  =========  =======================================

Figure presets ``fig1`` .. ``fig13`` pin the parameters of the package's
reference plots and write one or two files into the output directory.

Grid points inside the singularity guard band are emitted as ``NA``
samples, never dropped. A singularity at a *pinned* parameter (e.g. ``--q``
exactly at the singular value for a Choi quantity) aborts with exit code 3;
usage errors, a grid bound outside [0, 1] among them, exit with code 2.

Set ``DEPOLMARK_THREADS`` to an integer >= 2 to fan the grid evaluation out
over that many threads (default: serial). Row order is independent of the
thread count.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Sequence, TextIO

import numpy as np

from . import __version__
from .channels import apply_channel, qubit_kraus
from .dynmaps import (
    SINGULARITY_GUARD,
    choi_eigenvalues_closed,
    crossover_point,
    g_function,
    multiqubit_choi_trace_norm,
    qudit_choi_eigenvalues,
    qudit_choi_trace_norm,
)
from .geometry import f_matrix, trajectory, volume_determinant
from .matcore import SingularityError, SingularMapError
from .measures import (
    blp_measure,
    decay_rate,
    decay_rate_normalized,
    hcla_closed_form,
    hcla_measure,
    memory_witness_X,
    plus_minus_states,
    qutrit_hcla_log_form,
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

QUANTITIES = (
    "choi-eigs",
    "choi-norm",
    "decay-rate",
    "hcla",
    "blp",
    "trace-distance",
    "memory-x",
    "volume",
    "trajectory",
    "f-norm",
    "g-function",
)

FIGURES = tuple(f"fig{i}" for i in range(1, 14))

# Abscissa of the quantities that do not sweep p (see the module table).
_ABSCISSA = {"g-function": "q", "hcla": "alpha", "blp": "alpha"}


class UsageError(ValueError):
    """A sweep specification violates a documented parameter domain."""


@dataclass(frozen=True)
class SweepSpec:
    """Validated description of one sweep.

    ``alpha``, ``levels`` and ``qubits`` accept several values at once; the
    sweep then emits one series per combination. ``p_min``/``p_max``/
    ``steps`` describe the abscissa grid of whichever variable the quantity
    sweeps (p, q or alpha, see the module table).
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
        if self.quantity not in QUANTITIES:
            raise UsageError(f"unknown quantity {self.quantity!r}; expected one of {QUANTITIES}")
        object.__setattr__(self, "alpha", tuple(float(a) for a in self.alpha))
        object.__setattr__(self, "levels", tuple(int(n) for n in self.levels))
        object.__setattr__(self, "qubits", tuple(int(n) for n in self.qubits))
        for a in self.alpha:
            if not 0.0 <= a <= 1.0:
                raise UsageError(f"alpha must lie in [0, 1], got {a}")
        if not 0.0 <= self.q <= 1.0:
            raise UsageError(f"q must lie in [0, 1], got {self.q}")
        if self.steps < 2:
            raise UsageError(f"steps must be >= 2, got {self.steps}")
        if self.fmt not in ("csv", "json"):
            raise UsageError(f"format must be csv or json, got {self.fmt!r}")
        if not self.p_min < self.p_max:
            raise UsageError(f"grid needs min < max, got [{self.p_min}, {self.p_max}]")
        if not self.alpha:
            raise UsageError("at least one alpha value is required")
        if self.uses_grid() and not (0.0 <= self.p_min and self.p_max <= 1.0):
            raise UsageError(
                f"{_ABSCISSA.get(self.quantity, 'p')} grid values must lie in [0, 1], "
                f"got [{self.p_min}, {self.p_max}]"
            )
        _check_quantity_domain(self)

    def uses_grid(self) -> bool:
        """False when an alpha-swept quantity takes its several alphas as the grid."""
        return _ABSCISSA.get(self.quantity) != "alpha" or len(self.alpha) == 1

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
    """Grid samples of one or more named series over a common abscissa."""

    abscissa_name: str
    series_names: tuple
    rows: list = field(repr=False)
    metadata: dict = field(default_factory=dict)

    def column(self, name: str) -> list:
        idx = ([self.abscissa_name] + list(self.series_names)).index(name)
        return [row[idx] for row in self.rows]


def _check_quantity_domain(spec: SweepSpec) -> None:
    q = spec.quantity
    single_level = spec.levels == (2,)
    single_qubit = spec.qubits == (1,)
    if q in ("blp", "trace-distance", "memory-x", "volume", "trajectory"):
        if not (single_level and single_qubit):
            raise UsageError(f"{q} is defined for the single-qubit family (levels=2, qubits=1)")
    if q == "decay-rate" and not single_qubit:
        raise UsageError("decay-rate is a per-qubit quantity; use qubits=1")
    if q == "hcla":
        if not single_qubit:
            raise UsageError("hcla is a per-qubit quantity; use qubits=1")
        if any(n not in (2, 3) for n in spec.levels) or len(spec.levels) != 1:
            raise UsageError("hcla supports a single levels value of 2 or 3")
    if q == "f-norm":
        if any(n not in (3, 4) for n in spec.levels) or not single_qubit:
            raise UsageError("f-norm requires levels in (3, 4) and qubits=1")
    if q == "g-function":
        if any(n not in (1, 2) for n in spec.qubits) or not single_level:
            raise UsageError("g-function supports qubits in (1, 2) with levels=2")
        if spec.p_max >= 1.0:
            raise UsageError("g-function sweeps q and requires max < 1")
    if q in ("choi-eigs", "choi-norm"):
        if any(n not in (2, 3, 4) for n in spec.levels):
            raise UsageError(f"{q} supports levels in (2, 3, 4)")
        if any(n not in (1, 2, 3) for n in spec.qubits):
            raise UsageError(f"{q} supports qubits in (1, 2, 3)")
        if len(spec.levels) > 1 and len(spec.qubits) > 1:
            raise UsageError("sweep either levels or qubits, not both")
        if any(n > 2 for n in spec.levels) and any(n > 1 for n in spec.qubits):
            raise UsageError("combined multi-level multi-qubit maps are not supported")
        if spec.p_min < spec.q - 1e-12:
            raise UsageError(f"p range must start at or above q = {spec.q}, got p_min = {spec.p_min}")
    if q == "choi-eigs" and not single_qubit:
        raise UsageError("choi-eigs emits the per-qubit spectrum; use qubits=1")
    if q == "memory-x" and spec.p_min < spec.q - 1e-12:
        raise UsageError(f"p range must start at or above q = {spec.q}, got p_min = {spec.p_min}")


def _alpha_tag(alpha: float) -> str:
    return f"alpha{alpha:g}"


def _thread_cap() -> int:
    raw = os.environ.get("DEPOLMARK_THREADS", "")
    try:
        return max(1, int(raw)) if raw else 1
    except ValueError:
        print(f"depolmark: ignoring invalid DEPOLMARK_THREADS={raw!r}", file=sys.stderr)
        return 1


def _grid_map(fn: Callable, xs: Sequence[float]) -> list:
    workers = _thread_cap()
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, xs))
    return [fn(x) for x in xs]


def _guarded(fn: Callable[[float], float]) -> Callable[[float], float | None]:
    """Turn in-sweep singularities into NA samples."""

    def wrapped(x: float) -> float | None:
        try:
            return fn(x)
        except SingularityError:
            return None

    return wrapped


def _near_singularity(x: float, alpha: float, levels: int = 2) -> bool:
    point = crossover_point(alpha, levels)
    return point is not None and abs(x - point) < SINGULARITY_GUARD


def _check_pinned_q(spec: SweepSpec) -> None:
    """A singular pinned q cannot produce any sample: abort, not NA."""
    for alpha in spec.alpha:
        for levels in spec.levels:
            if _near_singularity(spec.q, alpha, levels):
                raise SingularMapError(
                    f"pinned q = {spec.q} sits at the singular parameter value for "
                    f"alpha = {alpha}, levels = {levels}"
                )


def _series_for(spec: SweepSpec) -> list:
    """Ordered (series_name, fn(x)) pairs for one sweep."""
    q = spec.quantity
    series: list = []

    if q == "choi-eigs":
        _check_pinned_q(spec)
        for alpha in spec.alpha:
            for levels in spec.levels:
                tag = _alpha_tag(alpha) + (f"_N{levels}" if len(spec.levels) > 1 or levels != 2 else "")
                if levels == 2:
                    series.append(
                        (f"Lambda_I_{tag}", _guarded(lambda p, a=alpha: choi_eigenvalues_closed(a, spec.q, p)[0]))
                    )
                    series.append(
                        (f"Lambda_XYZ_{tag}", _guarded(lambda p, a=alpha: choi_eigenvalues_closed(a, spec.q, p)[1]))
                    )
                else:
                    series.append(
                        (f"Lambda_top_{tag}", _guarded(lambda p, a=alpha, n=levels: qudit_choi_eigenvalues(a, spec.q, p, n)[0]))
                    )
                    series.append(
                        (f"Lambda_rest_{tag}", _guarded(lambda p, a=alpha, n=levels: qudit_choi_eigenvalues(a, spec.q, p, n)[1]))
                    )
        return series

    if q == "choi-norm":
        _check_pinned_q(spec)
        for alpha in spec.alpha:
            for levels in spec.levels:
                for qubits in spec.qubits:
                    tag = _alpha_tag(alpha)
                    if len(spec.levels) > 1 or levels != 2:
                        tag += f"_N{levels}"
                    if len(spec.qubits) > 1 or qubits != 1:
                        tag += f"_n{qubits}"
                    if levels > 2:
                        fn = lambda p, a=alpha, n=levels: qudit_choi_trace_norm(a, spec.q, p, n)
                    else:
                        fn = lambda p, a=alpha, n=qubits: multiqubit_choi_trace_norm(a, spec.q, p, n)
                    series.append((f"choi_norm_{tag}", _guarded(fn)))
        return series

    if q == "decay-rate":
        levels = spec.levels[0]
        for alpha in spec.alpha:
            def rate(p: float, a=alpha, n=levels) -> float | None:
                if _near_singularity(p, a, n) or (a == 0.0 and abs(p - 1.0) < SINGULARITY_GUARD):
                    return None
                return decay_rate(a, p, n)

            def rate_norm(p: float, a=alpha, n=levels) -> float | None:
                # The normalized rate has its only [0, 1] pole at alpha = 0, p = 0.
                if a == 0.0 and p < SINGULARITY_GUARD:
                    return None
                return decay_rate_normalized(a, p, n)

            series.append((f"gamma_{_alpha_tag(alpha)}", _guarded(rate)))
            series.append((f"gamma_normalized_{_alpha_tag(alpha)}", _guarded(rate_norm)))
        return series

    if q == "trace-distance":
        plus, minus = plus_minus_states()
        for alpha in spec.alpha:
            def dist(p: float, a=alpha) -> float:
                kraus = qubit_kraus(a, p)
                return trace_distance(apply_channel(kraus, plus), apply_channel(kraus, minus))

            series.append((f"D_{_alpha_tag(alpha)}", dist))
        return series

    if q == "memory-x":
        _check_pinned_q(spec)
        for alpha in spec.alpha:
            series.append((f"X_{_alpha_tag(alpha)}", _guarded(lambda p, a=alpha: memory_witness_X(a, spec.q, p))))
        return series

    if q == "volume":
        for alpha in spec.alpha:
            series.append((f"volume_{_alpha_tag(alpha)}", lambda p, a=alpha: volume_determinant(a, p)))
        return series

    if q == "trajectory":
        for alpha in spec.alpha:
            tag = _alpha_tag(alpha)

            def point(p: float, a=alpha):
                return trajectory(a, [p])[0]

            series.append((f"lambda_{tag}", lambda p, f=point: f(p).lambdas[0]))
            series.append((f"abs_lambda_{tag}", lambda p, f=point: f(p).abs_lambdas[0]))
            series.append(
                (f"A_{tag}", lambda p, f=point: f(p).a_vector[0] if f(p).a_vector is not None else None)
            )
            series.append((f"inside_tetrahedron_{tag}", lambda p, f=point: float(f(p).inside_tetrahedron)))
            series.append((f"cp_divisible_{tag}", lambda p, f=point: float(f(p).cp_divisible)))
        return series

    if q == "f-norm":
        levels = spec.levels[0]
        for alpha in spec.alpha:
            series.append(
                (f"F{levels}_norm_{_alpha_tag(alpha)}", lambda p, a=alpha, n=levels: f_matrix(a, p, n).trace_norm)
            )
        return series

    if q == "g-function":
        for alpha in spec.alpha:
            for qubits in spec.qubits:
                tag = _alpha_tag(alpha) + (f"_n{qubits}" if len(spec.qubits) > 1 or qubits != 1 else "")

                def g_at(x: float, a=alpha, n=qubits) -> float | None:
                    if _near_singularity(x, a):
                        return None
                    return g_function(a, x, n)

                series.append((f"g_{tag}", _guarded(g_at)))
        return series

    if q == "hcla":
        levels = spec.levels[0]
        series.append(("N_HCLA_numeric", lambda a: hcla_measure(a, levels).value))
        if levels == 2:
            series.append(("N_HCLA_closed", lambda a: hcla_closed_form(a).value))
        else:
            series.append(("N_HCLA_log_form", qutrit_hcla_log_form))
        return series

    if q == "blp":
        series.append(("N_BLP", lambda a: blp_measure(a).value))
        return series

    raise UsageError(f"unknown quantity {q!r}")


def run_sweep(spec: SweepSpec) -> SweepTable:
    """Evaluate the requested quantity on its grid.

    Singular grid points are emitted as ``None`` samples, never dropped.
    Row order follows the grid regardless of the thread cap.
    """
    series = _series_for(spec)
    grid = tuple(spec.grid()) if spec.uses_grid() else spec.alpha
    names = tuple(name for name, _ in series)
    fns = [fn for _, fn in series]

    def row(x: float) -> tuple:
        return (float(x),) + tuple(fn(float(x)) for fn in fns)

    rows = _grid_map(row, grid)
    return SweepTable(_ABSCISSA.get(spec.quantity, "p"), names, rows, spec.metadata())


def _merge(tables: Sequence[SweepTable]) -> SweepTable:
    """Join tables that share an identical abscissa grid."""
    first = tables[0]
    for other in tables[1:]:
        if other.abscissa_name != first.abscissa_name or len(other.rows) != len(first.rows):
            raise ValueError("cannot merge tables with different abscissas")
        if any(a[0] != b[0] for a, b in zip(first.rows, other.rows)):
            raise ValueError("cannot merge tables with different grids")
    names = tuple(n for t in tables for n in t.series_names)
    rows = [
        sum((tuple(t.rows[i][1:]) for t in tables), (first.rows[i][0],))
        for i in range(len(first.rows))
    ]
    meta = dict(first.metadata)
    meta["merged_quantities"] = [t.metadata.get("quantity") for t in tables]
    return SweepTable(first.abscissa_name, names, rows, meta)


def _figure_tables(fig_id: str) -> list:
    """Build the (name, table) list behind one figure preset."""
    if fig_id == "fig1":
        spec = SweepSpec("choi-eigs", alpha=(0.0, 0.7), q=0.3, p_min=0.3, p_max=1.0, steps=141)
        return [("fig1", run_sweep(spec))]
    if fig_id == "fig2":
        spec = SweepSpec("choi-eigs", alpha=(0.7,), q=0.8, p_min=0.8, p_max=1.0, steps=101)
        return [("fig2", run_sweep(spec))]
    if fig_id == "fig3":
        spec = SweepSpec("decay-rate", alpha=(0.0, 0.7), p_min=0.0, p_max=1.0, steps=201)
        return [("fig3", run_sweep(spec))]
    if fig_id == "fig4":
        blp = run_sweep(SweepSpec("blp", alpha=(0.7,), p_min=0.0, p_max=1.0, steps=101))
        hcla = run_sweep(SweepSpec("hcla", alpha=(0.7,), p_min=0.0, p_max=1.0, steps=101))
        return [("fig4", _merge([blp, hcla]))]
    if fig_id == "fig5":
        spec = SweepSpec("trace-distance", alpha=(0.0, 0.7, 0.9), p_min=0.0, p_max=1.0, steps=201)
        return [("fig5", run_sweep(spec))]
    if fig_id == "fig6":
        spec = SweepSpec("memory-x", alpha=(0.0, 0.7, 0.8, 0.9, 1.0), q=0.3, p_min=0.3, p_max=1.0, steps=141)
        return [("fig6", run_sweep(spec))]
    if fig_id == "fig7":
        spec = SweepSpec("volume", alpha=(0.0, 0.7, 0.8), p_min=0.0, p_max=1.0, steps=201)
        return [("fig7", run_sweep(spec))]
    if fig_id == "fig8":
        spec = SweepSpec("trajectory", alpha=(0.0,), p_min=0.0, p_max=0.99, steps=100)
        return [("fig8", run_sweep(spec))]
    if fig_id == "fig9":
        spec = SweepSpec("trajectory", alpha=(0.0, 0.7), p_min=0.0, p_max=1.0, steps=101)
        return [("fig9", run_sweep(spec))]
    if fig_id == "fig10":
        spec = SweepSpec("hcla", alpha=(0.7,), p_min=0.0, p_max=1.0, steps=101, levels=(3,))
        return [("fig10", run_sweep(spec))]
    if fig_id == "fig11":
        spec = SweepSpec("f-norm", alpha=(0.7,), p_min=0.0, p_max=1.0, steps=201, levels=(3,))
        return [("fig11", run_sweep(spec))]
    if fig_id == "fig12":
        qubits = SweepSpec("choi-norm", alpha=(0.9,), q=0.4, p_min=0.4, p_max=1.0, steps=241, qubits=(1, 2, 3))
        levels = SweepSpec("choi-norm", alpha=(0.9,), q=0.4, p_min=0.4, p_max=1.0, steps=241, levels=(2, 3, 4))
        return [("fig12a", run_sweep(qubits)), ("fig12b", run_sweep(levels))]
    if fig_id == "fig13":
        spec = SweepSpec("g-function", alpha=(0.9,), p_min=0.0, p_max=0.98, steps=197, qubits=(1, 2))
        return [("fig13", run_sweep(spec))]
    raise UsageError(f"unknown figure id {fig_id!r}; expected one of {FIGURES}")


def figure(fig_id: str, out_dir: str = ".", fmt: str = "csv") -> list:
    """Write the dataset(s) behind one figure preset; returns the paths."""
    if fmt not in ("csv", "json"):
        raise UsageError(f"format must be csv or json, got {fmt!r}")
    paths = []
    for name, table in _figure_tables(fig_id):
        path = os.path.join(out_dir, f"{name}.{fmt}")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            (write_csv if fmt == "csv" else write_json)(table, fh)
        paths.append(path)
    return paths


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
        return format(value, "g")
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


def _parse_floats(raw: str) -> tuple:
    try:
        return tuple(float(v) for v in raw.split(","))
    except ValueError as exc:
        raise UsageError(f"expected comma-separated numbers, got {raw!r}") from exc


def _parse_ints(raw: str) -> tuple:
    try:
        return tuple(int(v) for v in raw.split(","))
    except ValueError as exc:
        raise UsageError(f"expected comma-separated integers, got {raw!r}") from exc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="depolmark",
        description="Sweep non-Markovian depolarizing channel diagnostics onto plot-ready tables.",
        epilog=(
            "TARGET is a quantity (" + ", ".join(QUANTITIES) + ") or a figure preset "
            "(fig1..fig13). Figure presets pin their own parameters and treat --out as "
            "an output directory. Set DEPOLMARK_THREADS>=2 to parallelize grid evaluation."
        ),
    )
    parser.add_argument("target", choices=QUANTITIES + FIGURES, metavar="TARGET")
    parser.add_argument("--alpha", default=None, help="memory strength(s), comma separated")
    parser.add_argument("--q", type=float, default=None, help="pinned lower timelike parameter")
    parser.add_argument("--p-min", type=float, default=None, help="grid start (p, q or alpha)")
    parser.add_argument("--p-max", type=float, default=None, help="grid end (p, q or alpha)")
    parser.add_argument("--steps", type=int, default=None, help="number of grid samples (>= 2)")
    parser.add_argument("--levels", default=None, help="system dimension(s) N, comma separated")
    parser.add_argument("--qubits", default=None, help="qubit count(s) n, comma separated")
    parser.add_argument("--out", default=None, help="output file (sweeps) or directory (figures)")
    parser.add_argument("--format", dest="fmt", choices=("csv", "json"), default=None)
    return parser


def _default_grid(quantity: str, q: float) -> tuple:
    if quantity == "g-function":
        return 0.0, 0.98
    if quantity in ("choi-eigs", "choi-norm", "memory-x"):
        return q, 1.0
    return 0.0, 1.0


def _spec_from_args(args: argparse.Namespace) -> SweepSpec:
    q = 0.3 if args.q is None else args.q
    p_lo, p_hi = _default_grid(args.target, q)
    return SweepSpec(
        quantity=args.target,
        alpha=_parse_floats(args.alpha) if args.alpha is not None else (0.7,),
        q=q,
        p_min=p_lo if args.p_min is None else args.p_min,
        p_max=p_hi if args.p_max is None else args.p_max,
        steps=101 if args.steps is None else args.steps,
        levels=_parse_ints(args.levels) if args.levels is not None else (2,),
        qubits=_parse_ints(args.qubits) if args.qubits is not None else (1,),
        out=args.out,
        fmt=args.fmt or "csv",
    )


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
            with open(spec.out, "w", encoding="utf-8", newline="") as fh:
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
