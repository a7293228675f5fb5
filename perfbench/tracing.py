"""Span recorder that wraps depolmark's public functions from outside.

``SpanRecorder.install()`` replaces every public function of the six
library modules with a wrapper that records one span per call: the
function's name, its start and end time and the span that was open when
it was called. Every other binding of the same function object is
replaced too: re-imports in other modules (``dynmaps.kron``,
``measures.intermediate_choi``), the package namespace and default
arguments (``intermediate_map(..., kraus_builder=qubit_kraus)``).
``uninstall()`` restores the originals, so untraced and traced passes can
alternate in one process. The library itself is never edited.

Spans stay in memory until ``collect()`` folds them into per-function call
counts and self times (span time minus the time of its child spans). The
recorder assumes one thread, which holds because the benchmark leaves
``DEPOLMARK_THREADS`` unset.
"""

from __future__ import annotations

import functools
import importlib
import re
import time
import types

import numpy as np

LAYERS = ("matcore", "channels", "dynmaps", "measures", "geometry", "cli")

KRAUS_BUILDERS = ("channels.qubit_kraus", "channels.qudit_kraus", "channels.multiqubit_kraus")

# Per-layer metrics beyond <layer>.calls and <layer>.self_s: the calls or
# self time of one wrapped function ...
FUNCTION_METRICS = (
    "matcore.kron.calls",
    "matcore.kron.self_s",
    "matcore.inverse.self_s",
    "matcore.trace_norm.self_s",
    "dynmaps.choi_of.calls",
    "dynmaps.choi_of.self_s",
    "dynmaps.superoperator_of.self_s",
    "dynmaps.intermediate_map.self_s",
    "dynmaps.g_function.calls",
    "channels.apply_channel.calls",
    "channels.apply_channel.self_s",
    "measures.memory_witness_X.self_s",
    "measures.decay_rate_normalized.calls",
    "geometry.f_matrix.self_s",
    "geometry.affine_map_of.self_s",
    "cli.run_sweep.self_s",
    "cli.write_csv.self_s",
    "cli.write_json.self_s",
)

# ... and counters that the hooks below compute from arguments and results.
COUNTERS = ("matcore.kron.bytes_out", "dynmaps.choi_of.composite_bytes", "cli.rows")


def _count_kron(counters, args, kwargs, result):
    counters["matcore.kron.bytes_out"] += int(result.nbytes)


def _count_choi(counters, args, kwargs, result):
    # The composite U (S kron I_{d^2}) U is d^4 x d^4 complex128: 16 d^8 bytes.
    superop = args[0] if args else kwargs["superop"]
    counters["dynmaps.choi_of.composite_bytes"] += 16 * int(superop.dim) ** 8


def _count_rows(counters, args, kwargs, result):
    table = args[0] if args else kwargs["table"]
    counters["cli.rows"] += len(table.rows)


_HOOKS = {
    "matcore.kron": _count_kron,
    "dynmaps.choi_of": _count_choi,
    "cli.write_csv": _count_rows,
    "cli.write_json": _count_rows,
}


class SpanRecorder:
    """In-memory spans of wrapped depolmark calls, one thread."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id: list[int] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.counters: dict[str, int] = {}
        self._open = [-1]
        self._undo: list = []

    def reset(self) -> None:
        """Drop recorded spans and counters; the wrappers stay installed."""
        for column in (self.name_id, self.parent, self.start, self.end):
            del column[:]
        self.counters.update(dict.fromkeys(COUNTERS, 0))
        self._open[0] = -1

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        open_span, counters, hook = self._open, self.counters, _HOOKS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(open_span[0])
            end.append(0.0)
            open_span[0] = i
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                open_span[0] = parent[i]
            if hook is not None:
                hook(counters, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("recorder already installed")
        del self.names[:]
        package = importlib.import_module("depolmark")
        modules = [importlib.import_module(f"depolmark.{layer}") for layer in LAYERS]
        originals, wrappers = [], {}
        for layer, module in zip(LAYERS, modules):
            for attr, obj in vars(module).items():
                if (
                    not attr.startswith("_")
                    and isinstance(obj, types.FunctionType)
                    and obj.__module__ == module.__name__
                ):
                    originals.append(obj)
                    wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", obj)

        def wrapped(obj):
            return isinstance(obj, types.FunctionType) and id(obj) in wrappers

        for module in [package, *modules]:
            for attr, obj in list(vars(module).items()):
                if wrapped(obj):
                    self._undo.append(functools.partial(setattr, module, attr, obj))
                    setattr(module, attr, wrappers[id(obj)])
        for fn in originals:
            defaults = fn.__defaults__
            if defaults and any(wrapped(d) for d in defaults):
                self._undo.append(functools.partial(setattr, fn, "__defaults__", defaults))
                fn.__defaults__ = tuple(wrappers[id(d)] if wrapped(d) else d for d in defaults)
        self.reset()

    def uninstall(self) -> None:
        for undo in reversed(self._undo):
            undo()
        self._undo = []

    def collect(self) -> dict:
        """Per-function calls and self time, plus the counters, of the spans so far."""
        nid = np.asarray(self.name_id, dtype=np.int64)
        parent = np.asarray(self.parent, dtype=np.int64)
        duration = np.asarray(self.end) - np.asarray(self.start)
        nested = parent >= 0
        child_time = np.bincount(parent[nested], weights=duration[nested], minlength=len(duration))
        self_time = duration - child_time
        calls = np.bincount(nid, minlength=len(self.names))
        selfs = np.bincount(nid, weights=self_time, minlength=len(self.names))
        return {
            "functions": {
                name: {"calls": int(calls[i]), "self_s": float(selfs[i])}
                for i, name in enumerate(self.names)
                if calls[i]
            },
            "counters": dict(self.counters),
        }

    def spans(self) -> dict:
        """The recorded spans as parallel columns: name, parent index, start, end."""
        return {
            "names": list(self.names),
            "name_id": list(self.name_id),
            "parent": list(self.parent),
            "start": list(self.start),
            "end": list(self.end),
        }


def merge(parts: list) -> dict:
    """Sum several ``collect()`` results (for example one per child process)."""
    functions: dict = {}
    counters: dict = {}
    for part in parts:
        for name, row in part["functions"].items():
            acc = functions.setdefault(name, {"calls": 0, "self_s": 0.0})
            acc["calls"] += row["calls"]
            acc["self_s"] += row["self_s"]
        for name, value in part["counters"].items():
            counters[name] = counters.get(name, 0) + value
    return {"functions": functions, "counters": counters}


def layer_metrics(collected: dict) -> dict:
    """Per-layer metric values (unit-less numbers) from one pass's ``collect()``."""
    functions, counters = collected["functions"], collected["counters"]
    out: dict = {}
    for layer in LAYERS:
        rows = [row for name, row in functions.items() if name.split(".")[0] == layer]
        out[f"{layer}.calls"] = sum(row["calls"] for row in rows)
        out[f"{layer}.self_s"] = sum(row["self_s"] for row in rows)
    for metric in FUNCTION_METRICS:
        function, field = metric.rsplit(".", 1)
        out[metric] = functions.get(function, {"calls": 0, "self_s": 0.0})[field]
    for counter in COUNTERS:
        out[counter] = counters.get(counter, 0)
    out["channels.kraus_builds"] = sum(functions.get(n, {"calls": 0})["calls"] for n in KRAUS_BUILDERS)
    return out


_IMPORTTIME = re.compile(r"^import time:\s+(\d+)\s+\|\s+(\d+)\s+\|(\s*)(\S+)\s*$")


def import_times(stderr: str) -> dict:
    """Cumulative import seconds of numpy, scipy and depolmark from ``-X importtime``.

    A module counts at its outermost import. numpy modules that scipy
    imports count under scipy, and ``depolmark`` includes everything it
    triggers, numpy and scipy too.
    """
    entries = []
    for line in stderr.splitlines():
        match = _IMPORTTIME.match(line)
        if match:
            entries.append((len(match.group(3)) // 2, match.group(4), int(match.group(2))))
    totals = {"numpy": 0, "scipy": 0, "depolmark": 0}
    stack: list = []
    # The log lists children before their parent; reversed, parents come first.
    for level, name, cumulative_us in reversed(entries):
        while stack and stack[-1][0] >= level:
            stack.pop()
        top = name.split(".")[0]
        owners = ("depolmark",) if top == "depolmark" else ("numpy", "scipy")
        if top in totals and not any(a.split(".")[0] in owners for _, a in stack):
            totals[top] += cumulative_us
        stack.append((level, name))
    return {f"import.{k}_s": v / 1e6 for k, v in totals.items()}
