"""The contract of the command line's quantity table, one case per quantity.

Each quantity must sweep its default grid, reject the ``--levels`` and
``--qubits`` values outside its domain with exit code 2, and appear in the
README. The expectations are written out here rather than read from the
table, so that a table edit shows up as a failing case.
"""

import dataclasses
import functools
import importlib
import inspect
import io
import types

import pytest

import depolmark
from depolmark.cli import FIGURES, QUANTITIES, SweepSpec, main, run_sweep, write_csv
from helpers import readme_rows

# Abscissa name and default grid ends (q defaults to 0.3).
DEFAULT_GRID = {
    "choi-eigs": ("p", 0.3, 1.0),
    "choi-norm": ("p", 0.3, 1.0),
    "decay-rate": ("p", 0.0, 1.0),
    "hcla": ("alpha", 0.0, 1.0),
    "blp": ("alpha", 0.0, 1.0),
    "trace-distance": ("p", 0.0, 1.0),
    "memory-x": ("p", 0.3, 1.0),
    "volume": ("p", 0.0, 1.0),
    "trajectory": ("p", 0.0, 1.0),
    "f-norm": ("p", 0.0, 1.0),
    "g-function": ("q", 0.0, 0.98),
}

# A --levels / --qubits value outside each quantity's domain; None where every value is accepted.
OUTSIDE_LEVELS = {
    "choi-eigs": None,
    "choi-norm": "5",
    "decay-rate": None,
    "hcla": "4",
    "blp": "3",
    "trace-distance": "3",
    "memory-x": "3",
    "volume": "3",
    "trajectory": "3",
    "f-norm": "2",
    "g-function": "3",
}
OUTSIDE_QUBITS = {
    "choi-eigs": "2",
    "choi-norm": "4",
    "decay-rate": "2",
    "hcla": "2",
    "blp": "2",
    "trace-distance": "2",
    "memory-x": "2",
    "volume": "2",
    "trajectory": "2",
    "f-norm": "2",
    "g-function": "3",
}


def data_rows(out: str) -> list:
    return [line.split(",") for line in out.splitlines() if not line.startswith("#")]


def test_expectations_cover_every_quantity():
    assert list(DEFAULT_GRID) == list(OUTSIDE_LEVELS) == list(OUTSIDE_QUBITS) == list(QUANTITIES)


@pytest.mark.parametrize("quantity", QUANTITIES)
def test_default_grid_sweeps(quantity, capsys):
    assert main([quantity, "--steps", "3"]) == 0
    header, *rows = data_rows(capsys.readouterr().out)
    abscissa, start, end = DEFAULT_GRID[quantity]
    assert header[0] == abscissa
    assert len(rows) == 3
    assert (float(rows[0][0]), float(rows[-1][0])) == (start, end)


@pytest.mark.parametrize("quantity", QUANTITIES)
def test_the_library_spec_is_the_command_line_sweep(quantity, capsys):
    # SweepSpec(q) takes every default from the row, as a bare command does.
    SweepSpec(quantity)
    buf = io.StringIO()
    write_csv(run_sweep(SweepSpec(quantity, steps=3)), buf)
    assert main([quantity, "--steps", "3"]) == 0
    assert capsys.readouterr().out == buf.getvalue()


@pytest.mark.parametrize("quantity", QUANTITIES)
def test_levels_outside_the_domain_exit_2(quantity, capsys):
    bad = OUTSIDE_LEVELS[quantity]
    if bad is None:
        assert main([quantity, "--levels", "7", "--steps", "3"]) == 0
        return
    assert main([quantity, "--levels", bad, "--steps", "3"]) == 2
    captured = capsys.readouterr()
    assert "levels" in captured.err and captured.out == ""


@pytest.mark.parametrize("quantity", QUANTITIES)
def test_qubits_outside_the_domain_exit_2(quantity, capsys):
    extra = ["--levels", "3"] if quantity == "f-norm" else []
    assert main([quantity, "--qubits", OUTSIDE_QUBITS[quantity], "--steps", "3", *extra]) == 2
    captured = capsys.readouterr()
    assert "qubits" in captured.err and captured.out == ""


def readme_table(first_header: str) -> list:
    """Back-quoted names in the first column of the README table whose header starts with ``first_header``."""
    return [row[0].strip("`") for row in readme_rows(first_header)]


def test_readme_tables_list_exactly_the_quantities_and_figures():
    assert readme_table("quantity") == list(QUANTITIES)
    assert readme_table("id") == list(FIGURES)


def record_and_parameter_names(module) -> set:
    """Field names of the records ``module`` exports and parameter names of its exported functions."""
    names = set()
    for obj in (getattr(module, name) for name in module.__all__):
        if isinstance(obj, type):
            names.update(getattr(obj, "_fields", ()))
            if dataclasses.is_dataclass(obj):
                names.update(f.name for f in dataclasses.fields(obj))
        elif callable(obj):
            names.update(inspect.signature(obj).parameters)
    return names


def test_readme_layout_names_only_public_exports():
    # Every back-quoted name that the layout table gives a module must exist
    # there: as an attribute (a dotted name resolves one attribute at a
    # time), or as a field of an exported record or a parameter of an
    # exported function (``p``, ``lam``, ``levels``). Every attribute among
    # them, modules aside, is in the module's __all__; for the library
    # modules it is importable from the package as well. A name deleted
    # from the code but left in the table fails here.
    missing, unknown = [], []
    for module_cell, contents in readme_rows("module"):
        module = importlib.import_module(module_cell.strip("`"))
        library = module.__name__ != "depolmark.cli"
        for name in contents.split("`")[1::2]:
            try:
                obj = functools.reduce(getattr, name.split("."), module)
            except AttributeError:
                if "." in name or name not in record_and_parameter_names(module):
                    unknown.append(f"{module.__name__}.{name}")
                continue
            if "." in name or isinstance(obj, types.ModuleType):
                continue
            if name not in module.__all__ or (library and name not in depolmark.__all__):
                missing.append(f"{module.__name__}.{name}")
    assert unknown == []
    assert missing == []
