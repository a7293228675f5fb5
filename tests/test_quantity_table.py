"""The contract of the command line's quantity table, one case per quantity.

Each quantity must sweep its default grid, reject the ``--levels`` and
``--qubits`` values outside its domain with exit code 2, and appear in the
README. The expectations are written out here rather than read from the
table, so that a table edit shows up as a failing case.
"""

import importlib
import itertools
import re
import types
from pathlib import Path

import pytest

import depolmark
from depolmark.cli import FIGURES, QUANTITIES, main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")

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
    "choi-eigs": "5",
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
    # f-norm has no default level in its domain (levels 3 or 4).
    extra = ["--levels", "3"] if quantity == "f-norm" else []
    assert main([quantity, "--steps", "3", *extra]) == 0
    header, *rows = data_rows(capsys.readouterr().out)
    abscissa, start, end = DEFAULT_GRID[quantity]
    assert header[0] == abscissa
    assert len(rows) == 3
    assert (float(rows[0][0]), float(rows[-1][0])) == (start, end)


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


def readme_rows(first_header: str) -> list:
    """Body rows of the README table whose header starts with ``first_header``, as lists of cells."""
    lines = README.splitlines()
    start = next(i for i, line in enumerate(lines) if re.match(rf"\|\s*{first_header}\s*\|", line))
    rows = itertools.takewhile(lambda line: line.startswith("|"), lines[start + 2 :])
    return [[cell.strip() for cell in row.strip("|").split("|")] for row in rows]


def readme_table(first_header: str) -> list:
    """Back-quoted names in the first column of the README table whose header starts with ``first_header``."""
    return [row[0].strip("`") for row in readme_rows(first_header)]


def test_readme_tables_list_exactly_the_quantities_and_figures():
    assert readme_table("quantity") == list(QUANTITIES)
    assert readme_table("id") == list(FIGURES)


def test_readme_layout_names_only_public_exports():
    # Every back-quoted name that the layout table gives a module, and that
    # the module defines (modules aside), is in its __all__; for the five
    # library modules it is importable from the package as well.
    missing = []
    for module_cell, contents in readme_rows("module"):
        module = importlib.import_module(module_cell.strip("`"))
        library = module.__name__ != "depolmark.cli"
        for name in contents.split("`")[1::2]:
            if not hasattr(module, name) or isinstance(getattr(module, name), types.ModuleType):
                continue
            if name not in module.__all__ or (library and name not in depolmark.__all__):
                missing.append(f"{module.__name__}.{name}")
    assert missing == []
