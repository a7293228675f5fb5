"""Helpers shared by the test modules."""

import itertools
import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from depolmark import kernel

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def random_density(rng, dim=2):
    """A random dim x dim density matrix: A A^dagger / tr, with A's entries standard complex normal draws from ``rng``."""
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def trajectory(alpha, grid):
    """``kernel.trajectory`` mapped over a grid: ``p`` and one array per field."""
    p = np.array(grid, dtype=float, ndmin=1)
    fields = map(np.array, zip(*(kernel.trajectory(alpha, x) for x in p.tolist())))
    return SimpleNamespace(p=p, **dict(zip(("lam", "a", "inside_tetrahedron", "cp_divisible"), fields)))


def readme_rows(first_header: str) -> list:
    """Body rows of the README table whose header starts with ``first_header``, as lists of cells; a table may be indented."""
    lines = [line.strip() for line in README.splitlines()]
    start = next(i for i, line in enumerate(lines) if re.match(rf"\|\s*{first_header}\s*\|", line))
    rows = itertools.takewhile(lambda line: line.startswith("|"), lines[start + 2 :])
    return [[cell.strip() for cell in row.strip("|").split("|")] for row in rows]
