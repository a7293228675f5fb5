"""The values README.md documents, parsed from its text: an edit to either the README or the code fails here."""

import re

import pytest

from depolmark.kernel import blp_measure, crossover_point, hcla_measure, qutrit_hcla_log_form, volume_measure
from helpers import README, readme_rows

# The README's prose with its line breaks folded, so a value may wrap.
TEXT = " ".join(README.split())


def crossover_cells() -> list:
    """(N, alpha, printed value) of every cell of the README's crossover table."""
    header = next(line.strip() for line in README.splitlines() if re.match(r"\s*\|\s*N\s*\|", line))
    alphas = [float(cell.strip().removeprefix("alpha=")) for cell in header.strip("|").split("|")[1:]]
    return [(int(row[0]), alpha, value) for row in readme_rows("N") for alpha, value in zip(alphas, row[1:])]


CELLS = crossover_cells()


def documented(pattern: str) -> str:
    """The first group of ``pattern`` in the README's prose."""
    match = re.search(pattern, TEXT)
    assert match, f"the README no longer documents {pattern!r}"
    return match.group(1)


def test_the_crossover_table_has_five_levels_at_three_alphas():
    assert len(CELLS) == 15


@pytest.mark.parametrize("levels, alpha, printed", CELLS)
def test_each_crossover_cell_is_crossover_point_to_4_digits(levels, alpha, printed):
    assert f"{crossover_point(alpha, levels):.4f}" == printed


def test_the_qutrit_gap_at_alpha_1_names_each_value_s_function():
    assert documented(r"`hcla_measure\(1\.0, 3\)` is (\d+\.\d+)") == f"{hcla_measure(1.0, 3):.4f}"
    assert documented(r"`qutrit_hcla_log_form\(1\.0\)` is (\d+\.\d+)") == f"{qutrit_hcla_log_form(1.0):.4f}"


def coefficient(expression: str) -> float:
    """c of a README expression ``c alpha/d`` or ``alpha/d``."""
    match = re.fullmatch(r"(?:(\d+) )?alpha/(\d+)", expression)
    assert match, f"not of the form c alpha/d: {expression!r}"
    return int(match.group(1) or 1) / int(match.group(2))


@pytest.mark.parametrize("alpha", [0.0, 0.01, 0.3, 0.7, 1.0])
def test_the_closed_form_measures_are_the_documented_multiples_of_alpha(alpha):
    blp = coefficient(documented(r"`blp_measure\(alpha\)` is `([^`]+)`"))
    volume = coefficient(documented(r"`volume_measure\(alpha\)` is `([^`]+)`"))
    assert blp_measure(alpha) == pytest.approx(blp * alpha, rel=1e-12, abs=0.0)
    assert volume_measure(alpha) == volume * alpha
