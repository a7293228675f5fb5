"""``tools/codelines.py``: its line counts, the docstring budget they hold, and a quiet closed pipe."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "codelines.py"
_spec = importlib.util.spec_from_file_location("codelines", TOOL)
codelines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(codelines)

# Lines of the production module docstrings. A change may lower these
# bounds, naming the change in CHANGES.md; none raises them.
MODULE_DOCSTRING_BUDGET = 115
CLI_MODULE_DOCSTRING_BUDGET = 30

FIXTURE = '''"""Module docstring,
two lines."""

# A comment line.
import math


class Box:
    """One-line class docstring."""

    size = (
        1,
        2,
    )

    def area(self):
        """Method docstring,
        over three lines.
        """
        x = "a string that is not a docstring"
        return math.prod(self.size)  # trailing comment
'''


def test_a_fixture_module_has_its_known_counts(tmp_path):
    path = tmp_path / "fixture.py"
    path.write_text(FIXTURE, encoding="utf-8")
    # Code: import, class, the four lines of size, def, x and return.
    assert codelines.line_counts(path) == codelines.Counts(code=9, docstring=6, module_docstring=2, physical=21)


def test_production_leaves_out_the_oracle():
    counts = {"a.py": codelines.Counts(1, 2, 3, 4), "dense.py": codelines.Counts(10, 20, 30, 40), "b.py": codelines.Counts(5, 6, 7, 8)}
    assert codelines.production(counts) == codelines.Counts(6, 8, 10, 12)


def test_module_docstrings_stay_within_their_budget():
    counts = codelines.package_counts(ROOT / "src" / "depolmark")
    assert counts["cli.py"].module_docstring <= CLI_MODULE_DOCSTRING_BUDGET
    assert codelines.production(counts).module_docstring <= MODULE_DOCSTRING_BUDGET


def test_a_closed_pipe_ends_the_report_without_a_traceback():
    # Unbuffered, the rows go out one by one, and the last one only after the
    # fig1 child has run: by then the pipe below is closed.
    env = dict(os.environ, PYTHONUNBUFFERED="1")
    with subprocess.Popen([sys.executable, str(TOOL)], stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        stderr = proc.stderr.read()
    assert first.split()[1] == "__init__.py"
    assert stderr == ""
