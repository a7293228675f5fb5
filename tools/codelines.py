"""Count the code, docstring and physical lines of each module of ``src/depolmark``.

A code line is a source line that holds at least one token other than a
comment, blank-line or indentation token, and that is not part of a
docstring (the leading string literal of a module, class or function,
found with ``ast``). Code lines are the simplicity metric the ROADMAP
tracks; docstring and physical lines are the prose a reader reads with
them.

Usage: ``python3 tools/codelines.py [PACKAGE_DIR]`` from the checkout
root; prints one row per module, then the total. A row starts with the
code lines and the name, then gives the docstring lines, those of the
module docstring, and the physical lines. The last line gives the code
lines on the import path of ``depolmark fig1``: the sum over the package
modules that command has loaded when it ends, run in a fresh interpreter
against PACKAGE_DIR. A closed stdout (``| head -1``) ends it with exit
code 1 and nothing on stderr.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
import tokenize
from pathlib import Path
from typing import NamedTuple

# Runs ``depolmark fig1`` into a temporary directory and prints the package
# modules it loaded, one line.
_FIG1 = """
import contextlib, io, sys, tempfile
from depolmark.cli import main
with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
    assert main(["fig1", "--out", out]) == 0
print(" ".join(sorted(m for m in sys.modules if m.split(".")[0] == "depolmark")))
"""

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


class Counts(NamedTuple):
    """Line counts of one source file, or sums of them."""

    code: int
    docstring: int
    module_docstring: int
    physical: int


def total(counts) -> Counts:
    """Column sums of one or more ``Counts``."""
    return Counts(*map(sum, zip(*counts)))


def _docstring_lines(node: ast.AST) -> set:
    """Line numbers of ``node``'s own docstring: empty when it has none."""
    first = node.body[0] if node.body else None
    if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
        return set(range(first.lineno, first.end_lineno + 1))
    return set()


def line_counts(path: Path) -> Counts:
    """Code, docstring, module-docstring and physical lines of one Python source file."""
    with tokenize.open(path) as fh:
        source = fh.read()
    with path.open("rb") as fh:
        tokens = list(tokenize.tokenize(fh.readline))
    lines = set()
    for tok in tokens:
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    tree = ast.parse(source)
    docs = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            docs |= _docstring_lines(node)
    return Counts(len(lines - docs), len(docs), len(_docstring_lines(tree)), len(source.splitlines()))


def package_counts(package: Path) -> dict:
    """``line_counts`` of every module of ``package``, by file name."""
    return {path.name: line_counts(path) for path in sorted(package.glob("*.py"))}


def fig1_modules(package: Path) -> list:
    """Source files of the package modules that ``depolmark fig1`` loads."""
    env = dict(os.environ, PYTHONPATH=str(package.resolve().parent))
    proc = subprocess.run([sys.executable, "-c", _FIG1], env=env, capture_output=True, text=True, check=True)
    names = proc.stdout.split()
    return [package / ("__init__.py" if name == package.name else name.split(".", 1)[1] + ".py") for name in names]


def _row(label: str, c: Counts) -> str:
    return f"{c.code:6d}  {label:<27}{c.docstring:6d} docstring{c.module_docstring:6d} module docstring{c.physical:6d} physical"


def main(argv: list) -> int:
    package = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent / "src" / "depolmark"
    counts = package_counts(package)
    for name, c in counts.items():
        print(_row(name, c))
    print(_row("total", total(counts.values())))
    loaded = fig1_modules(package)
    print(f"{sum(line_counts(p).code for p in loaded):6d}  import path of depolmark fig1 ({', '.join(p.stem for p in loaded)})")
    return 0


if __name__ == "__main__":
    try:
        status = main(sys.argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # A closed stdout (``| head -1``): point it at the null device so the
        # interpreter's last flush stays silent, as ``depolmark`` does.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 1
    raise SystemExit(status)
