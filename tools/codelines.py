"""Count the code lines of each module of ``src/depolmark``.

A code line is a source line that holds at least one token other than a
comment, blank-line or indentation token, and that is not part of a
docstring (the leading string literal of a module, class or function,
found with ``ast``). This is the simplicity metric the ROADMAP tracks.

Usage: ``python3 tools/codelines.py [PACKAGE_DIR]`` from the checkout
root; prints one ``lines  module`` row per module, the total, the
production total (every module but the test-only oracle ``dense``), and
the code lines on the import path of ``depolmark fig1``: the sum over the
package modules that command has loaded when it ends, run in a fresh
interpreter against PACKAGE_DIR.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
import tokenize
from pathlib import Path

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


def _docstring_lines(tree: ast.AST) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """Number of code lines of one Python source file."""
    with tokenize.open(path) as fh:
        source = fh.read()
    with path.open("rb") as fh:
        tokens = list(tokenize.tokenize(fh.readline))
    lines = set()
    for tok in tokens:
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def fig1_modules(package: Path) -> list:
    """Source files of the package modules that ``depolmark fig1`` loads."""
    env = dict(os.environ, PYTHONPATH=str(package.resolve().parent))
    proc = subprocess.run([sys.executable, "-c", _FIG1], env=env, capture_output=True, text=True, check=True)
    names = proc.stdout.split()
    return [package / ("__init__.py" if name == package.name else name.split(".", 1)[1] + ".py") for name in names]


def main(argv: list) -> int:
    package = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent / "src" / "depolmark"
    counts = {path.name: code_lines(path) for path in sorted(package.glob("*.py"))}
    for name, count in counts.items():
        print(f"{count:6d}  {name}")
    print(f"{sum(counts.values()):6d}  total")
    print(f"{sum(counts.values()) - counts.get('dense.py', 0):6d}  production (all but dense)")
    loaded = fig1_modules(package)
    print(f"{sum(map(code_lines, loaded)):6d}  import path of depolmark fig1 ({', '.join(p.stem for p in loaded)})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
