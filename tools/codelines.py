"""Count the code lines of each module of ``src/depolmark``.

A code line is a source line that holds at least one token other than a
comment, blank-line or indentation token, and that is not part of a
docstring (the leading string literal of a module, class or function,
found with ``ast``). This is the simplicity metric the ROADMAP tracks.

Usage: ``python3 tools/codelines.py [PACKAGE_DIR]`` from the checkout
root; prints one ``lines  module`` row per module and the total.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

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


def main(argv: list) -> int:
    package = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent / "src" / "depolmark"
    total = 0
    for path in sorted(package.glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{count:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
