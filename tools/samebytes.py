"""Same bytes: run one command list on a git revision and on the working tree, and name every difference.

Each command of ``COMMANDS`` runs as a fresh ``depolmark`` process, in an
empty temporary directory of its own, once on ``src/`` of ``git archive
REV`` and once on ``src/`` of the working tree. The two runs are compared
on their exit code, their stdout, their stderr and every file they wrote,
by name and byte for byte. The list holds the 13 figure presets and every
quantity at its defaults, each in CSV and JSON, multi-series and edge
sweeps, tables of 200 000 rows in CSV and JSON (since v2), n copies of a
qutrit (since v3), Choi spectra at N = 5 and 64, lambda at p = q and
the grid echo and level bound of a usage error (since v4), and probes of
the exit-2 (usage error) and exit-3 (pinned singularity) paths. It is
versioned: a change to it bumps ``VERSION``, so two reports of the same
version ran the same commands.

Usage: ``python3 tools/samebytes.py REV`` from the checkout root. It
prints one line per difference, then a summary line, and exits 1 on any
difference, 0 otherwise. The full list takes about 35 s on a 2-vCPU host.
"""

from __future__ import annotations

import io
import os
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ENTRY = "from depolmark.cli import console_main; console_main()"
VERSION = 4

_FIGURES = tuple(f"fig{i}" for i in range(1, 14))
_QUANTITIES = ("choi-eigs", "choi-norm", "decay-rate", "hcla", "blp", "trace-distance", "memory-x", "volume", "trajectory", "f-norm", "g-function")

COMMANDS = (
    *((fig, *fmt) for fig in _FIGURES for fmt in ((), ("--format", "json"))),
    *((name, *fmt) for name in _QUANTITIES for fmt in ((), ("--format", "json"))),
    # Several series in one table.
    ("choi-eigs", "--alpha", "0,0.5,1", "--levels", "2,3,4", "--steps", "41"),
    ("choi-norm", "--alpha", "0.2,0.9", "--q", "0.4", "--qubits", "1,2,3", "--steps", "41"),
    ("choi-norm", "--alpha", "0.9", "--q", "0.4", "--levels", "2,3,4", "--steps", "41", "--format", "json"),
    # n copies of an N-level system (v3): the n-th powers of one qutrit column.
    ("choi-norm", "--alpha", "0.9", "--q", "0.4", "--levels", "3", "--qubits", "1,2,3", "--steps", "41"),
    ("decay-rate", "--alpha", "0,0.3,1", "--levels", "3"),
    # Choi spectra at any N, and lambda(q, q) = 1 at the first grid point (v4).
    ("choi-eigs", "--levels", "5,64", "--steps", "5"),
    ("choi-eigs", "--alpha", "0.9", "--q", "0.6", "--steps", "3"),
    ("g-function", "--alpha", "0,0.5,0.9", "--qubits", "1,2", "--steps", "51"),
    ("memory-x", "--alpha", "0,0.7,1", "--steps", "51"),
    ("trace-distance", "--alpha", "0,0.5,1"),
    ("volume", "--alpha", "0,0.7,1", "--format", "json"),
    ("trajectory", "--alpha", "0,0.7,1", "--steps", "51"),
    ("f-norm", "--alpha", "0,0.7,1", "--levels", "4", "--steps", "41"),
    ("hcla", "--levels", "3", "--steps", "11"),
    ("hcla", "--alpha", "0,1e-16,1e-7,1e-6,1"),
    ("blp", "--alpha", "0,1e-16,1e-6,0.5,1", "--format", "json"),
    # The writers at scale (v2): 200 000 rows in CSV and JSON, and NA cells in JSON.
    ("choi-eigs", "--steps", "200000"),
    ("choi-eigs", "--steps", "200000", "--format", "json"),
    ("decay-rate", "--alpha", "0,0.7", "--steps", "2001", "--format", "json"),
    # Edges: two points, both poles, the guard band, signed zeros, written files.
    ("choi-eigs", "--steps", "2"),
    ("choi-eigs", "--alpha", "1", "--q", "0", "--steps", "7"),
    ("choi-eigs", "--alpha", "-0.0", "--q", "-0.0", "--p-min", "-0.0", "--steps", "5"),
    ("choi-eigs", "--p-min", "0.3", "--p-max", "0.30000000000000004", "--steps", "3"),
    ("decay-rate", "--alpha", "0", "--steps", "3"),
    ("decay-rate", "--alpha", "0.7", "--p-min", "0.77", "--p-max", "0.78", "--steps", "101"),
    ("trajectory", "--alpha", "1", "--p-min", "0.6", "--p-max", "0.7", "--steps", "11"),
    ("g-function", "--p-min", "0.99", "--p-max", "0.999999", "--steps", "5"),
    ("choi-eigs", "--format", "json", "--out", "out.json"),
    ("fig1", "--alpha", "0.5"),
    ("--help",),
    # Usage errors: exit 2.
    ("f-norm", "--levels", "5"),
    ("f-norm", "--levels", "3,4"),
    ("decay-rate", "--levels", "1"),
    ("choi-norm", "--qubits", "0"),
    ("choi-norm", "--levels", "2,3", "--qubits", "1,2"),
    ("g-function", "--qubits", "3"),
    ("g-function", "--p-max", "0.9999999"),
    ("choi-eigs", "--alpha", "1.5"),
    ("choi-eigs", "--alpha", "0.1,x"),
    ("choi-eigs", "--levels", "2,a"),
    ("choi-eigs", "--alpha", "0.7,0.7"),
    ("choi-eigs", "--steps", "1"),
    ("trace-distance", "--steps", "1000001"),
    ("choi-eigs", "--q", "0.5", "--p-min", "0.4"),
    ("trajectory", "--p-min", "-0.1"),
    ("volume", "--p-min", "0.5", "--p-max", "0.5"),
    ("hcla", "--alpha", "0.5"),
    ("decay-rate", "--q", "0.3"),
    ("g-function", "--q", "0.3"),
    ("choi-eigs", "--format", "xml"),
    # A grid bound the payload would echo as Infinity, and an N whose N^2 overflows a float (v4).
    ("hcla", "--alpha", "0.1,0.2", "--p-max", "inf", "--format", "json"),
    ("decay-rate", "--levels", "1" + "0" * 160),
    ("nonsense",),
    (),
    ("decay-rate", "--out", "missing/x.csv"),
    ("fig12", "--out", "missing"),
    # Pinned singularities: exit 3.
    ("choi-eigs", "--alpha", "1", "--q", "0.6666666666666666"),
    ("choi-eigs", "--alpha", "1", "--levels", "3", "--q", "0.75"),
    ("choi-eigs", "--alpha", "0", "--q", "0.9999995"),
    ("memory-x", "--alpha", "1", "--q", "0.6666667"),
    ("choi-norm", "--alpha", "1", "--q", "0.66666667", "--qubits", "1,2"),
)


def run(src: Path, argv: tuple) -> tuple:
    """(exit code, stdout, stderr, {path: bytes} of the files written) of one fresh process on the package in ``src``."""
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()), PYTHONDONTWRITEBYTECODE="1")
    with tempfile.TemporaryDirectory() as cwd:
        proc = subprocess.run([sys.executable, "-c", ENTRY, *argv], cwd=cwd, env=env, capture_output=True, timeout=300)
        files = {str(path.relative_to(cwd)): path.read_bytes() for path in sorted(Path(cwd).rglob("*")) if path.is_file()}
    return proc.returncode, proc.stdout, proc.stderr, files


def _first_difference(a: bytes, b: bytes) -> str:
    at = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    return f"first at byte {at} of {len(a)} vs {len(b)}"


def compare(argv: tuple, old: tuple, new: tuple) -> list:
    """One line per difference between the runs ``old`` and ``new`` of the command ``argv``."""
    name = "depolmark " + " ".join(argv) if argv else "depolmark (no arguments)"
    lines = []
    if old[0] != new[0]:
        lines.append(f"{name}: exit code {old[0]} vs {new[0]}")
    for stream, a, b in (("stdout", old[1], new[1]), ("stderr", old[2], new[2])):
        if a != b:
            lines.append(f"{name}: {stream} differs, {_first_difference(a, b)}")
    for path in sorted(old[3].keys() | new[3].keys()):
        a, b = old[3].get(path), new[3].get(path)
        if a is None or b is None:
            lines.append(f"{name}: file {path} written only on the {'new' if a is None else 'old'} side")
        elif a != b:
            lines.append(f"{name}: file {path} differs, {_first_difference(a, b)}")
    return lines


def differences(old_src: Path, new_src: Path, commands: tuple = COMMANDS) -> list:
    """Every difference line of ``commands`` run on the packages in ``old_src`` and ``new_src``."""
    return [line for argv in commands for line in compare(argv, run(old_src, argv), run(new_src, argv))]


def archive_src(rev: str, into: Path) -> Path:
    """``src/`` of ``git archive rev``, extracted under ``into``."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev, "src"], cwd=ROOT, capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(into, filter="data")
    return into / "src"


def main(argv: list) -> int:
    if len(argv) != 2:
        print("usage: python3 tools/samebytes.py REV", file=sys.stderr)
        return 2
    began = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        lines = differences(archive_src(argv[1], Path(tmp)), ROOT / "src")
    for line in lines:
        print(line)
    seconds = time.perf_counter() - began
    print(f"samebytes v{VERSION}: {len(COMMANDS)} commands, {len(lines)} differences ({argv[1]} vs the working tree) in {seconds:.0f} s")
    return 1 if lines else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
