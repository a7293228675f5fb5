"""Pairs: time one ``depolmark`` command, cold, on a git revision and on the working tree.

Each pair runs the command once as a fresh process on ``src/`` of ``git
archive REV`` and once on ``src/`` of the working tree, each in an empty
temporary directory of its own, with stdout and stderr sent to the null
device and no bytecode written, so every run compiles and imports as a
user's first run does. The side that runs first alternates from pair to
pair, so a drift of the host reaches both sides alike. Per side the tool
prints the median wall time with its quartiles, the median of the child's
peak resident set from ``os.wait4``, and the pairs it won.

On Linux ``wait4`` reports the largest resident set the child had, and a
child forked from a process starts out as large as that process: the
figure is the child's only while it exceeds the tool's own. So this
process imports nothing beyond the standard library modules it needs, and
the report ends with its own peak resident set, the floor under every
child's figure.

Usage: ``python3 tools/pairs.py REV [--pairs N] -- ARGV...`` from the
checkout root, where ``ARGV`` is the command after ``depolmark``, for
example ``python3 tools/pairs.py HEAD -- choi-eigs --steps 200000``. The
default is 10 pairs. It exits 1 when the two sides give different exit
codes, 0 otherwise.
"""

from __future__ import annotations

import argparse
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from samebytes import ENTRY, ROOT, archive_src  # noqa: E402


def run_once(src: Path, argv: tuple) -> tuple:
    """(wall seconds, peak resident set in kB, exit code) of one fresh process on the package in ``src``."""
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()), PYTHONDONTWRITEBYTECODE="1")
    with tempfile.TemporaryDirectory() as cwd:
        began = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", ENTRY, *argv], cwd=cwd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - began
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss, proc.returncode


def measure(sources: dict, argv: tuple, pairs: int) -> list:
    """One record ``(pair, side, order, wall, rss_kb, exit code)`` per run; the two sides of ``sources`` take turns to go first."""
    sides = list(sources)
    records = []
    for pair in range(pairs):
        for order, side in enumerate(sides if pair % 2 == 0 else sides[::-1]):
            records.append((pair, side, order, *run_once(sources[side], argv)))
    return records


def report(records: list) -> list:
    """The report lines of ``records``: per side the median wall time, its quartiles, the median peak RSS and the wins."""
    sides = list(dict.fromkeys(side for _, side, *_ in records))
    walls = {side: {pair: wall for pair, s, _, wall, _, _ in records if s == side} for side in sides}
    wins = {side: sum(walls[side][pair] < min(walls[other][pair] for other in sides if other != side) for pair in walls[side]) for side in sides}
    lines = [f"{'side':12s} {'median_s':>9s} {'q1_s':>8s} {'q3_s':>8s} {'peak_rss_mb':>12s} {'wins':>5s}"]
    for side in sides:
        q1, median, q3 = statistics.quantiles(walls[side].values(), n=4) if len(walls[side]) > 1 else [next(iter(walls[side].values()))] * 3
        rss = statistics.median(rss for _, s, _, _, rss, _ in records if s == side) / 1024
        lines.append(f"{side:12s} {median:9.3f} {q1:8.3f} {q3:8.3f} {rss:12.1f} {wins[side]:5d}")
    codes = {side: sorted({code for _, s, _, _, _, code in records if s == side}) for side in sides}
    lines.append("exit codes: " + ", ".join(f"{side} {codes[side]}" for side in sides))
    return lines


def main(argv: list) -> int:
    own, command = (argv[1:], []) if "--" not in argv else (argv[1 : argv.index("--")], argv[argv.index("--") + 1 :])
    parser = argparse.ArgumentParser(prog="tools/pairs.py", usage="python3 tools/pairs.py REV [--pairs N] -- ARGV...")
    parser.add_argument("rev")
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(own)
    if not command or args.pairs < 1:
        parser.error("give a depolmark command after --, and at least one pair")
    with tempfile.TemporaryDirectory() as tmp:
        records = measure({args.rev: archive_src(args.rev, Path(tmp)), "working": ROOT / "src"}, tuple(command), args.pairs)
    print(f"pairs: depolmark {' '.join(command)}, {args.pairs} pairs, {args.rev} first in pair 1 and the sides alternating")
    for line in report(records):
        print(line)
    print(f"this tool's own peak RSS: {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.1f} MB")
    return 1 if len({code for *_, code in records}) > 1 else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
