"""Mutation gate: the tier-1 suite against a fixed catalogue of one-line mutants.

Each mutant replaces one piece of text, which must occur exactly once in
its file under ``src/depolmark``. The catalogue holds thresholds and
numerical choices that the suite is meant to pin down: a threshold moved
by a factor of ten, a power taken by another routine, a dropped
quadrature split, a propagator scaled by 1 + 1e-9. For every mutant the
checkout is copied into a temporary directory, the mutant is applied
there, and the tier-1 suite runs on the copy (stopping at its first
failure). A failing suite kills the mutant. The unmutated copy runs first
and has to pass, or no verdict means anything.

A survivor either gets a test that kills it or a one-line reason in the
catalogue. The exit code is 1 when a mutant without a reason survives or
when a mutant's text no longer matches its file (the code moved: update
the catalogue), 0 otherwise.

Usage: ``python3 tools/mutants.py`` from the checkout root. Each mutant
costs one tier-1 run (23-27 s on a 2-vCPU host when it survives, less
when it is killed).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src") / "depolmark"
IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench_out", "*.egg-info")


class Mutant(NamedTuple):
    name: str
    module: str
    old: str
    new: str
    # Why a survivor is acceptable; empty for a mutant the suite must kill.
    reason: str = ""


CATALOGUE = (
    Mutant("zero-floor", "kernel.py", "ZERO_FLOOR = 1e-12", "ZERO_FLOOR = 1e-11"),
    Mutant("singularity-guard", "kernel.py", "SINGULARITY_GUARD = 1e-6", "SINGULARITY_GUARD = 1e-7"),
    Mutant("ncp-margin", "dynmaps.py", "norm > 1.0 + 1e-10", "norm > 1.0 + 1e-8"),
    Mutant("g-function-clamp", "dynmaps.py", "np.where(r > 1e-8", "np.where(r > 1e-7"),
    Mutant("qubit-power-np", "dynmaps.py", "np.reshape([b**n for b in flat], np.shape(base))", "np.power(base, n)"),
    Mutant("qubit-power-one", "dynmaps.py", "[b**n for b in flat]", "[b**1 for b in flat]"),
    Mutant("block-ignores-dim", "matcore.py", "block = max(1, _BUDGET // dim**4)", "block = max(1, _BUDGET // 16)"),
    Mutant(
        "trace-distance-unblocked",
        "measures.py",
        "blockwise(lambda p: distance(qubit_kraus(alpha, p)), p, dim=2)",
        "distance(qubit_kraus(alpha, p))",
    ),
    Mutant(
        "volume-unblocked",
        "geometry.py",
        "blockwise(lambda p: np.abs(np.linalg.det(affine_map_of(alpha, p).matrix)), p, dim=2)",
        "np.abs(np.linalg.det(affine_map_of(alpha, p).matrix))",
    ),
    Mutant(
        "f-norm-unblocked",
        "geometry.py",
        "blockwise(lambda p: f_matrix(alpha, p, levels).trace_norm, p, dim=levels)",
        "f_matrix(alpha, p, levels).trace_norm",
    ),
    Mutant(
        "pinned-propagator-unblocked",
        "dynmaps.py",
        "return blockwise(lambda p_block: fn(propagator(p_block, inverse)), p, dim=levels)",
        "return fn(propagator(p, inverse))",
    ),
    Mutant(
        "n3-propagator-scaled",
        "dynmaps.py",
        "Superoperator(s_p.matrix @ inverse, s_p.dim)",
        "Superoperator(s_p.matrix @ inverse * (1.0 + 1e-9 * (levels == 3)), s_p.dim)",
    ),
    Mutant(
        "blp-split-dropped",
        "measures.py",
        "_quad(integrand, crossover_point(alpha, 2), 1.0)",
        "_quad(integrand, 0.0, 1.0)",
    ),
    Mutant(
        "first-pass-always-accepted",
        "measures.py",
        "if abserr <= errbnd and abserr != resasc or abserr == 0.0:",
        "if True:",
    ),
    Mutant(
        "round-off-pass-accepted",
        "measures.py",
        "if abserr <= errbnd and abserr != resasc",
        "if abserr <= max(errbnd, 100.0 * _EPS * resabs) and abserr != resasc",
    ),
    Mutant("empty-window-runs-first-pass", "measures.py", "    if lower < upper:", "    if lower <= upper:"),
    Mutant("gauss-sum-kronrod-weights", "measures.py", "resg += _WG[j // 2] * (f1 + f2)", "resg += _WGK[j] * (f1 + f2)"),
    Mutant(
        "crossover-unclamped",
        "kernel.py",
        "return min(2.0 / ((1 + alpha) + math.sqrt(disc)), 1.0)",
        "return 2.0 / ((1 + alpha) + math.sqrt(disc))",
    ),
    Mutant(
        "hcla-branch-point",
        "measures.py",
        "    if alpha < 1e-6:\n        c = (levels * levels - 1)",
        "    if alpha < 1e-5:\n        c = (levels * levels - 1)",
        reason="an accuracy gain, not a defect: the s = 1 - p form is the more accurate one (ROADMAP item 5 covers it)",
    ),
    Mutant("kraus-completeness", "channels.py", ".max() > 1e-9", ".max() > 1e-8"),
    Mutant("hermitian-tolerance", "matcore.py", "tol = 1e-10 * np.maximum", "tol = 1e-9 * np.maximum"),
    Mutant("witness-cross-check", "measures.py", "> 1e-8 * np.maximum", "> 1e-7 * np.maximum"),
    Mutant("all-masked-group-calls-fn", "cli.py", "fn(kept) if kept else [()] * len(names)", "fn(kept)"),
    Mutant("grid-end-not-pinned", "cli.py", "return points + [self.p_max]", "return points + [div * step + self.p_min]"),
    Mutant("grid-zero-step-branch-dropped", "cli.py", "if step == 0:", "if False:"),
    Mutant(
        "lambda-ratio-floor-inclusive",
        "kernel.py",
        "abs(den) / n2 > ZERO_FLOOR",
        "abs(den) / n2 >= ZERO_FLOOR",
        reason="equivalent: near the root den = x - N^2 is an exact multiple of ulp(N^2), and no such multiple over N^2 equals 1e-12 (checked for N = 2..39)",
    ),
    Mutant(
        "lambda-ratio-alpha-check-dropped",
        "kernel.py",
        "    if not 0.0 <= alpha <= 1.0:\n        raise _alpha_error(alpha)\n    _check_pair(q, p)",
        "    _check_pair(q, p)",
    ),
    Mutant("trajectory-range-check-dropped", "kernel.py", "if not 0.0 <= p <= 1.0:", "if False:"),
    Mutant(
        "trajectory-singular-cp-divisible",
        "kernel.py",
        "return lam, math.nan, inside, False",
        "return lam, math.nan, inside, True",
    ),
    Mutant("output-error-handler-removed", "cli.py", "except OSError as exc:", "except ArithmeticError as exc:"),
    Mutant("default-level-ignores-domain", "cli.py", '"levels": (entry.levels or (2,))[:1]', '"levels": (2,)'),
    Mutant(
        "pinned-singular-check-dropped",
        "cli.py",
        "for alpha in spec.alpha:\n            for levels in spec.levels:",
        "for alpha in ():\n            for levels in spec.levels:",
    ),
    Mutant("writer-format-swapped", "cli.py", '{**table.metadata, "format": "json"}', '{**table.metadata, "format": "csv"}'),
)


def tier1(root: Path) -> bool:
    """Whether the tier-1 suite passes in the checkout at ``root``."""
    # No bytecode: a mutant of the same length, written within the same
    # second as the original, would otherwise reuse a stale .pyc.
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--continue-on-collection-errors"]
    proc = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=900)
    return proc.returncode == 0


def run(mutants: list) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "checkout"
        shutil.copytree(ROOT, copy, ignore=IGNORE)
        if not tier1(copy):
            print("the unmutated suite fails; no verdict")
            return 1
        bad = 0
        for mutant in mutants:
            path = copy / PACKAGE / mutant.module
            original = path.read_text(encoding="utf-8")
            if original.count(mutant.old) != 1:
                print(f"stale     {mutant.name}: its text occurs {original.count(mutant.old)} times in {mutant.module}")
                bad += 1
                continue
            path.write_text(original.replace(mutant.old, mutant.new), encoding="utf-8")
            try:
                killed = not tier1(copy)
            finally:
                path.write_text(original, encoding="utf-8")
            verdict = "killed" if killed else "survived"
            note = f" ({mutant.reason})" if not killed and mutant.reason else ""
            print(f"{verdict:9s} {mutant.name}: {mutant.module}: {mutant.old.strip()!r} -> {mutant.new.strip()!r}{note}", flush=True)
            bad += not killed and not mutant.reason
        return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(run(list(CATALOGUE)))
