"""Mutation gate: the tier-1 suite against a fixed catalogue of one-line mutants.

Each mutant replaces one piece of text, which must occur exactly once in
its file under ``src/depolmark``. The catalogue holds thresholds and
numerical choices that the suite is meant to pin down: a threshold moved
by a factor of ten, a power taken by another routine, a dropped
quadrature split, a propagator scaled by 1 + 1e-9. The checkout is
copied into a temporary directory once; each mutant is applied there in
turn, and the whole tier-1 suite runs on the copy once, in one
``pytest -x`` call that stops at the first failure, and any failure kills
the mutant. The call names every tier-1 test file as an explicit
argument: first ``tests/test_golden.py``, which checks the bytes of every
preset in under a second, then the files whose import lines name the
mutated module (``from depolmark import cli``, ``from depolmark.cli import
...``), then every other file, each group in name order. pytest keeps the
order of explicit files (it re-sorts them when a directory is given too,
so none is), so a mutant is most often killed early; the files are the
suite either way, so the order changes how long a verdict takes, never
the verdict. The unmutated copy makes the same call first, and has to
pass, or no verdict means anything. The call runs with
``--assert=plain``: pytest would otherwise rewrite the asserts of the
plugins it loads (74 hypothesis and 12 pytest-benchmark modules) in every
run, about 3 s, and a failing assert fails either way.

A survivor either gets a test that kills it or a one-line reason in the
catalogue. The exit code is 1 when a mutant without a reason survives,
when a killed mutant still carries a reason (the reason is stale: drop
it), or when a mutant's text no longer matches its file (the code moved:
update the catalogue), 0 otherwise.

Usage: ``python3 tools/mutants.py`` from the checkout root. Each
verdict line prints the wall time of its run, and the last line gives the
gate's total.
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src") / "depolmark"
# Runs first in every call: it checks every preset's and every cold sweep's
# bytes in under a second, so a mutant that moves an output byte dies there.
GOLDEN = "tests/test_golden.py"
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
    Mutant("g-function-clamp", "dynmaps.py", "r * (r > 1e-8)", "r * (r > 1e-7)"),
    Mutant("g-function-negative-zero", "dynmaps.py", "r * (r > 1e-8) + 0.0", "r * (r > 1e-8)"),
    Mutant("g-function-q-bound", "dynmaps.py", "q_arr + eps <= 1.0", "q_arr <= 1.0"),
    Mutant("qubit-power-np", "dynmaps.py", "np.reshape([b**n for b in flat], np.shape(base))", "np.power(base, n)"),
    Mutant("qubit-power-one", "dynmaps.py", "[b**n for b in flat]", "[b**1 for b in flat]"),
    Mutant("block-ignores-dim", "matcore.py", "block = max(1, _BUDGET // dim**4)", "block = max(1, _BUDGET // 16)"),
    Mutant("empty-grid-not-called", "matcore.py", "range(0, max(1, flat[0].size), block)", "range(0, flat[0].size, block)"),
    Mutant(
        "block-0d-result-not-float",
        "matcore.py",
        "out.shape[1:])\n    return float(out) if out.ndim == 0 else out",
        "out.shape[1:])\n    return out",
    ),
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
        "blockwise(lambda p: f_matrix(alpha, p, levels).trace_norm, p, dim=_check_levels(levels))",
        "f_matrix(alpha, p, levels).trace_norm",
    ),
    Mutant(
        "pinned-propagator-unblocked",
        "dynmaps.py",
        "return blockwise(lambda p_block: fn(propagator(p_block, inverse)), p, dim=_check_levels(levels))",
        "return fn(propagator(p, inverse))",
    ),
    Mutant(
        "n3-propagator-scaled",
        "dynmaps.py",
        "levels)).matrix @ inverse)",
        "levels)).matrix @ inverse * (1.0 + 1e-9 * (levels == 3)))",
    ),
    Mutant(
        "blp-split-dropped",
        "kernel.py",
        "max(0.0, _distance_slope(*pair(p))), lower, 1.0)",
        "max(0.0, _distance_slope(*pair(p))), 0.0, 1.0)",
    ),
    Mutant(
        "first-pass-always-accepted",
        "kernel.py",
        "if abserr <= errbnd and abserr != resasc or abserr == 0.0:",
        "if True:",
    ),
    Mutant(
        "round-off-pass-accepted",
        "kernel.py",
        "if abserr <= errbnd and abserr != resasc",
        "if abserr <= max(errbnd, 100.0 * _EPS * resabs) and abserr != resasc",
    ),
    Mutant("empty-window-runs-first-pass", "kernel.py", "    if lower < upper:", "    if lower <= upper:"),
    Mutant(
        "empty-window-negative-zero",
        "kernel.py",
        "    elif lower == upper:\n        return 0.0",
        "    elif lower == upper:\n        return -0.0",
    ),
    Mutant("gauss-sum-kronrod-weights", "kernel.py", "resg += _WG[j // 2] * (f1 + f2)", "resg += _WGK[j] * (f1 + f2)"),
    Mutant(
        "crossover-unclamped",
        "kernel.py",
        "return min(2.0 / ((1 + alpha) + math.sqrt(disc)), 1.0)",
        "return 2.0 / ((1 + alpha) + math.sqrt(disc))",
    ),
    Mutant(
        "hcla-branch-point",
        "kernel.py",
        "    if alpha < 1e-6:\n        c = (levels * levels - 1)",
        "    if alpha < 1e-5:\n        c = (levels * levels - 1)",
    ),
    Mutant("kraus-completeness", "channels.py", "defect() > 1e-9", "defect() > 1e-8"),
    Mutant("map-matrix-side-any-square", "dynmaps.py", "!= (d * d, d * d) or", "!= (m.shape[-1],) * 2 or"),
    Mutant("map-matrix-dimension-zero", "dynmaps.py", "or d < 1:", "or d < 0:"),
    Mutant("kraus-set-dimension-zero", "channels.py", "not 1 <= ops[0].shape[-2] ==", "not 0 <= ops[0].shape[-2] =="),
    Mutant(
        "transfer-sums-swapped",
        "geometry.py",
        "(g * images).sum(axis=-1).sum(axis=-1)",
        "(g * images).sum(axis=-2).sum(axis=-1)",
        reason="equivalent: a Pauli or Gell-Mann element has one nonzero per row and column at most, so each trace adds two nonzero terms, or diagonal ones in index order, either way (same bits on 503 p x 22 alpha at N = 2, 3, 4)",
    ),
    Mutant("hermitian-tolerance", "matcore.py", "tol = 1e-10 * np.maximum", "tol = 1e-9 * np.maximum"),
    Mutant("witness-cross-check", "measures.py", "> 1e-8 * np.maximum", "> 1e-7 * np.maximum"),
    Mutant("scalar-sequence-test-skips-iter", "cli.py", "items = iter(value) if many else None", "items = value if many else None"),
    Mutant("grid-end-not-pinned", "cli.py", "return points + [self.p_max]", "return points + [div * step + self.p_min]"),
    Mutant("grid-zero-step-branch-dropped", "cli.py", "if step == 0:", "if False:"),
    Mutant(
        "lambda-ratio-floor-inclusive",
        "kernel.py",
        "abs(den) / n2 > ZERO_FLOOR",
        "abs(den) / n2 >= ZERO_FLOOR",
        reason="equivalent: near the root den = x - N^2 is exact and a multiple of half an ulp of N^2, and no such multiple over N^2 equals 1e-12 (checked for N = 2..69)",
    ),
    Mutant(
        "lambda-ratio-alpha-check-dropped",
        "kernel.py",
        '    _check_unit("alpha", alpha)\n    _check_unit("q", q)',
        '    _check_unit("q", q)',
    ),
    Mutant("trajectory-range-check-dropped", "kernel.py", '(_check_unit("grid values", p))', "(p)"),
    Mutant(
        "unit-check-first-point",
        "kernel.py",
        "x.reshape(-1)[ok.reshape(-1).argmin()]",
        "x.reshape(-1)[ok.reshape(-1).argmax()]",
    ),
    Mutant("levels-check-boundary", "kernel.py", '_check_count(levels, 2, "levels', '_check_count(levels, 1, "levels'),
    Mutant("levels-upper-bound", "kernel.py", "if n > 10**150:", "if n > 10**154:"),
    Mutant("slot-permutation-binary", "dynmaps.py", ".reshape([levels] * (2 * qubits))", ".reshape([2] * (2 * qubits))"),
    Mutant(
        "slot-permutation-halves-swapped",
        "dynmaps.py",
        "axes = list(range(0, 2 * qubits, 2)) + list(range(1, 2 * qubits, 2))",
        "axes = list(range(1, 2 * qubits, 2)) + list(range(0, 2 * qubits, 2))",
    ),
    Mutant(
        "hcla-closed-series-before-check",
        "kernel.py",
        "    lower = crossover_point(alpha, 2)\n    if alpha < 1e-6:\n        return alpha / 4.0 + 3.0 * alpha * alpha / 32.0\n",
        "    if alpha < 1e-6:\n        return alpha / 4.0 + 3.0 * alpha * alpha / 32.0\n    lower = crossover_point(alpha, 2)\n",
    ),
    Mutant("product-kraus-qubit-factors", "dense.py", "single = _kraus(alpha, p, levels).operators", "single = qubit_kraus(alpha, p).operators"),
    Mutant("qubits-check-boundary", "dynmaps.py", '_check_count(n, 1, "qubits', '_check_count(n, 0, "qubits'),
    Mutant("count-integrality-dropped", "kernel.py", "isinstance(n, float) and n.is_integer()", "isinstance(n, float)"),
    Mutant(
        "survival-source-levels-unchecked",
        "kernel.py",
        "n2 = _check_levels(levels) ** 2\n    c = (n2 - 1 + 0 * alpha) / n2",
        "n2 = levels**2\n    c = (n2 - 1 + 0 * alpha) / n2",
    ),
    Mutant("survival-float-one", "kernel.py", "(1 - (p + alpha * p", "(1.0 - (p + alpha * p"),
    Mutant("pair-slope-halved", "kernel.py", "(c + c) * alpha", "c * alpha"),
    Mutant("survival-source-curvature-drops-alpha", "kernel.py", "curvature, slope, intercept = c * alpha,", "curvature, slope, intercept = c,"),
    Mutant("survival-source-intercept-drops-alpha", "kernel.py", "-(alpha + 1)", "-1"),
    Mutant("lambda-source-linear-drops-n2", "kernel.py", "linear, quadratic = n2 + n2 * alpha,", "linear, quadratic = n2 + alpha,"),
    Mutant("lambda-source-quadratic-coefficient", "kernel.py", "quadratic = n2 + n2 * alpha, (n2 - 1) * alpha", "quadratic = n2 + n2 * alpha, n2 * alpha"),
    Mutant("lambda-source-denominator-coefficient", "kernel.py", "den = q * (linear - quadratic * q) - n2", "den = q * (linear - n2 * alpha * q) - n2"),
    Mutant(
        "lambda-source-denominator-regrouped",
        "kernel.py",
        "den = q * (linear - quadratic * q) - n2",
        "den = n2 * q + n2 * alpha * q - (n2 - 1) * alpha * q * q - n2",
    ),
    Mutant("choi-spectrum-float-inverse", "kernel.py", "inv = (0 * lam + 1) / n2", "inv = 1 / n2"),
    Mutant("guard-band-qubit-point", "kernel.py", "point = crossover_point(alpha, levels)", "point = crossover_point(alpha, 2)"),
    Mutant("kappa-p-check-dropped", "kernel.py", 'return _check_unit("p", p) + alpha * p', "return p + alpha * p"),
    Mutant("survival-p-check-dropped", "kernel.py", '(alpha, levels)(_check_unit("p", p))[0]', "(alpha, levels)(p)[0]"),
    Mutant("q-grid-walk-levels-unchecked", "dynmaps.py", "q, p, dim=_check_levels(levels))", "q, p, dim=levels)"),
    Mutant(
        "hermitian-nonsquare-scalar",
        "matcore.py",
        "return np.zeros(m.shape[:-2], dtype=bool)",
        "return False",
    ),
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
        "for alpha, levels in itertools.product(self.alpha, self.levels):",
        "for alpha, levels in itertools.product((), self.levels):",
    ),
    Mutant("grid-room-dropped", "cli.py", "self.p_max + entry.room <= 1.0", "self.p_max <= 1.0"),
    Mutant(
        "alpha-list-grid-exempt",
        "cli.py",
        "if not (0.0 <= self.p_min and self.p_max + entry.room <= 1.0):",
        'if (entry.abscissa != "alpha" or len(self.alpha) == 1) and not (0.0 <= self.p_min and self.p_max + entry.room <= 1.0):',
    ),
    Mutant("one-level-rule-ignored", "cli.py", "if entry.one_level and len(self.levels) != 1:", "if False and len(self.levels) != 1:"),
    Mutant("spec-levels-unchecked", "cli.py", "                _check_levels(n)\n", "                pass\n"),
    Mutant("writer-format-swapped", "cli.py", '{**table.metadata, "format": "json"}', '{**table.metadata, "format": "csv"}'),
    Mutant("csv-zero-cell-na", "cli.py", '"NA" if v is None else', '"NA" if not v else'),
    Mutant("json-rows-as-columns", "cli.py", "rows = zip(*table.columns)", "rows = iter(table.columns)"),
    Mutant(
        "json-last-partial-chunk-dropped",
        "cli.py",
        "iter(lambda: list(itertools.islice(rows, _JSON_CHUNK)), [])",
        "(c for c in iter(lambda: list(itertools.islice(rows, _JSON_CHUNK)), []) if len(c) == _JSON_CHUNK)",
    ),
    Mutant("levels-loop-first-only", "cli.py", "for n in spec.levels:", "for n in spec.levels[:1]:"),
    Mutant("decay-rate-pole-computed", "cli.py", "math.nan if pole else", "math.nan if False else"),
    Mutant("decay-rate-norm-pole-computed", "cli.py", "math.nan if norm_pole else", "math.nan if False else"),
    Mutant("decay-rate-norm-mask-drops-g", "cli.py", "abs(g + dg)", "abs(dg)"),
)


def importers(root: Path, module: str) -> list:
    """The tier-1 test files under ``root`` whose import lines name ``depolmark.<module>``."""
    name = "depolmark." + module.removesuffix(".py")
    files = []
    for path in sorted((root / "tests").glob("test_*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module in ("depolmark", name):
                named = {node.module + "." + alias.name for alias in node.names} | {node.module}
            elif isinstance(node, ast.Import):
                named = {alias.name for alias in node.names}
            else:
                continue
            if name in named:
                files.append(str(path.relative_to(root)))
                break
    return files


def test_files(root: Path, module: str | None = None) -> list:
    """Every tier-1 test file under ``root``: ``GOLDEN`` first, then those that import ``depolmark.<module>``, then the others."""
    first = [GOLDEN, *(importers(root, module) if module else [])]
    rest = [str(path.relative_to(root)) for path in sorted((root / "tests").glob("test_*.py"))]
    return list(dict.fromkeys(first + rest))


def tier1(root: Path, files: list) -> bool:
    """Whether the tier-1 suite passes in the checkout at ``root``, its ``files`` run in the order given."""
    # No bytecode: a mutant of the same length, written within the same
    # second as the original, would otherwise reuse a stale .pyc.
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "--assert=plain", "-p", "no:cacheprovider", "--continue-on-collection-errors", *files]
    proc = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=900)
    return proc.returncode == 0


def timed(check) -> tuple:
    """``(check(), wall seconds)``."""
    began = time.perf_counter()
    return check(), time.perf_counter() - began


def run(mutants: list) -> int:
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "checkout"
        shutil.copytree(ROOT, copy, ignore=IGNORE)
        if not tier1(copy, test_files(copy)):
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
                passed, seconds = timed(lambda: tier1(copy, test_files(copy, mutant.module)))
            finally:
                path.write_text(original, encoding="utf-8")
            killed = not passed
            verdict = f"{'killed' if killed else 'survived':9s} {seconds:5.1f} s"
            note = f" ({mutant.reason})" if not killed and mutant.reason else ""
            print(f"{verdict} {mutant.name}: {mutant.module}: {mutant.old.strip()!r} -> {mutant.new.strip()!r}{note}", flush=True)
            if killed and mutant.reason:
                print(f"stale     {mutant.name}: killed, yet the catalogue gives a reason for its survival: {mutant.reason}")
            bad += killed == bool(mutant.reason)  # killed with a reason, or survived without one
        print(f"gate: {len(mutants)} mutants in {time.perf_counter() - start:.0f} s")
        return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(run(list(CATALOGUE)))
