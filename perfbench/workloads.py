"""The benchmark's three workloads: op lists, how one op runs, how it is checked.

Each workload is one client in one process, closed loop and serial: the
next op starts only after the previous one returned. The op list of a
pass is fixed by the seed, so every pass of a run does the same work.

* ``presets``: the 13 figure presets, written as CSV by ``cli.figure`` in
  process (2269 rows per pass). These are the paper's datasets and every
  library layer works here; ``choi_of`` at d = 4 (fig12) dominates.
* ``oracle``: seeded calls to the dense Kraus -> superoperator -> Choi
  route, checked against closed forms of the survival factor
  G(p) = 1 - k(p). It is the only workload that reaches d = 8, and the
  dense route stays in the library as the oracle after sweeps stop using it.
* ``cli-cold``: one fresh ``depolmark`` process per invocation, as a user
  runs it; import dominates, so import-path work shows here and kernel
  work barely does.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
GOLDEN_PATH = HERE / "golden.json"
OUT_DIR = ".perfbench_out"

# Outputs of the dense route must match the closed forms to this share of
# the largest closed-form value (1 when that is smaller). Near the
# singular q the values grow like 1/G(q), and so does their absolute
# rounding error, which is why the tolerance is relative.
RTOL = 1e-6


@dataclass
class Outcome:
    """What one op produced: ``ok``, ``singular`` (a documented singularity) or ``failed``."""

    status: str
    detail: str = ""
    payload: dict = field(default_factory=dict)


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def data_rows(text: str) -> int:
    """Data rows of a CSV payload (``#`` metadata and the header excluded) or a JSON one."""
    if text.lstrip().startswith("{"):
        return len(json.loads(text)["rows"])
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    return max(len(lines) - 1, 0)


# ---------------------------------------------------------------- closed forms


def survival(alpha: float, x: float, levels: int) -> float:
    """G(x) = 1 - k(x) with k(x) = x + alpha x - ((N^2 - 1)/N^2) alpha x^2."""
    c = (levels * levels - 1) / (levels * levels)
    return 1.0 - (x + alpha * x - c * alpha * x * x)


def singular_q(alpha: float, levels: int) -> float:
    """The smaller root of G, where the propagator is undefined (alpha > 0)."""
    c = (levels * levels - 1) / (levels * levels)
    return 2.0 / ((1.0 + alpha) + math.sqrt((1.0 + alpha) ** 2 - 4.0 * c * alpha))


def closed_spectrum(lam: float, levels: int, qubits: int) -> np.ndarray:
    """Choi spectrum of the propagator with transfer eigenvalue ``lam``, ascending."""
    n2 = levels * levels
    single = np.array([lam + (1.0 - lam) / n2] + [(1.0 - lam) / n2] * (n2 - 1))
    spectrum = single
    for _ in range(qubits - 1):
        spectrum = np.outer(spectrum, single).ravel()
    return np.sort(spectrum)


def mismatch(got, want) -> float:
    """Largest deviation as a share of max(1, largest |want|)."""
    got = np.asarray(got, dtype=complex)
    want = np.asarray(want, dtype=complex)
    if got.shape != want.shape:
        return math.inf
    scale = max(1.0, float(np.abs(want).max()))
    return float(np.abs(got - want).max()) / scale


# ---------------------------------------------------------------- presets


class Presets:
    name = "presets"
    # The 13 calls differ a thousandfold in size, so latency percentiles
    # count each call once per row it emits: p50 is the call latency that
    # half of the rows waited for. Unweighted, the median is whichever
    # small figure ranks seventh (fig4, about 10 ms), whose time flips by
    # a factor of two with the load of a shared host.
    weight_by_rows = True
    tail_percentile = 75
    min_passes = 8  # 8 passes leave 12 calls beyond the row-weighted p75
    pass_s = 3.0  # one pass on a 2-vCPU VM at the commit that added the benchmark

    def __init__(self, seed: int, smoke: bool, root: Path) -> None:
        from depolmark import cli

        self.cli = cli
        figures = list(cli.FIGURES[:3] if smoke else cli.FIGURES)
        rng = np.random.default_rng(seed)
        self.ops = [figures[i] for i in rng.permutation(len(figures))]
        self.out_dir = root / OUT_DIR / "presets"
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.golden = load_golden()["presets"]

    def run(self, op: str) -> Outcome:
        try:
            paths = self.cli.figure(op, str(self.out_dir), "csv")
        except Exception as exc:  # any exception is a failed op, reported by check()
            return Outcome("failed", f"{type(exc).__name__}: {exc}")
        return Outcome("ok", payload={"paths": paths})

    def check(self, op: str, outcome: Outcome) -> tuple[int, list]:
        """Rows emitted and digest mismatches of one op's files."""
        if outcome.status != "ok":
            return 0, []
        rows, problems = 0, []
        for path in outcome.payload["paths"]:
            data = Path(path).read_bytes()
            rows += data_rows(data.decode("utf-8"))
            name = os.path.basename(path)
            if sha256(data) != self.golden.get(name):
                problems.append(f"{op}: {name} differs from its golden digest")
        return rows, problems


# ---------------------------------------------------------------- oracle


@dataclass(frozen=True)
class OracleOp:
    system: str
    levels: int
    qubits: int
    alpha: float
    q: float
    p: float
    near: bool


class Oracle:
    """Dense-route library calls at seeded (alpha, q <= p), checked against closed forms.

    Every pass has the same number of ops per system, so the seed moves
    parameters but not the amount of dense work; half of each system's q
    values lie within +-1e-3 of the singular q, stratified over that band.
    """

    name = "oracle"
    weight_by_rows = False
    tail_percentile = 99
    min_passes = 4  # 318 ops a pass: 4 passes leave 13 samples beyond p99
    pass_s = 2.5
    # (system, levels, qubits, ops per pass, ops per smoke pass)
    SYSTEMS = (
        ("qubit", 2, 1, 240, 8),
        ("N3", 3, 1, 24, 2),
        ("N4", 4, 1, 24, 2),
        ("2qubit", 2, 2, 24, 2),
        ("3qubit", 2, 3, 6, 0),
    )
    NEAR_WIDTH = 1e-3

    def __init__(self, seed: int, smoke: bool, root: Path) -> None:
        from depolmark import dynmaps, geometry, matcore, measures

        self.dynmaps, self.geometry, self.measures = dynmaps, geometry, measures
        self.singular_error = matcore.SingularityError
        self.ops = self.draw(seed, smoke)

    @classmethod
    def draw(cls, seed: int, smoke: bool) -> list:
        rng = np.random.default_rng(seed)
        ops = []
        for system, levels, qubits, count, smoke_count in cls.SYSTEMS:
            n = smoke_count if smoke else count
            n_near = n // 2
            alphas = rng.uniform(0.05, 1.0, n)
            offsets = (rng.permutation(n_near) + rng.uniform(0.0, 1.0, n_near)) / n_near
            offsets = (2.0 * offsets - 1.0) * cls.NEAR_WIDTH
            for i, alpha in enumerate(alphas):
                near = i < n_near
                q = singular_q(alpha, levels) + offsets[i] if near else rng.uniform(0.0, 1.0)
                p = rng.uniform(q, 1.0)
                ops.append(OracleOp(system, levels, qubits, float(alpha), float(q), float(p), near))
        return [ops[i] for i in rng.permutation(len(ops))]

    def run(self, op: OracleOp) -> Outcome:
        dynmaps, out = self.dynmaps, {}
        try:
            chi = dynmaps.intermediate_choi(op.alpha, op.q, op.p, levels=op.levels, qubits=op.qubits)
            if op.system == "qubit":
                out["choi"] = chi.matrix
            witness = dynmaps.ncp_witness(chi)
            out["trace_norm"], out["is_ncp"] = witness.trace_norm, witness.is_ncp
            out["spectrum"] = chi.eigenvalues()
            if op.system == "qubit":
                out["memory_x"] = self.measures.memory_witness_X(op.alpha, op.q, op.p)
            if op.levels > 2:
                f = self.geometry.f_matrix(op.alpha, op.p, op.levels)
                out["f_matrix"], out["f_norm"] = f.matrix, f.trace_norm
        except self.singular_error as exc:
            return Outcome("singular", type(exc).__name__, out)
        except Exception as exc:  # an undocumented error is a failed op
            return Outcome("failed", f"{type(exc).__name__}: {exc}", out)
        return Outcome("ok", payload=out)

    @staticmethod
    def expected(op: OracleOp) -> dict:
        lam = survival(op.alpha, op.p, op.levels) / survival(op.alpha, op.q, op.levels)
        spectrum = closed_spectrum(lam, op.levels, op.qubits)
        want = {
            "trace_norm": float(np.abs(spectrum).sum()),
            "spectrum": spectrum,
            "memory_x": 3.0 * abs(lam),
        }
        if op.system == "qubit":
            chi = np.diag([1 + lam, 1 - lam, 1 - lam, 1 + lam]).astype(complex) / 4.0
            chi[0, 3] = chi[3, 0] = lam / 2.0
            want["choi"] = chi
        if op.levels > 2:
            n2 = op.levels * op.levels
            g = survival(op.alpha, op.p, op.levels)
            want["f_matrix"] = np.diag([1.0] + [2.0 * g] * (n2 - 1)) / n2
            want["f_norm"] = (1.0 + 2.0 * (n2 - 1) * abs(g)) / n2
        return want

    def check(self, op: OracleOp, outcome: Outcome) -> tuple[int, list]:
        """Results checked (one row each) and closed-form mismatches."""
        want = self.expected(op)
        rows, problems = 0, []
        for key, got in outcome.payload.items():
            rows += 1
            if key == "is_ncp":
                margin = want["trace_norm"] - (1.0 + 1e-10)
                if abs(margin) > RTOL * max(1.0, want["trace_norm"]) and got != (margin > 0):
                    problems.append(f"{op}: is_ncp={got} but the closed-form trace norm is {want['trace_norm']!r}")
                continue
            dev = mismatch(got, want[key])
            if not dev <= RTOL:
                problems.append(f"{op}: {key} deviates from its closed form by {dev:.3e} (relative)")
        return rows, problems


# ---------------------------------------------------------------- cli-cold

CLI_OUT = f"{OUT_DIR}/cli-cold"

# (id, argv). Each runs as
#   python -c "from depolmark.cli import console_main; console_main()" ARGV
# from the checkout root with PYTHONPATH=src. The first group exits 0;
# the probes exit 2 (usage) or 3 (pinned singular q). The two defects
# listed last exit 1 with a traceback at this commit and count as failed
# ops until the exit-code contract covers them.
INVOCATIONS = (
    ("fig1", ["fig1", "--out", CLI_OUT]),
    ("choi-eigs-csv", ["choi-eigs", "--alpha", "0,0.7", "--q", "0.3", "--steps", "21"]),
    ("decay-rate-json", ["decay-rate", "--alpha", "0,0.7", "--steps", "21", "--format", "json"]),
    ("choi-norm-qubits-csv", ["choi-norm", "--alpha", "0.9", "--q", "0.4", "--qubits", "1,2", "--steps", "11"]),
    ("g-function-json", ["g-function", "--alpha", "0.9", "--steps", "11", "--format", "json"]),
    ("usage-alpha-range", ["choi-eigs", "--alpha", "1.5"]),
    ("usage-unknown-target", ["fig99"]),
    ("pinned-singular-q", ["choi-norm", "--alpha", "0.7", "--q", "0.7725529"]),
    ("memory-x-near-singular", ["memory-x", "--alpha", "0.7", "--q", "0.7726"]),
    ("trace-distance-negative-p", ["trace-distance", "--p-min", "-0.5"]),
)

# Exit codes that would mean a defect above is fixed. memory-x then has to
# print rows that match the closed form X = 3 |G(p)/G(q)|.
DEFECT_FIXED_EXITS = {
    "memory-x-near-singular": (0,),
    "trace-distance-negative-p": (2,),
}

CONTRACT_EXITS = (0, 2, 3)
ENTRY = "from depolmark.cli import console_main; console_main()"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    env.pop("DEPOLMARK_THREADS", None)
    return env


def run_child(cmd: list, root: Path, tag: str) -> tuple[int, bytes, bytes, float, float]:
    """Run ``cmd`` from ``root`` to completion.

    Returns exit code, stdout, stderr, wall seconds and the child's peak RSS
    in MB. Output goes through files rather than pipes so that the parent
    can reap the child with ``wait4`` and read its resource usage.
    """
    spool = root / OUT_DIR / "children"
    spool.mkdir(parents=True, exist_ok=True)
    out_path, err_path = spool / f"{tag}.out", spool / f"{tag}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=root, env=child_env(), stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    stdout, stderr = out_path.read_bytes(), err_path.read_bytes()
    out_path.unlink()
    err_path.unlink()
    return proc.returncode, stdout, stderr, wall, usage.ru_maxrss / 1024.0


class CliCold:
    name = "cli-cold"
    weight_by_rows = False
    tail_percentile = 75
    min_passes = 4  # 10 ops a pass: 4 passes leave 10 samples beyond p75
    pass_s = 8.5

    def __init__(self, seed: int, smoke: bool, root: Path) -> None:
        self.root = root
        chosen = INVOCATIONS[:1] + INVOCATIONS[-1:] if smoke else INVOCATIONS
        rng = np.random.default_rng(seed)
        self.ops = [chosen[i] for i in rng.permutation(len(chosen))]
        (root / CLI_OUT).mkdir(parents=True, exist_ok=True)
        self.golden = load_golden()["cli-cold"]
        self.trace_dir: Path | None = None
        self.peak_rss_mb = 0.0

    def run(self, op) -> Outcome:
        ident, argv = op
        if self.trace_dir is None:
            cmd = [sys.executable, "-c", ENTRY, *argv]
        else:
            trace_file = self.trace_dir / f"{ident}.json"
            cmd = [sys.executable, str(HERE / "traced_cli.py"), str(trace_file), *argv]
        code, stdout, stderr, _, rss = run_child(cmd, self.root, ident)
        self.peak_rss_mb = max(self.peak_rss_mb, rss)
        payload = {"exit": code, "stdout": stdout, "stderr": stderr}
        if ident == "fig1" and code == 0:
            payload["files"] = {"fig1.csv": (self.root / CLI_OUT / "fig1.csv").read_bytes()}
        if code in CONTRACT_EXITS:
            return Outcome("ok", payload=payload)
        last = stderr.decode("utf-8", "replace").strip().splitlines()[-1:] or [""]
        return Outcome("failed", f"exit {code}: {last[0]}", payload)

    def check(self, op, outcome: Outcome) -> tuple[int, list]:
        ident, argv = op
        payload = outcome.payload
        code, stdout = payload["exit"], payload["stdout"]
        rows = data_rows(stdout.decode("utf-8")) if code == 0 and stdout else 0
        rows += sum(data_rows(data.decode("utf-8")) for data in payload.get("files", {}).values())
        if outcome.status != "ok":
            return rows, []
        if ident in DEFECT_FIXED_EXITS:
            if code not in DEFECT_FIXED_EXITS[ident]:
                return rows, [f"{ident}: exit {code}, expected one of {DEFECT_FIXED_EXITS[ident]}"]
            return rows, self._check_memory_x(ident, argv, stdout) if code == 0 else []
        golden, problems = self.golden[ident], []
        if code != golden["exit"] or sha256(stdout) != golden["stdout_sha256"]:
            problems.append(f"{ident}: exit {code} / stdout differ from the golden run (exit {golden['exit']})")
        for name, data in payload.get("files", {}).items():
            if sha256(data) != golden["files"].get(name):
                problems.append(f"{ident}: {name} differs from its golden digest")
        return rows, problems

    @staticmethod
    def _check_memory_x(ident: str, argv: list, stdout: bytes) -> list:
        alpha, q = float(argv[argv.index("--alpha") + 1]), float(argv[argv.index("--q") + 1])
        problems = []
        lines = [l for l in stdout.decode("utf-8").splitlines() if l and not l.startswith("#")][1:]
        for line in lines:
            p, x = line.split(",")
            want = 3.0 * abs(survival(alpha, float(p), 2) / survival(alpha, q, 2))
            if x == "NA" or mismatch(float(x), want) > RTOL:
                problems.append(f"{ident}: X({p}) = {x}, closed form {want!r}")
        return problems


WORKLOADS = {cls.name: cls for cls in (Presets, Oracle, CliCold)}
