"""What the suite shares: a hypothesis profile and one cold interpreter.

Every property test runs derandomized, with no example database and no
deadline. ``cold_probe``'s child runs groups from the least to the most
loaded (a module absent after a group was absent during each one before it)
and prints after each, with ``repr``, never json, which of json, numpy and
scipy are loaded, which ``depolmark`` modules are and what the group returned.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import settings

from depolmark.cli import FIGURES, QUANTITIES

settings.register_profile("depolmark", derandomize=True, database=None, deadline=None)
settings.load_profile("depolmark")

PROBE = """
import contextlib, io, sys, warnings
def snapshot(group, *returned):
    modules = sorted(name for name in sys.modules if name.split(".")[0] == "depolmark")
    print(repr((group, {"loaded": [lib for lib in ("json", "numpy", "scipy") if lib in sys.modules], "depolmark": modules, "returned": returned})))
def run(group):
    for argv, code in COMMANDS[group]:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(argv) == code, argv
    snapshot(group)
import depolmark
snapshot("import")
from depolmark.cli import main
for group in ("exits", "kernel", "json", "presets", "quantities"):
    run(group)
calls = []
snapshot("empty window", depolmark.kernel._quad(lambda x: calls.append(x) or -1.0, 0.5, 0.5).hex(), calls)
run("refused blp")
with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    ramp = depolmark.kernel._quad(lambda x: 1e7 * (x - 0.5), 0.0, 1.0)
snapshot("ramp", ramp.hex(), [type(w.message).__name__ for w in caught])
"""


@pytest.fixture(scope="session")
def cold_probe(tmp_path_factory) -> tuple:
    """``(kernel, dense, snapshots by group)``: the kernel commands' CSV directory, the one the others write into, and what the child printed."""
    kernel, dense = tmp_path_factory.mktemp("kernel"), tmp_path_factory.mktemp("dense")
    # blp's default alpha grid has no point below 1e-6 but 0, so no quadrature hands over to scipy.
    sweeps = [["choi-eigs", "--levels", "2,3,4"], ["trajectory", "--alpha", "0,0.7"], ["hcla", "--alpha", "0.3,0.7"], ["blp"]]
    quantities = [name for name in QUANTITIES if name not in ("hcla", "blp")]
    commands = {
        "kernel": [[fig, "--out", str(kernel)] for fig in ("fig1", "fig2", "fig3", "fig4", "fig8", "fig9", "fig10")] + sweeps,
        "json": [["decay-rate", "--format", "json", "--out", str(dense / "decay-rate.json")]],
        "presets": [[fig, "--out", str(dense)] for fig in FIGURES],
        "quantities": [[name, "--steps", "3", "--out", str(dense / f"{name}.csv"), *["--levels", "3"] * (name == "f-norm")] for name in quantities],
        # quad's first Gauss-Kronrod pass is refused at the second alpha, so quad bisects.
        "refused blp": [["blp", "--alpha", "0,1.0792209959885488e-15", "--out", str(dense / "blp.csv")]],
    }
    commands = {group: [(argv, 0) for argv in runs] for group, runs in commands.items()}
    commands["exits"] = [(["fig99"], 2), (["--help"], 0), (["choi-eigs", "--alpha", "1.5"], 2), (["trace-distance", "--p-min=-0.5"], 2)]
    commands["exits"] += [(["choi-norm", "--alpha", "0.7", "--q", "0.7725529"], 3)]
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", f"COMMANDS = {commands!r}\n{PROBE}"], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return kernel, dense, dict(ast.literal_eval(line) for line in proc.stdout.splitlines())
