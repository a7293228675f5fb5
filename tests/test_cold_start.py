"""A depolmark process imports numpy only when it computes a dense column.

``depolmark.kernel`` is numpy-free, and ``cli`` imports no other library
module at module level. So a fresh interpreter that only parses,
validates, exits with code 2 or 3, or computes ``kernel`` columns (the
closed forms of ``choi-eigs``, ``decay-rate`` and ``trajectory``, the
``hcla`` and ``blp`` measures, and the presets built on them) must end
with no numpy module loaded and with no ``depolmark`` module besides the
package, ``cli`` and ``kernel``; ``import depolmark`` alone loads none
either. A command that computes a dense column loads numpy and the
library modules its columns call, but never the oracle module
``depolmark.dense``: all 13 presets run without it.

The package resolves its submodules and re-exported names on first access;
its ``__all__`` holds 70 names, each exported by one module.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import depolmark

SRC = Path(__file__).resolve().parents[1] / "src"

PUBLIC = [
    "AffineMap", "ChoiMatrix", "KrausSet", "NcpWitness", "PAULI_I", "PAULI_X", "PAULI_Y", "PAULI_Z",
    "SingularMapError", "SingularRateError", "SingularityError", "Superoperator", "__version__",
    "affine_map_of", "apply_channel", "bell_expectations", "bell_states", "bloch_basis",
    "bloch_contraction_derivative", "blockwise", "blp_measure", "blp_random_pair_search", "choi_closed_form",
    "choi_of", "choi_trace_norm", "crossover_point", "decay_rate", "decay_rate_normalized",
    "devectorize", "f_matrix", "f_norm", "g_function", "gell_mann_matrices", "hcla_closed_form", "hcla_measure",
    "hermitian_eigenvalues", "intermediate_choi", "intermediate_map", "inverse", "is_density_matrix",
    "is_hermitian", "kappa", "kron", "lambda_ratio", "maximally_entangled_projector", "memory_witness_X",
    "memory_witness_closed", "multiqubit_kraus", "ncp_witness", "pauli_transfer", "plus_minus_distance",
    "plus_minus_distance_derivative", "plus_minus_states", "plus_minus_trace_distance", "propagator_column",
    "qubit_kraus", "qudit_choi_eigenvalues", "qudit_kraus", "qutrit_hcla_log_form", "superoperator_of", "survival",
    "swap_matrix", "swap_permutation",
    "trace_distance", "trace_norm", "trajectory", "vectorize", "volume_determinant", "volume_measure",
    "weyl_operator",
]

# (argv, exit code): none of them computes a column.
NON_COMPUTING = [
    (["fig99"], 2),
    (["--help"], 0),
    (["choi-eigs", "--alpha", "1.5"], 2),
    (["trace-distance", "--p-min=-0.5"], 2),
    (["choi-norm", "--alpha", "0.7", "--q", "0.7725529"], 3),
]

CHILD = """
import contextlib, io, sys
import depolmark
print("numpy" in sys.modules)
from depolmark.cli import main
for argv, code in {cases!r}:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) == code, argv
print("numpy" in sys.modules)
print(sorted(name for name in sys.modules if name.startswith("depolmark")))
"""


def assert_numpy_free(cases: list) -> None:
    """A fresh interpreter runs ``cases`` through ``main`` and ends with no numpy and only cli and kernel loaded."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD.format(cases=cases)], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["False", "False", "['depolmark', 'depolmark.cli', 'depolmark.kernel']"]


def test_usage_and_singularity_exits_never_import_numpy():
    assert_numpy_free(NON_COMPUTING)


def test_closed_form_commands_never_import_numpy(tmp_path):
    out = str(tmp_path)
    presets = ("fig1", "fig2", "fig3", "fig4", "fig8", "fig9", "fig10")
    figures = [([fig_id, "--out", out], 0) for fig_id in presets]
    # blp's default alpha grid has no point below 1e-6 but 0, so no quadrature hands over to scipy.
    sweeps = [["choi-eigs", "--levels", "2,3,4"], ["decay-rate", "--format", "json"], ["trajectory", "--alpha", "0,0.7"]]
    sweeps += [["hcla", "--alpha", "0.3,0.7"], ["blp"]]
    assert_numpy_free(figures + [(argv, 0) for argv in sweeps])
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(f"{fig_id}.csv" for fig_id in presets)


def test_csv_commands_never_import_json(tmp_path):
    child = """
import contextlib, io, sys
from depolmark.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["fig1", "--out", sys.argv[1]]) == 0
    assert main(["choi-eigs", "--levels", "2,3"]) == 0
print("json" in sys.modules)
with contextlib.redirect_stdout(io.StringIO()) as buf:
    assert main(["choi-eigs", "--format", "json"]) == 0
import json
print(json.loads(buf.getvalue())["spec"]["format"])
"""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", child, str(tmp_path)], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "json"]


def test_cli_source_imports_no_numpy():
    # Not at module level, not for type checking and not inside a builder:
    # the dense builders reach numpy only through the library modules.
    tree = ast.parse((SRC / "depolmark" / "cli.py").read_text(encoding="utf-8"))
    modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names]
    modules += [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.module]
    assert modules and not [name for name in modules if name.split(".")[0] == "numpy"]


def test_cli_leaves_kraus_sets_and_blocks_to_the_library():
    # Each dense column is one library call: the Kraus builders and the block
    # walk (and so the block size) are the library's alone.
    tree = ast.parse((SRC / "depolmark" / "cli.py").read_text(encoding="utf-8"))
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    modules = {(node.module or "").split(".")[-1] for node in imports if isinstance(node, ast.ImportFrom)}
    modules |= {alias.name.split(".")[-1] for node in imports for alias in node.names}
    assert not modules & {"channels", "matcore"}
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert "blockwise" not in names | {alias.name for node in imports for alias in node.names}


def test_no_preset_loads_the_oracle_module():
    child = """
import sys, tempfile
from depolmark.cli import FIGURES, figure
with tempfile.TemporaryDirectory() as out:
    for fig_id in FIGURES:
        figure(fig_id, out)
print(len(FIGURES), "depolmark.dense" in sys.modules)
"""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["13", "False"]


def test_lazy_package_keeps_its_public_names():
    assert len(PUBLIC) == 70
    assert sorted(depolmark.__all__) == PUBLIC
    names = dir(depolmark)
    for name in PUBLIC:
        assert name in names, name
        assert getattr(depolmark, name) is not None, name
    star: dict = {}
    exec("from depolmark import *", star)
    assert sorted(k for k in star if k != "__builtins__") == PUBLIC
    # Each name is the object its home module exports.
    assert depolmark.survival is depolmark.kernel.survival
    assert depolmark.SingularityError is depolmark.matcore.SingularityError
    assert depolmark.trajectory is depolmark.kernel.trajectory
    assert depolmark.vectorize is depolmark.dense.vectorize


def test_each_public_name_is_in_one_module_all():
    homes = {}
    for module in ("kernel", "matcore", "channels", "dynmaps", "measures", "geometry", "dense"):
        for name in getattr(depolmark, module).__all__:
            homes.setdefault(name, []).append(module)
    assert {name: mods for name, mods in homes.items() if len(mods) > 1} == {}


def test_unknown_package_attribute_raises_attribute_error():
    assert not hasattr(depolmark, "no_such_name")
    assert not hasattr(depolmark, "__no_such_dunder__")
