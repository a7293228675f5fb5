"""A depolmark process imports numpy only when it computes a dense column.

``depolmark.kernel`` is numpy-free, and ``cli`` imports no other library
module at module level. A process that only parses, validates, exits with
code 2 or 3, or computes ``kernel`` columns (``choi-eigs``, ``decay-rate``,
``trajectory``, ``hcla``, ``blp`` and their presets) loads no numpy and no
``depolmark`` module but the package, ``cli`` and ``kernel``, and in CSV no
json. The presets and quantities together load every module of the
package, so none serves the tests alone. ``cold_probe`` takes the snapshots.

The package resolves its submodules and re-exported names on first access;
its ``__all__`` holds 59 names, each exported by one module.
"""

import ast
import json
from pathlib import Path

import depolmark
from depolmark.cli import FIGURES

CLI_TREE = ast.parse((Path(__file__).resolve().parents[1] / "src" / "depolmark" / "cli.py").read_text(encoding="utf-8"))

PUBLIC = [
    "AffineMap", "ChoiMatrix", "KrausSet", "NcpWitness", "PAULI_I", "PAULI_X", "PAULI_Y", "PAULI_Z",
    "SingularMapError", "SingularRateError", "SingularityError", "Superoperator", "__version__",
    "affine_map_of", "apply_channel", "bloch_basis", "bloch_contraction_derivative", "blockwise", "blp_measure",
    "choi_of", "choi_trace_norm", "crossover_point", "decay_rate", "decay_rate_normalized",
    "f_matrix", "f_norm", "g_function", "gell_mann_matrices", "hcla_closed_form", "hcla_measure",
    "hermitian_eigenvalues", "intermediate_choi", "intermediate_map", "inverse", "is_density_matrix",
    "is_hermitian", "kappa", "kron", "lambda_ratio", "maximally_entangled_projector", "memory_witness_X",
    "memory_witness_closed", "ncp_witness", "plus_minus_distance", "plus_minus_distance_derivative",
    "plus_minus_states", "propagator_column", "qubit_kraus", "qudit_choi_eigenvalues", "qudit_kraus",
    "qutrit_hcla_log_form", "superoperator_of", "survival", "trace_distance", "trace_norm", "trajectory",
    "volume_determinant", "volume_measure", "weyl_operator",
]

KERNEL_ONLY = ["depolmark", "depolmark.cli", "depolmark.kernel"]


def test_usage_and_singularity_exits_never_import_numpy(cold_probe):
    snapshots = cold_probe[2]
    assert "numpy" not in snapshots["import"]["loaded"] + snapshots["exits"]["loaded"]
    assert snapshots["exits"]["depolmark"] == KERNEL_ONLY


def test_closed_form_commands_never_import_numpy(cold_probe):
    kernel, _, snapshots = cold_probe
    # After the CSV and then the JSON kernel commands:
    assert "numpy" not in snapshots["json"]["loaded"] and snapshots["json"]["depolmark"] == KERNEL_ONLY
    assert sorted(path.stem for path in kernel.iterdir()) == ["fig1", "fig10", "fig2", "fig3", "fig4", "fig8", "fig9"]


def test_csv_commands_never_import_json(cold_probe):
    _, dense, snapshots = cold_probe
    assert "json" not in snapshots["kernel"]["loaded"]
    assert json.loads((dense / "decay-rate.json").read_text(encoding="utf-8"))["spec"]["format"] == "json"


def test_cli_source_imports_no_numpy():
    # Not at module level, not for type checking and not inside a builder:
    # the dense builders reach numpy only through the library modules.
    modules = [alias.name for node in ast.walk(CLI_TREE) if isinstance(node, ast.Import) for alias in node.names]
    modules += [node.module for node in ast.walk(CLI_TREE) if isinstance(node, ast.ImportFrom) and node.module]
    assert modules and not [name for name in modules if name.split(".")[0] == "numpy"]


def test_cli_leaves_kraus_sets_and_blocks_to_the_library():
    # Each dense column is one library call: the Kraus builders and the block
    # walk (and so the block size) are the library's alone.
    imports = [node for node in ast.walk(CLI_TREE) if isinstance(node, (ast.Import, ast.ImportFrom))]
    modules = {(node.module or "").split(".")[-1] for node in imports if isinstance(node, ast.ImportFrom)}
    modules |= {alias.name.split(".")[-1] for node in imports for alias in node.names}
    assert not modules & {"channels", "matcore"}
    names = {node.id for node in ast.walk(CLI_TREE) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(CLI_TREE) if isinstance(node, ast.Attribute)}
    assert "blockwise" not in names | {alias.name for node in imports for alias in node.names}


def test_every_package_module_is_loaded_by_a_command(cold_probe):
    # After every preset and one sweep of each quantity, the process has
    # loaded each module of the package (``python -m``'s __main__ aside):
    # test-only code has no place in it.
    assert len(FIGURES) == 13
    package = Path(depolmark.__file__).parent
    modules = {"depolmark"} | {f"depolmark.{path.stem}" for path in package.glob("*.py") if path.stem not in ("__init__", "__main__")}
    assert set(cold_probe[2]["quantities"]["depolmark"]) == modules


def test_lazy_package_keeps_its_public_names():
    assert len(PUBLIC) == 59
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
    assert depolmark.f_norm is depolmark.geometry.f_norm


def test_each_public_name_is_in_one_module_all():
    homes = {}
    for module in depolmark._LIBRARY:
        for name in getattr(depolmark, module).__all__:
            homes.setdefault(name, []).append(module)
    assert {name: mods for name, mods in homes.items() if len(mods) > 1} == {}


def test_unknown_package_attribute_raises_attribute_error():
    assert not hasattr(depolmark, "no_such_name")
    assert not hasattr(depolmark, "__no_such_dunder__")
