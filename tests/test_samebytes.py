"""``tools/samebytes.py``: identical sources give no difference, and a changed output format names its command alone."""

import importlib.util
import shutil
from pathlib import Path

from depolmark import cli

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("samebytes", ROOT / "tools" / "samebytes.py")
samebytes = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(samebytes)

# numpy-free commands, so that each fresh process is short: a CSV table, a
# JSON table and a usage error.
SHORT = (
    ("choi-eigs", "--steps", "5"),
    ("decay-rate", "--steps", "5", "--format", "json"),
    ("decay-rate", "--levels", "1"),
)


def test_the_list_runs_every_preset_and_every_quantity_in_csv_and_json():
    for target in cli.FIGURES + cli.QUANTITIES:
        assert (target,) in samebytes.COMMANDS and (target, "--format", "json") in samebytes.COMMANDS


def test_the_list_compares_the_writers_at_scale():
    assert samebytes.VERSION == 4
    for argv in (("choi-eigs", "--steps", "200000"), ("choi-eigs", "--steps", "200000", "--format", "json")):
        assert argv in samebytes.COMMANDS
    assert ("decay-rate", "--alpha", "0,0.7", "--steps", "2001", "--format", "json") in samebytes.COMMANDS


def test_the_list_runs_n_copies_of_a_qutrit_and_refuses_sweeping_both_axes():
    assert ("choi-norm", "--alpha", "0.9", "--q", "0.4", "--levels", "3", "--qubits", "1,2,3", "--steps", "41") in samebytes.COMMANDS
    assert ("choi-norm", "--levels", "2,3", "--qubits", "1,2") in samebytes.COMMANDS
    assert ("choi-norm", "--levels", "3", "--qubits", "2") not in samebytes.COMMANDS


def test_the_list_probes_the_grid_echo_the_level_bound_and_any_n():
    for argv in (
        ("hcla", "--alpha", "0.1,0.2", "--p-max", "inf", "--format", "json"),
        ("decay-rate", "--levels", "1" + "0" * 160),
        ("choi-eigs", "--levels", "5,64", "--steps", "5"),
        ("choi-eigs", "--alpha", "0.9", "--q", "0.6", "--steps", "3"),
    ):
        assert argv in samebytes.COMMANDS


def test_a_one_character_format_change_names_exactly_the_command_it_changes(tmp_path):
    old, new = (shutil.copytree(ROOT / "src", tmp_path / side / "src", ignore=shutil.ignore_patterns("__pycache__")) for side in ("old", "new"))
    base = [samebytes.run(old, argv) for argv in SHORT]

    def differences(src: Path) -> list:
        return [line for argv, run in zip(SHORT, base) for line in samebytes.compare(argv, run, samebytes.run(src, argv))]

    assert differences(new) == []
    cli_py = new / "depolmark" / "cli.py"
    text = cli_py.read_text(encoding="utf-8")
    assert text.count('".15g"') == 1
    cli_py.write_text(text.replace('".15g"', '".14g"'), encoding="utf-8")
    lines = differences(new)
    assert len(lines) == 1 and lines[0].startswith("depolmark choi-eigs --steps 5: stdout differs, first at byte ")
