"""Byte identity of the published datasets against the benchmark's golden digests.

``perfbench/golden.json`` holds the sha256 of every figure preset CSV and
of the stdout of every cold-CLI invocation, recorded when the benchmark
was defined. The file is only read here: a change to any output byte is
a failing test, not a re-recorded digest.
"""

import hashlib
import json
from pathlib import Path

import pytest

from depolmark.cli import FIGURES, QUANTITIES, figure, main

GOLDEN = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "golden.json").read_text(encoding="utf-8"))

# The cold-CLI sweeps that exit 0 and print their table to stdout.
SWEEPS = sorted(
    (ident, entry["argv"])
    for ident, entry in GOLDEN["cli-cold"].items()
    if entry["exit"] == 0 and entry["argv"][0] in QUANTITIES
)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("fig_id", FIGURES)
def test_preset_csv_matches_golden_digest(fig_id, tmp_path):
    for path in figure(fig_id, str(tmp_path)):
        name = Path(path).name
        assert sha256(Path(path).read_bytes()) == GOLDEN["presets"][name], name


def test_every_golden_sweep_is_checked():
    assert [ident for ident, _ in SWEEPS] == [
        "choi-eigs-csv",
        "choi-norm-qubits-csv",
        "decay-rate-json",
        "g-function-json",
    ]


@pytest.mark.parametrize("ident,argv", SWEEPS, ids=[ident for ident, _ in SWEEPS])
def test_cli_sweep_stdout_matches_golden_digest(ident, argv, capsys):
    assert main(argv) == GOLDEN["cli-cold"][ident]["exit"]
    assert sha256(capsys.readouterr().out.encode("utf-8")) == GOLDEN["cli-cold"][ident]["stdout_sha256"]
