"""Byte identity of the published datasets against the benchmark's golden digests.

``perfbench/golden.json`` holds the sha256 of every figure preset CSV and
of the stdout of every cold-CLI invocation, recorded when the benchmark
was defined. The file is only read here: a change to any output byte is
a failing test, not a re-recorded digest.

The CSVs carry 15 significant digits, so they cannot see a change in the
last bit of a value. ``tests/golden_bits.json`` closes that gap: for every
preset table it holds the sha256 of all cells written as ``float.hex()``
(``NA`` kept), read from the preset's JSON output, whose floats round-trip
exactly. It was recorded before the quantity table replaced the command
line's per-quantity code and, like the CSV digests, is never re-recorded
to make a test pass.
"""

import hashlib
import json
from pathlib import Path

import pytest

from depolmark.cli import FIGURES, QUANTITIES, figure, main

GOLDEN = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "golden.json").read_text(encoding="utf-8"))
GOLDEN_BITS = json.loads(Path(__file__).with_name("golden_bits.json").read_text(encoding="utf-8"))

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


def cell_digest(rows: list) -> str:
    """sha256 of a table's cells as exact float bits, one line per row, NA for a singular sample."""
    text = "\n".join(",".join("NA" if v is None else float(v).hex() for v in row) for row in rows)
    return sha256(text.encode("utf-8"))


@pytest.mark.parametrize("fig_id", FIGURES)
def test_preset_cells_match_golden_bits(fig_id, tmp_path):
    for path in figure(fig_id, str(tmp_path), "json"):
        table = Path(path).stem
        rows = json.loads(Path(path).read_text(encoding="utf-8"))["rows"]
        assert cell_digest(rows) == GOLDEN_BITS[table], table


def test_golden_bits_cover_every_preset_table():
    assert sorted(GOLDEN_BITS) == sorted(name[: -len(".csv")] for name in GOLDEN["presets"])
