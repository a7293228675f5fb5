"""``tools/pairs.py``: cold pairs on two copies of ``src/``, the sides taking turns to go first."""

import importlib.util
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("pairs", ROOT / "tools" / "pairs.py")
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)


def test_pairs_alternate_and_report_each_side(tmp_path):
    sources = {side: shutil.copytree(ROOT / "src", tmp_path / side / "src", ignore=shutil.ignore_patterns("__pycache__")) for side in ("old", "new")}
    records = pairs.measure(sources, ("choi-eigs", "--steps", "5"), 3)
    assert [(pair, side, order) for pair, side, order, *_ in records] == [
        (0, "old", 0), (0, "new", 1), (1, "new", 0), (1, "old", 1), (2, "old", 0), (2, "new", 1),
    ]
    assert all(wall > 0 and rss > 0 and code == 0 for *_, wall, rss, code in records)
    header, old, new, codes = pairs.report(records)
    assert header.split() == ["side", "median_s", "q1_s", "q3_s", "peak_rss_mb", "wins"]
    assert old.split()[0] == "old" and new.split()[0] == "new"
    assert int(old.split()[-1]) + int(new.split()[-1]) <= 3
    assert codes == "exit codes: old [0], new [0]"
