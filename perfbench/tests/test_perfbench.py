"""Tests of the benchmark itself: smoke runs, deterministic counters, guards.

Run from the checkout root: ``python3 -m pytest perfbench/tests -q``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNTERS = [
    m["name"]
    for m in SPEC["per_layer"]
    if m["unit"] in ("count", "B")
]


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.mark.parametrize("workload", ["presets", "oracle", "cli-cold"])
def test_smoke_run_reports_every_end_to_end_metric(workload):
    result = result_of(bench("--workload", workload, "--seed", "3", "--seconds", "0.5", "--trace", "0", "--smoke"))
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for spec in SPEC["end_to_end"]:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"]
        assert metric["value"] > 0
    if workload == "cli-cold":
        # trace-distance --p-min -0.5 ends in a traceback at this commit.
        assert result["failed"] >= 1


@pytest.mark.parametrize("workload", ["presets", "oracle", "cli-cold"])
def test_traced_counters_repeat_exactly(workload):
    args = ("--workload", workload, "--seed", "5", "--seconds", "0.5", "--trace", "1", "--smoke")
    first, second = result_of(bench(*args)), result_of(bench(*args))
    assert (first["attempted"], first["failed"]) == (second["attempted"], second["failed"])
    assert list(first["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    for name in COUNTERS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    assert first["metrics"]["trace.overhead_ratio"]["value"] > 0


def test_run_without_sources_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "presets", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_oracle_draws_repeat_per_seed_and_keep_the_system_mix():
    ops = workloads.Oracle.draw(11, smoke=False)
    assert ops == workloads.Oracle.draw(11, smoke=False)
    assert ops != workloads.Oracle.draw(12, smoke=False)
    for system, levels, _, count, _ in workloads.Oracle.SYSTEMS:
        mine = [op for op in ops if op.system == system]
        assert len(mine) == count
        near = [op for op in mine if op.near]
        assert len(near) == count // 2
        for op in near:
            assert abs(op.q - workloads.singular_q(op.alpha, levels)) <= workloads.Oracle.NEAR_WIDTH
        assert all(0.0 <= op.q <= op.p <= 1.0 for op in mine)


def test_closed_spectrum_sums_to_one():
    for levels, qubits in [(2, 1), (3, 1), (4, 1), (2, 2), (2, 3)]:
        spectrum = workloads.closed_spectrum(-3.7, levels, qubits)
        assert len(spectrum) == (levels**2) ** qubits
        assert abs(spectrum.sum() - 1.0) < 1e-12


def test_import_times_count_each_package_at_its_outermost_import():
    log = "\n".join(
        [
            "import time: self [us] | cumulative | imported package",
            "import time:       100 |        100 |     numpy.core",
            "import time:        50 |        150 |   numpy",
            "import time:        20 |         20 |       numpy.fft",
            "import time:        30 |         50 |     scipy.integrate",
            "import time:        10 |        210 |   depolmark.measures",
            "import time:         5 |        365 | depolmark",
        ]
    )
    assert tracing.import_times(log) == {
        "import.numpy_s": 150e-6,
        "import.scipy_s": 50e-6,
        "import.depolmark_s": 365e-6,
    }


def test_recorder_wraps_rebindings_and_default_arguments_and_restores_them():
    sys.path.insert(0, str(ROOT / "src"))
    from depolmark import dynmaps, measures

    original = dynmaps.intermediate_map
    defaults = original.__defaults__
    recorder = tracing.SpanRecorder()
    recorder.install()
    try:
        assert measures.intermediate_choi.__wrapped__ is dynmaps.intermediate_choi.__wrapped__
        dynmaps.intermediate_map(0.5, 0.1, 0.2)  # builds its Kraus sets through the default argument
        functions = recorder.collect()["functions"]
    finally:
        recorder.uninstall()
    assert functions["channels.qubit_kraus"]["calls"] == 2
    assert functions["dynmaps.superoperator_of"]["calls"] == 2
    assert functions["matcore.inverse"]["calls"] == 1
    assert dynmaps.intermediate_map is original and original.__defaults__ == defaults
