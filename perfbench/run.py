"""depolmark benchmark: one workload, one seed, one run.

Usage, from the checkout root:

    python3 perfbench/run.py --workload presets|oracle|cli-cold --seed N \
        --seconds S --trace 0|1 [--smoke]

The run sets the workload up several times in fresh interpreters (the
median is ``setup_s``), warms up once, then repeats passes over the seeded
op list: S seconds' worth at the workload's nominal pass time, a fixed
count, so that one seed always attempts the same ops. Every op's output
is checked: preset CSVs and CLI output against the golden digests in
``golden.json``, dense oracle results against closed forms. With
``--trace 0`` the last stdout line is a JSON object with the end-to-end
metrics of BENCHMARK.json; with ``--trace 1`` untraced and traced passes
alternate and the object holds the per-layer metrics. The lines before it give the same numbers for people,
with the environment stamp and the sample count behind each percentile.
``--smoke`` shrinks every op list for the benchmark's own tests.

The library is imported from ``src/`` of the checkout and from nowhere
else; without it the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 3
IMPORT_PROBES = 3
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


@dataclass
class PassResult:
    wall_s: float
    latencies: list
    ops: int
    rows: list  # rows emitted by each op
    failures: list
    problems: list
    layers: dict = field(default_factory=dict)


def percentile(values: list, weights: list, pct: float) -> float:
    """Smallest value whose cumulative weight reaches ``pct`` percent (nearest rank)."""
    target = sum(weights) * pct / 100.0
    total = 0.0
    for value, weight in sorted(zip(values, weights)):
        total += weight
        if total >= target:
            return value
    return max(values)


def run_pass(workload) -> PassResult:
    outcomes, latencies = [], []
    clock = time.perf_counter
    start = clock()
    for op in workload.ops:
        t0 = clock()
        outcomes.append(workload.run(op))
        latencies.append(clock() - t0)
    wall = clock() - start
    rows, failures, problems = [], [], []
    for op, outcome in zip(workload.ops, outcomes):
        op_rows, op_problems = workload.check(op, outcome)
        rows.append(op_rows)
        problems += op_problems
        if outcome.status == "failed":
            failures.append(outcome.detail)
    return PassResult(wall, latencies, len(outcomes), rows, failures, problems)


def traced_pass(workload, recorder, spans_path: Path | None) -> PassResult:
    """One pass with every library function wrapped; per-layer metrics attached."""
    if workload.name == "cli-cold":
        trace_dir = ROOT / workloads.OUT_DIR / "cli-cold-trace"
        trace_dir.mkdir(parents=True, exist_ok=True)
        workload.trace_dir = trace_dir
        try:
            result = run_pass(workload)
        finally:
            workload.trace_dir = None
        parts, spans = [], {}
        for ident, _ in workload.ops:
            with open(trace_dir / f"{ident}.json", encoding="utf-8") as fh:
                child = json.load(fh)
            parts.append(child["collected"])
            spans[ident] = child["spans"]
        collected = tracing.merge(parts)
    else:
        recorder.install()
        try:
            result = run_pass(workload)
        finally:
            recorder.uninstall()
        collected = recorder.collect()
        spans = recorder.spans()
    if spans_path is not None:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(spans, fh)
    result.layers = tracing.layer_metrics(collected)
    return result


def setup_times(args) -> list:
    """Wall time of fresh interpreters that import depolmark.cli and build the op list."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--smoke"] if args.smoke else [])
    times = []
    for i in range(1 if args.smoke else SETUP_PROBES):
        code, _, stderr, wall, _ = workloads.run_child(cmd, ROOT, f"setup{i}")
        if code != 0:
            raise RuntimeError(f"setup probe exited {code}: {stderr.decode(errors='replace')}")
        times.append(wall)
    return times


def import_probe_times() -> dict:
    cmd = [sys.executable, "-X", "importtime", "-c", "import depolmark.cli"]
    samples = []
    for i in range(IMPORT_PROBES):
        code, _, stderr, _, _ = workloads.run_child(cmd, ROOT, f"importtime{i}")
        if code != 0:
            raise RuntimeError(f"import probe exited {code}")
        samples.append(tracing.import_times(stderr.decode("utf-8", "replace")))
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}


def environment(args) -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "machine": platform.machine(),
        "blas_threads_env": {name: os.environ.get(name) for name in BLAS_ENV},
        "DEPOLMARK_THREADS": os.environ.get("DEPOLMARK_THREADS"),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "loop": "closed, 1 client, serial",
    }


def metric_specs(trace: int) -> list:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    return bench["per_layer" if trace else "end_to_end"]


def end_to_end(workload, passes: list, setup: list) -> tuple[dict, dict]:
    latencies = [t for p in passes for t in p.latencies]
    if workload.weight_by_rows:
        weights = [r for p in passes for r in p.rows]
    else:
        weights = [1] * len(latencies)
    # A typical pass: every op at its median over the passes. Per-op medians
    # are taken at many moments of the run, so they resist the slow and fast
    # phases of a shared machine better than whole-pass times do.
    wall = sum(statistics.median(op_times) for op_times in zip(*(p.latencies for p in passes)))
    tail = workload.tail_percentile
    tail_value = percentile(latencies, weights, tail)
    if workload.name == "cli-cold":
        peak = workload.peak_rss_mb
    else:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "ops_per_s": len(workload.ops) / wall,
        "rows_per_s": statistics.median(sum(p.rows) for p in passes) / wall,
        "latency_p50_ms": percentile(latencies, weights, 50) * 1e3,
        "latency_tail_ms": tail_value * 1e3,
        "peak_rss_mb": peak,
    }
    samples = {
        "setup_s": {"probes": len(setup), "statistic": "median"},
        "wall_s": {"passes": len(passes), "statistic": "sum over ops of the median per op"},
        "latency_p50_ms": {"percentile": 50, "samples": len(latencies), "weighted_by_rows": workload.weight_by_rows},
        "latency_tail_ms": {
            "percentile": tail,
            "samples": len(latencies),
            "weighted_by_rows": workload.weight_by_rows,
            "beyond": sum(1 for t in latencies if t > tail_value),
        },
    }
    return values, samples


def per_layer(traced: list, untraced: list, imports: dict) -> tuple[dict, dict]:
    # median_low returns one pass's value, so counts stay whole numbers.
    values = {key: statistics.median_low(p.layers[key] for p in traced) for key in traced[0].layers}
    values.update(imports)
    values["trace.overhead_ratio"] = statistics.median(p.wall_s for p in traced) / statistics.median(
        p.wall_s for p in untraced
    )
    samples = {
        "traced_passes": len(traced),
        "untraced_passes": len(untraced),
        "import_probes": IMPORT_PROBES,
        "statistic": "median per pass",
    }
    return values, samples


def pass_count(workload, args) -> int:
    """Passes in one run: ``--seconds`` over the workload's nominal pass time.

    The count does not depend on how fast this run happens to go, so one
    seed always attempts the same ops and meets the same failures. A run
    takes about ``--seconds`` when passes take their nominal time.
    """
    if args.smoke:
        passes = 1
    else:
        passes = max(workload.min_passes, round(args.seconds / workload.pass_s))
    # A traced run alternates untraced and traced passes and needs one of each.
    return max(passes, 2) if args.trace else passes


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="depolmark benchmark (one workload, one run)")
    parser.add_argument("--workload", required=True, choices=("presets", "oracle", "cli-cold"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny op lists, for the benchmark's tests")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "depolmark" / "cli.py").is_file():
        print(f"perfbench: no depolmark sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("DEPOLMARK_THREADS", None)
    if args.workload != "cli-cold" or args.setup_only:
        import depolmark.cli

        if not Path(depolmark.cli.__file__).resolve().is_relative_to(SRC):
            print(f"perfbench: depolmark imported from {depolmark.cli.__file__}, not {SRC}", file=sys.stderr)
            return 2
    workload = workloads.WORKLOADS[args.workload](args.seed, args.smoke, ROOT)
    if args.setup_only:
        return 0

    env = environment(args)
    setup = [] if args.trace else setup_times(args)
    recorder = tracing.SpanRecorder() if args.trace else None
    imports = import_probe_times() if args.trace else {}
    if workload.name != "cli-cold":
        run_pass(workload)  # warm-up: the first pass pays one-off costs

    out_dir = ROOT / workloads.OUT_DIR
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    untraced, traced = [], []
    for i in range(pass_count(workload, args)):
        if args.trace and i % 2 == 1:
            spans_path = out_dir / f"spans-{args.workload}.json" if not traced else None
            traced.append(traced_pass(workload, recorder, spans_path))
        else:
            untraced.append(run_pass(workload))

    passes = untraced + traced
    failures = [f for p in passes for f in p.failures]
    problems = [msg for p in passes for msg in p.problems]
    attempted = sum(p.ops for p in passes)
    if args.trace:
        values, samples = per_layer(traced, untraced, imports)
    else:
        values, samples = end_to_end(workload, untraced, setup)
    metrics = {}
    for spec in metric_specs(args.trace):
        metrics[spec["name"]] = {"value": values[spec["name"]], "unit": spec["unit"]}

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(passes)} passes x {len(workload.ops)} ops")
    for name, metric in metrics.items():
        print(f"  {name:40s} {metric['value']:.6g} {metric['unit']}")
    print(f"  {'error_rate':40s} {len(failures) / attempted:.6g} ({len(failures)} of {attempted} ops)")
    for detail in sorted(set(failures)):
        print(f"    failed x{failures.count(detail)}: {detail[:160]}")
    for msg in problems[:20]:
        print(f"perfbench: check failed: {msg}", file=sys.stderr)
    stamp = {"env": env, "samples": samples, "setup_probes_s": setup,
             "error_rate": len(failures) / attempted, "check_failures": len(problems)}
    print("stamp " + json.dumps(stamp, sort_keys=True))
    result = {"correct": not problems, "attempted": attempted, "failed": len(failures), "metrics": metrics}
    with open(out_dir / f"result-{tag}.json", "w", encoding="utf-8") as fh:
        passes_log = [{"wall_s": p.wall_s, "latencies_s": p.latencies} for p in passes]
        json.dump({**result, "stamp": stamp, "passes": passes_log}, fh, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
