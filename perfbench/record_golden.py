"""Record the golden digests that the benchmark checks outputs against.

Usage, from the checkout root: ``python3 perfbench/record_golden.py``.
Writes ``perfbench/golden.json``: the sha256 of every figure-preset CSV,
and for every cli-cold invocation its exit code, the sha256 of its stdout
and of the files it writes. Re-record only for an output change that is
intended, and name the changed outputs where the change is described.
"""

import json
import sys
import tempfile
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent


def main() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    from depolmark import cli

    presets = {}
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        for fig in cli.FIGURES:
            for path in cli.figure(fig, tmp, "csv"):
                presets[Path(path).name] = workloads.sha256(Path(path).read_bytes())
    (ROOT / workloads.CLI_OUT).mkdir(parents=True, exist_ok=True)
    invocations = {}
    for ident, argv in workloads.INVOCATIONS:
        cmd = [sys.executable, "-c", workloads.ENTRY, *argv]
        code, stdout, _, _, _ = workloads.run_child(cmd, ROOT, ident)
        entry = {"argv": argv, "exit": code, "stdout_sha256": workloads.sha256(stdout), "files": {}}
        if ident == "fig1":
            data = (ROOT / workloads.CLI_OUT / "fig1.csv").read_bytes()
            entry["files"]["fig1.csv"] = workloads.sha256(data)
        invocations[ident] = entry
    with open(workloads.GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump({"presets": presets, "cli-cold": invocations}, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
