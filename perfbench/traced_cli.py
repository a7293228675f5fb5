"""Run one ``depolmark`` command with the span recorder installed.

Usage: ``PYTHONPATH=src python perfbench/traced_cli.py TRACE_JSON ARGS...``
from the checkout root. Behaves like ``depolmark ARGS...`` (same stdout,
stderr and exit code) and writes the per-function calls, self times,
counters and raw spans of the invocation to TRACE_JSON, also when the
command ends in an uncaught exception.
"""

import json
import sys

import tracing


def main() -> None:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    from depolmark import cli

    recorder = tracing.SpanRecorder()
    recorder.install()
    try:
        code = cli.main(argv)
    finally:
        recorder.uninstall()
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump({"collected": recorder.collect(), "spans": recorder.spans()}, fh)
    raise SystemExit(code)


if __name__ == "__main__":
    main()
