"""Property test of the exit-code contract: any command line ends in 0, 2 or 3, never a traceback.

An exit-0 table also holds no ``nan`` cell and no negative measure, and a
JSON payload is strict JSON (no ``NaN`` or ``Infinity`` anywhere) whose
spec echoes every field of the sweep.
"""

import contextlib
import io
import json
import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from depolmark.cli import QUANTITIES, main

# Ordinary values and edge values inside [0, 1]: its ends, a signed zero,
# subnormal and tiny numbers, the alpha = 1 singular point, a hair below 1.
IN_RANGE = st.one_of(
    st.floats(0.0, 1.0),
    st.sampled_from([0.0, -0.0, 1.0, 5e-324, 1e-300, 1e-17, 1e-7, 2 / 3, 0.99, 1 - 1e-12]),
)
OUT_OF_RANGE = st.sampled_from([math.nan, math.inf, -math.inf, -1e-9, 1.0000001, 2.0])


def number_list(values, fmt=repr, unique=False):
    return st.lists(values, min_size=1, max_size=3, unique=unique).map(lambda vs: ",".join(fmt(v) for v in vs))


# flag -> (value in its domain, value that may leave it)
FLAGS = {
    "--alpha": (number_list(IN_RANGE), number_list(st.one_of(IN_RANGE, OUT_OF_RANGE))),
    "--q": (IN_RANGE.map(repr), OUT_OF_RANGE.map(repr)),
    "--p-min": (IN_RANGE.map(repr), OUT_OF_RANGE.map(repr)),
    "--p-max": (IN_RANGE.map(repr), OUT_OF_RANGE.map(repr)),
    "--steps": (st.integers(2, 12).map(str), st.sampled_from(["-1", "0", "1", "1.5"])),
    "--levels": (number_list(st.integers(2, 5), str, unique=True), number_list(st.integers(0, 5), str)),
    "--qubits": (number_list(st.integers(1, 4), str, unique=True), number_list(st.integers(0, 4), str)),
    "--format": (st.sampled_from(["csv", "json"]), st.just("xml")),
}


@st.composite
def command_lines(draw) -> list:
    """A quantity and up to five flags, each value out of its domain one time in four."""
    argv = [draw(st.sampled_from(QUANTITIES))]
    for flag in draw(st.lists(st.sampled_from(sorted(FLAGS)), unique=True, max_size=5)):
        good, bad = FLAGS[flag]
        value = draw(draw(st.sampled_from([good, good, good, bad])))
        argv.append(f"{flag}={value}")  # "=" lets a value start with "-"
    return argv


# Measures that are nonnegative by definition. N_HCLA_log_form is left out:
# it is documented as not an antiderivative of the rate.
NONNEGATIVE = ("N_BLP", "N_HCLA_numeric", "N_HCLA_closed")


SPEC_KEYS = {"tool", "version", "quantity", "alpha", "q", "p_min", "p_max", "steps", "levels", "qubits", "format"}


def strict(constant: str):
    raise ValueError(f"not strict JSON: {constant}")


def table(payload: str) -> tuple:
    """Header and rows of a CSV or JSON table, every sample as text (NA or None where singular)."""
    if payload.startswith("{"):
        data = json.loads(payload, parse_constant=strict)
        assert set(data["spec"]) == SPEC_KEYS and data["spec"]["format"] == "json"
        return data["columns"], [[repr(v) for v in row] for row in data["rows"]]
    lines = [line for line in payload.splitlines() if not line.startswith("#")]
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(argv=command_lines())
@example(argv=["hcla", "--alpha", "0,1e-17"])
@example(argv=["hcla", "--alpha", "1e-16,1e-14"])
@example(argv=["hcla", "--levels", "3", "--alpha", "1e-16,1e-14"])
@example(argv=["decay-rate", "--alpha", "1e-300"])
@example(argv=["choi-eigs", "--alpha", "0.7,0.7000001", "--q", "0.30000001", "--steps", "2"])
@example(argv=["hcla", "--alpha", "0.1,0.2", "--p-max=inf", "--format", "json"])
@example(argv=["decay-rate", "--levels", "1" + "0" * 160, "--format", "json"])
def test_any_command_line_exits_0_2_or_3_without_nan_cells(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 2, 3), argv
    if code == 0:
        header, rows = table(out.getvalue())
        assert "nan" not in [cell.lower() for row in rows for cell in row], argv
        measures = [i for i, name in enumerate(header) if name in NONNEGATIVE]
        negative = [row[i] for row in rows for i in measures if row[i] not in ("NA", "None") and float(row[i]) < 0.0]
        assert not negative, argv
