"""The CSV and JSON writers against the writers they replaced, byte for byte.

``old_write_csv`` and ``old_write_json`` are the two writers as they were
while the CSV writer sent every cell through ``_format_value`` (one more
``float()``) over a full list of rows, and the JSON writer rebuilt every
row in a second ``None``/``float()`` pass; their bodies are copied
unchanged. They are the oracle: on every table ``run_sweep`` can build,
whose cells are Python floats or ``None``, the writers give the same bytes.
The JSON writer encodes its rows ``cli._JSON_CHUNK`` at a time, so the
examples hold tables of no row and of one row below, at and above a chunk.
"""

import io
import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from depolmark import cli
from depolmark.cli import SweepTable, _merge, _meta_str, write_csv, write_json


def _format_value(value: float | None) -> str:
    return "NA" if value is None else format(float(value), ".15g")


def old_write_csv(table: SweepTable, fh) -> None:
    """CSV payload: ``#`` metadata lines (``format=csv`` among them), header row, 15-significant-digit rows."""
    meta = {**table.metadata, "format": "csv"}
    for key in sorted(meta):
        fh.write(f"# {key}={_meta_str(meta[key])}\n")
    fh.write(",".join((table.abscissa_name,) + tuple(table.series_names)) + "\n")
    for row in table.rows:
        fh.write(",".join(_format_value(v) for v in row) + "\n")


def old_write_json(table: SweepTable, fh) -> None:
    """JSON payload: spec echo (``"format": "json"`` in it), column names and row arrays (null = singular)."""
    import json  # here, not at the top: only this writer needs it, and CSV commands stay without it

    payload = {
        "spec": {**table.metadata, "format": "json"},
        "columns": [table.abscissa_name, *table.series_names],
        "rows": [[None if v is None else float(v) for v in row] for row in table.rows],
    }
    json.dump(payload, fh, sort_keys=True)
    fh.write("\n")


# The metadata of every preset's spec, as run_sweep attaches it.
METADATA = [spec.metadata() for files in cli._FIGURES.values() for _, *specs in files for spec in specs]
EDGES = [-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, math.inf, -math.inf, 0.1, 1 / 3]
# A sample as a column function returns it: NaN marks an NA cell.
samples = st.one_of(st.floats(), st.sampled_from(EDGES + [math.nan]))


@st.composite
def tables(draw, rows: int | None = None) -> SweepTable:
    """A table built as ``run_sweep`` builds one: float grid, then each sample a float or None (for NaN)."""
    rows = draw(st.integers(0, 40)) if rows is None else rows
    width = draw(st.integers(1, 6))
    grid = draw(st.lists(st.floats(allow_nan=False), min_size=rows, max_size=rows))
    raw = [draw(st.lists(samples, min_size=rows, max_size=rows)) for _ in range(width - 1)]
    columns = [grid] + [[None if v != v else float(v) for v in column] for column in raw]
    names = tuple(f"series_{i}" for i in range(1, width))
    return SweepTable(draw(st.sampled_from(["p", "q", "alpha"])), names, columns, draw(st.sampled_from(METADATA)))


@st.composite
def merged_pairs(draw) -> SweepTable:
    """Two tables on one grid, merged column by column as a preset file with two specs is."""
    first = draw(tables())
    second = draw(tables(rows=len(first.columns[0])))
    second = SweepTable(first.abscissa_name, tuple(n + "_b" for n in second.series_names), [first.columns[0]] + second.columns[1:], second.metadata)
    return _merge([first, second])


def written(writer, table: SweepTable) -> str:
    fh = io.StringIO()
    writer(table, fh)
    return fh.getvalue()


def assert_same_bytes(table: SweepTable) -> None:
    assert written(write_csv, table) == written(old_write_csv, table)
    assert written(write_json, table) == written(old_write_json, table)


def seam_table(rows: int) -> SweepTable:
    """A table of ``rows`` rows and two series, an NA cell in every fifth row."""
    grid = [i / 7 for i in range(rows)]
    return SweepTable("p", ("a", "b"), [grid, [None if i % 5 == 0 else -x for i, x in enumerate(grid)], [x * x for x in grid]], METADATA[0])


@given(tables())
@example(SweepTable("p", ("a", "b"), [[0.0, 0.5], [0.0, -0.0], [None, 5e-324]], METADATA[0]))
@example(SweepTable("p", (), [[]], METADATA[0]))
@example(seam_table(0))
@example(seam_table(cli._JSON_CHUNK - 1))
@example(seam_table(cli._JSON_CHUNK))
@example(seam_table(cli._JSON_CHUNK + 1))
def test_writers_give_the_old_bytes(table):
    assert_same_bytes(table)


@settings(max_examples=50)
@given(merged_pairs())
def test_writers_give_the_old_bytes_on_merged_tables(table):
    assert_same_bytes(table)


def test_writers_give_the_old_bytes_on_the_merged_preset():
    (_, *specs), = cli._FIGURES["fig4"]
    assert_same_bytes(_merge([cli.run_sweep(spec) for spec in specs]))

