import dataclasses
import errno
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import depolmark
from depolmark import cli
from depolmark.cli import (
    FIGURES,
    QUANTITIES,
    SweepSpec,
    UsageError,
    figure,
    main,
    run_sweep,
    write_csv,
    write_json,
)
from depolmark.kernel import SingularMapError, crossover_point

ALPHA_MINUS_07 = 0.7725529126366106


def render_csv(table) -> str:
    buf = io.StringIO()
    write_csv(table, buf)
    return buf.getvalue()


def test_choi_eigs_sweep_crosses_at_singular_parameter():
    spec = SweepSpec("choi-eigs", alpha=(0.7,), q=0.3, p_min=0.3, p_max=1.0, steps=701)
    table = run_sweep(spec)
    top = np.array(table.column("Lambda_I_alpha0.7"))
    rest = np.array(table.column("Lambda_XYZ_alpha0.7"))
    gap = top - rest
    flip = np.nonzero(np.diff(np.sign(gap)))[0]
    assert len(flip) == 1
    crossing = table.rows[flip[0]][0]
    assert abs(crossing - ALPHA_MINUS_07) < 1e-3  # grid resolution


def test_decay_rate_sweep_positive_without_memory():
    spec = SweepSpec("decay-rate", alpha=(0.0,), p_min=0.0, p_max=1.0, steps=51)
    table = run_sweep(spec)
    values = table.column("gamma_alpha0")
    assert values[-1] is None  # pole at p = 1 marked, not dropped
    assert all(v > 0 for v in values[:-1])


def test_decay_rate_sweep_marks_guard_band():
    spec = SweepSpec("decay-rate", alpha=(0.7,), p_min=ALPHA_MINUS_07 - 5e-7, p_max=1.0, steps=3)
    table = run_sweep(spec)
    assert table.rows[0][1] is None  # within 1e-6 of the singular parameter


def test_g_function_sweep_orders_qubit_counts():
    spec = SweepSpec("g-function", alpha=(0.9,), p_min=0.7, p_max=0.95, steps=6, qubits=(1, 2))
    table = run_sweep(spec)
    one = table.column("g_alpha0.9_n1")
    two = table.column("g_alpha0.9_n2")
    assert all(b >= a for a, b in zip(one, two))
    assert any(b > a for a, b in zip(one, two))


def test_trace_distance_sweep_values():
    spec = SweepSpec("trace-distance", alpha=(0.0,), p_min=0.0, p_max=1.0, steps=11)
    table = run_sweep(spec)
    values = np.array(table.column("D_alpha0"))
    assert np.abs(values - (1 - np.linspace(0, 1, 11))).max() < 1e-12


def test_trajectory_sweep_has_na_a_vector_at_contraction_zero():
    spec = SweepSpec("trajectory", alpha=(1.0,), p_min=0.0, p_max=1.0, steps=4)
    table = run_sweep(spec)
    assert table.rows[2][0] == pytest.approx(2 / 3)
    a_column = table.column("A_alpha1")
    assert a_column[2] is None
    assert table.column("lambda_alpha1")[2] == pytest.approx(0.0, abs=1e-12)


def test_hcla_sweep_uses_alpha_grid():
    spec = SweepSpec("hcla", alpha=(0.0, 0.5, 1.0), p_min=0.0, p_max=1.0, steps=5)
    table = run_sweep(spec)
    assert table.abscissa_name == "alpha"
    assert [row[0] for row in table.rows] == [0.0, 0.5, 1.0]
    closed = table.column("N_HCLA_closed")
    numeric = table.column("N_HCLA_numeric")
    assert max(abs(a - b) for a, b in zip(closed, numeric)) < 1e-6


def test_blp_sweep_default_grid():
    spec = SweepSpec("blp", alpha=(0.7,), p_min=0.0, p_max=1.0, steps=5)
    table = run_sweep(spec)
    grid = [row[0] for row in table.rows]
    assert grid == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert np.abs(np.array(table.column("N_BLP")) - np.array(grid) / 4).max() < 1e-8


def test_sweep_determinism():
    spec = SweepSpec("choi-norm", alpha=(0.9,), q=0.4, p_min=0.4, p_max=1.0, steps=41, qubits=(1, 2))
    first = render_csv(run_sweep(spec))
    second = render_csv(run_sweep(spec))
    assert first == second


def test_csv_format():
    spec = SweepSpec("decay-rate", alpha=(0.0,), p_min=0.0, p_max=1.0, steps=3)
    text = render_csv(run_sweep(spec))
    lines = text.strip().splitlines()
    meta = [l for l in lines if l.startswith("# ")]
    assert "# quantity=decay-rate" in meta
    assert any(l.startswith("# version=") for l in meta)
    header = lines[len(meta)]
    assert header == "p,gamma_alpha0,gamma_normalized_alpha0"
    last = lines[-1].split(",")
    assert last[0] == "1" and last[1] == "NA"
    # 15 significant digits
    row = lines[len(meta) + 2].split(",")
    assert row[0] == "0.5" and row[1] == "2"


def test_json_format():
    spec = SweepSpec("blp", alpha=(0.7,), p_min=0.0, p_max=1.0, steps=3)
    buf = io.StringIO()
    write_json(run_sweep(spec), buf)
    payload = json.loads(buf.getvalue())
    assert payload["columns"] == ["alpha", "N_BLP"]
    assert payload["spec"]["quantity"] == "blp"
    assert len(payload["rows"]) == 3
    assert payload["rows"][1][1] == pytest.approx(0.125, abs=1e-8)


def test_json_encodes_singular_as_null():
    spec = SweepSpec("decay-rate", alpha=(0.0,), p_min=0.0, p_max=1.0, steps=3)
    buf = io.StringIO()
    write_json(run_sweep(spec), buf)
    payload = json.loads(buf.getvalue())
    assert payload["rows"][-1][1] is None


def test_spec_validation_errors():
    with pytest.raises(UsageError, match="steps"):
        SweepSpec("blp", steps=1)
    with pytest.raises(UsageError, match="min < max"):
        SweepSpec("blp", p_min=0.9, p_max=0.1)
    with pytest.raises(UsageError, match="alpha"):
        SweepSpec("blp", alpha=(1.4,))
    with pytest.raises(UsageError, match="at or above q"):
        SweepSpec("choi-eigs", q=0.5, p_min=0.0)
    with pytest.raises(UsageError, match="single-qubit"):
        SweepSpec("volume", levels=(3,))
    with pytest.raises(UsageError, match="levels"):
        SweepSpec("f-norm", levels=(2,))
    with pytest.raises(UsageError, match="qubits"):
        SweepSpec("g-function", qubits=(3,), p_max=0.9)
    with pytest.raises(UsageError, match="not both"):
        SweepSpec("choi-norm", levels=(2, 3), qubits=(1, 2))
    with pytest.raises(UsageError, match="unknown quantity"):
        SweepSpec("bogus")


def test_figures_all_build_quickly(tmp_path):
    import time

    for fig_id in FIGURES:
        start = time.perf_counter()
        paths = figure(fig_id, out_dir=str(tmp_path))
        elapsed = time.perf_counter() - start
        assert paths, fig_id
        assert elapsed < 10.0, f"{fig_id} took {elapsed:.1f} s"
        for path in paths:
            assert os.path.exists(path)


def test_fig4_columns(tmp_path):
    (path,) = figure("fig4", out_dir=str(tmp_path))
    header = [l for l in Path(path).read_text().splitlines() if not l.startswith("#")][0].strip()
    assert header == "alpha,N_BLP,N_HCLA_numeric,N_HCLA_closed"


def test_fig10_reports_both_qutrit_columns(tmp_path):
    (path,) = figure("fig10", out_dir=str(tmp_path))
    header = [l for l in Path(path).read_text().splitlines() if not l.startswith("#")][0].strip()
    assert header == "alpha,N_HCLA_numeric,N_HCLA_log_form"


def test_fig3_marks_memoryless_pole(tmp_path):
    (path,) = figure("fig3", out_dir=str(tmp_path))
    last = Path(path).read_text().strip().splitlines()[-1].split(",")
    assert last[0] == "1" and last[1] == "NA"


def test_fig12_writes_two_tables(tmp_path):
    paths = figure("fig12", out_dir=str(tmp_path))
    assert [os.path.basename(p) for p in paths] == ["fig12a.csv", "fig12b.csv"]


def test_figure_unknown_id_names_valid_ones(tmp_path):
    with pytest.raises(UsageError, match="fig1"):
        figure("fig99", out_dir=str(tmp_path))


def test_figure_metadata_names_the_format_written(tmp_path):
    # fig4 merges two specs: the merged metadata is the first spec's.
    for fig_id in ("fig3", "fig4"):
        (path,) = figure(fig_id, out_dir=str(tmp_path), fmt="json")
        assert json.loads(Path(path).read_text())["spec"]["format"] == "json"
        (path,) = figure(fig_id, out_dir=str(tmp_path))
        assert "# format=csv\n" in Path(path).read_text()
    with pytest.raises(UsageError, match="format must be csv or json, got 'xml'"):
        figure("fig1", out_dir=str(tmp_path), fmt="xml")
    assert not (tmp_path / "fig1.xml").exists()


def test_figure_rerun_is_byte_identical(tmp_path):
    (first,) = figure("fig1", out_dir=str(tmp_path))
    content = Path(first).read_bytes()
    (second,) = figure("fig1", out_dir=str(tmp_path))
    assert Path(second).read_bytes() == content


def test_main_sweep_to_file(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = main(["memory-x", "--alpha", "0.8", "--q", "0.3", "--steps", "11", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[-1].split(",")[0] == "1"


def test_main_stdout(capsys):
    rc = main(["blp", "--steps", "3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "N_BLP" in out


def test_main_usage_error_exit_code():
    assert main(["hcla", "--steps", "1"]) == 2
    assert main(["choi-eigs", "--q", "0.5", "--p-min", "0.2"]) == 2


def test_main_unknown_target_exits_2(capsys):
    assert main(["not-a-quantity"]) == 2


def test_main_pinned_singularity_exit_code():
    rc = main(["choi-eigs", "--alpha", "0.7", "--q", repr(ALPHA_MINUS_07)])
    assert rc == 3


def test_main_figure_warns_about_ignored_flags(tmp_path, capsys):
    rc = main(["fig2", "--alpha", "0.5", "--out", str(tmp_path)])
    assert rc == 0
    err = capsys.readouterr().err
    assert "ignoring --alpha" in err


def test_quantities_and_figures_disjoint():
    assert set(QUANTITIES).isdisjoint(FIGURES)


def test_memory_x_near_singular_q_matches_closed_form(capsys):
    # q = 0.7726 lies 4.7e-5 from the singular value, outside the guard band.
    assert main(["memory-x", "--alpha", "0.7", "--q", "0.7726"]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")][1:]
    assert len(lines) == 101

    def survival(p):
        return 1.0 - (p + 0.7 * p - 0.75 * 0.7 * p * p)

    for line in lines:
        p, x = (float(v) for v in line.split(","))
        want = 3.0 * abs(survival(p) / survival(0.7726))
        assert abs(x - want) <= 1e-6 * want


@pytest.mark.parametrize(
    "argv",
    [
        ["trace-distance", "--p-min", "-0.5"],
        ["decay-rate", "--p-min", "-0.5"],
        ["volume", "--p-max", "1.5"],
        ["trajectory", "--p-max", "1.5"],
        ["choi-eigs", "--p-max", "1.2"],
        ["g-function", "--p-min", "-0.1"],
        ["hcla", "--p-max", "1.5"],
    ],
)
def test_grid_bound_outside_unit_interval_exits_2(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "grid values must lie in [0, 1]" in captured.err
    assert captured.out == ""


def test_alpha_list_grid_ignores_p_bounds():
    spec = SweepSpec("blp", alpha=(0.2, 0.4), p_max=1.5)
    assert [row[0] for row in run_sweep(spec).rows] == [0.2, 0.4]


def test_python_m_depolmark_runs_a_figure(tmp_path):
    (tmp_path / "m").mkdir()
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "depolmark", "fig1", "--out", str(tmp_path / "m")],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == str(tmp_path / "m" / "fig1.csv")
    (in_process,) = figure("fig1", str(tmp_path))
    assert (tmp_path / "m" / "fig1.csv").read_bytes() == Path(in_process).read_bytes()


@pytest.mark.parametrize(
    "argv,message",
    [
        (["decay-rate", "--levels", "0"], "levels must be >= 2"),
        (["decay-rate", "--levels", "1"], "levels must be >= 2"),
        (["hcla", "--levels", "1"], "levels must be >= 2"),
        (["choi-norm", "--qubits", "0"], "qubits must be >= 1"),
        (["choi-norm", "--q", "0.3", "--p-min", "0.2999999999999"], "at or above q"),
        (["g-function", "--p-max", "0.9999999"], "max + 1e-06 <= 1"),
        (["trace-distance", "--steps", "1000000000000"], "steps must lie in [2, 1000000]"),
    ],
)
def test_out_of_domain_parameters_exit_2(argv, message, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


def test_steps_cap_is_checked_before_any_grid_exists():
    # SweepSpec validates on construction and builds no grid.
    with pytest.raises(UsageError, match="steps"):
        SweepSpec("trace-distance", steps=10**12)
    assert SweepSpec("trace-distance", steps=1_000_000).steps == 1_000_000


def test_g_function_grid_may_end_one_step_below_one():
    spec = SweepSpec("g-function", alpha=(0.9,), p_min=0.98, p_max=0.999, steps=2)
    assert [row[0] for row in run_sweep(spec).rows] == [0.98, 0.999]


@pytest.mark.parametrize("q", ["0.9999999999999", "0.9999999"])
@pytest.mark.parametrize("quantity", ["choi-eigs", "choi-norm", "memory-x"])
def test_pinned_q_in_the_alpha_0_guard_band_exits_3(quantity, q, capsys):
    # At alpha = 0 the singular point is the boundary p = 1: a pinned q
    # within 1e-6 of it is singular, like any other pinned singular q.
    argv = [quantity, "--alpha", "0", "--q", q, "--p-min", q, "--p-max", "1", "--steps", "2"]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert "depolmark: singularity:" in captured.err
    assert captured.out == ""


def test_unwritable_sweep_output_exits_2(tmp_path, capsys):
    out = tmp_path / "missing" / "x.csv"
    assert main(["choi-eigs", "--steps", "2", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert f"depolmark: error: cannot write {out}" in captured.err
    assert captured.out == ""


def test_unwritable_figure_directory_exits_2(tmp_path, capsys):
    out_dir = tmp_path / "missing"
    assert main(["fig1", "--out", str(out_dir)]) == 2
    captured = capsys.readouterr()
    assert f"depolmark: error: cannot write {out_dir / 'fig1.csv'}" in captured.err
    assert captured.out == "" and not out_dir.exists()


def run_depolmark(argv: list, stdout) -> subprocess.CompletedProcess:
    """``python -m depolmark ARGV`` in a fresh interpreter, its stdout sent to ``stdout``."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    return subprocess.run(
        [sys.executable, "-m", "depolmark", *argv], env=env, stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=120
    )


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the always-full device /dev/full")
@pytest.mark.parametrize(
    "argv,dest",
    [
        (["choi-eigs", "--steps", "5"], "stdout"),
        (["choi-eigs", "--steps", "5", "--out", "/dev/full"], "/dev/full"),
        (["fig1", "--out", "{tmp}"], "stdout"),
    ],
)
def test_a_full_device_exits_2_with_one_line(argv, dest, tmp_path):
    with open("/dev/full", "w") as full:
        proc = run_depolmark([arg.format(tmp=tmp_path) for arg in argv], stdout=full)
    assert proc.returncode == 2
    assert proc.stderr == f"depolmark: error: cannot write {dest}: {os.strerror(errno.ENOSPC)}\n"


def test_a_closed_pipe_exits_2_with_one_line():
    # The reader is gone before the first write, as with ``| head -0``.
    read, write = os.pipe()
    os.close(read)
    try:
        proc = run_depolmark(["choi-eigs", "--steps", "5"], stdout=write)
    finally:
        os.close(write)
    assert proc.returncode == 2
    assert proc.stderr == f"depolmark: error: cannot write stdout: {os.strerror(errno.EPIPE)}\n"


def test_a_pipe_closed_mid_stream_exits_2_with_one_line():
    # As ``depolmark choi-eigs --steps 200000 | head -1``: the reader leaves after one line.
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    argv = [sys.executable, "-m", "depolmark", "choi-eigs", "--steps", "200000"]
    with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
        assert proc.stdout.readline().startswith("# ")
        proc.stdout.close()
        err = proc.stderr.read()
        proc.wait(timeout=120)
    assert proc.returncode == 2
    assert err == f"depolmark: error: cannot write stdout: {os.strerror(errno.EPIPE)}\n"


def test_a_failed_figure_write_exits_2_naming_the_file(tmp_path, capsys, monkeypatch):
    def full(table, fh):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(cli, "write_csv", full)
    assert main(["fig1", "--out", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"depolmark: error: cannot write {tmp_path / 'fig1.csv'}: {os.strerror(errno.ENOSPC)}\n"
    assert captured.out == ""


@pytest.mark.parametrize("axis,value", [("steps", 5.5), ("steps", 5.0), ("levels", (2.5,)), ("levels", (2.0,)), ("qubits", (1.0,))])
def test_non_integer_counts_are_rejected(axis, value):
    with pytest.raises(UsageError, match=f"{axis} takes integers only"):
        SweepSpec("choi-eigs", p_min=0.3, **{axis: value})


@pytest.mark.parametrize(
    "field,value",
    [
        ("q", "0.3"),
        ("p_min", b"0"),
        ("p_max", "1"),
        ("q", 0.3j),
        ("alpha", 0.5),
        ("alpha", ("0.5",)),
        ("alpha", (None,)),
    ],
)
def test_non_numeric_values_are_usage_errors_naming_the_field(field, value):
    with pytest.raises(UsageError, match=f"^{field} takes"):
        SweepSpec("trace-distance", **{field: value})


def test_none_takes_the_row_default():
    assert SweepSpec("trace-distance", p_max=None).p_max == 1.0
    spec = SweepSpec("g-function", p_min=None, p_max=None, levels=None)
    assert (spec.p_min, spec.p_max, spec.levels) == (0.0, 0.98, (2,))
    # A pinned quantity starts its grid at q; f-norm's first allowed level is 3, decay-rate allows any and takes 2.
    assert SweepSpec("memory-x", q=0.45).p_min == 0.45
    assert SweepSpec("f-norm").levels == (3,) and SweepSpec("decay-rate").levels == (2,)


@pytest.mark.parametrize("fig_id", FIGURES)
def test_preset_specs_survive_replace_and_a_rebuild_from_their_metadata(fig_id):
    # The defaults a spec resolved are ordinary fields: replace and the metadata echo carry them.
    for _, *specs in cli._FIGURES[fig_id]:
        for spec in specs:
            assert dataclasses.replace(spec, steps=3).steps == 3
            fields = {k: v for k, v in spec.metadata().items() if k not in ("tool", "version")}
            assert SweepSpec(**fields) == spec


def test_each_writer_stamps_its_own_format():
    table = run_sweep(SweepSpec("decay-rate", steps=3))
    buf = io.StringIO()
    write_json(table, buf)
    assert json.loads(buf.getvalue())["spec"]["format"] == "json"
    assert "# format=csv\n" in render_csv(table)
    assert "format" not in table.metadata


@pytest.mark.parametrize("quantity", ["choi-eigs", "choi-norm", "memory-x"])
def test_a_singular_pinned_q_is_refused_when_the_spec_is_built(quantity):
    with pytest.raises(SingularMapError, match="pinned q = 0.7725529126366106 sits at the singular parameter"):
        SweepSpec(quantity, alpha=(0.0, 0.7), q=ALPHA_MINUS_07)


def test_numpy_scalars_pass_as_python_floats():
    spec = SweepSpec("choi-eigs", alpha=(np.float64(0.7), np.float32(0.5)), q=np.float64(0.25), p_min=np.float32(0.5))
    assert (spec.alpha, spec.q, spec.p_min) == ((0.7, 0.5), 0.25, 0.5)
    assert all(type(v) is float for v in (*spec.alpha, spec.q, spec.p_min, spec.p_max))


def test_numpy_integer_counts_become_python_ints():
    spec = SweepSpec("choi-eigs", p_min=0.3, steps=np.int64(5), levels=(np.int64(3),))
    assert (spec.steps, spec.levels) == (5, (3,))
    assert type(spec.steps) is int and type(spec.levels[0]) is int


@pytest.mark.parametrize(
    "argv,message",
    [
        (["decay-rate", "--levels", "2,3"], "decay-rate supports a single levels value"),
        (["f-norm", "--levels", "3,4"], "f-norm supports a single levels value"),
        (["choi-eigs", "--levels", "2,2"], "levels values must be distinct, got (2, 2)"),
        (["choi-eigs", "--alpha", "0.7,0.7"], "alpha values must be distinct, got (0.7, 0.7)"),
        (["choi-norm", "--qubits", "1,1"], "qubits values must be distinct, got (1, 1)"),
    ],
)
def test_list_flags_that_would_drop_or_repeat_a_series_exit_2(argv, message, capsys):
    assert main([*argv, "--steps", "3"]) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv", [["hcla", "--alpha", "1e-16"], ["blp", "--alpha", "0.3"]], ids=["hcla", "blp"])
def test_single_alpha_for_an_alpha_sweep_exits_2(argv, capsys):
    # One alpha is not a grid: the sweep would run the default alpha grid and drop it.
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "give two or more --alpha values" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("quantity", [q for q in QUANTITIES if q not in ("choi-eigs", "choi-norm", "memory-x")])
def test_q_for_a_quantity_that_does_not_pin_it_exits_2(quantity, capsys):
    # Only the pinned quantities read q; elsewhere the metadata would echo a
    # value that changed nothing.
    extra = ["--levels", "3"] if quantity == "f-norm" else []
    assert main([quantity, "--q", "0.9", "--steps", "3", *extra]) == 2
    captured = capsys.readouterr()
    hint = "--p-min/--p-max" if quantity == "g-function" else "only choi-eigs, choi-norm, memory-x pin q"
    assert f"depolmark: error: {quantity}" in captured.err and hint in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("quantity,axis", [("blp", "alpha"), ("choi-eigs", "levels"), ("g-function", "qubits")])
def test_empty_list_is_rejected(quantity, axis):
    with pytest.raises(UsageError, match=f"at least one {axis} value is required"):
        SweepSpec(quantity, p_min=0.3, p_max=0.9, **{axis: ()})


def payload(capsys) -> tuple:
    """(metadata lines, header, data rows) of a CSV sweep printed to stdout."""
    lines = capsys.readouterr().out.splitlines()
    meta = [l for l in lines if l.startswith("#")]
    table = [l.split(",") for l in lines if not l.startswith("#")]
    return meta, table[0], table[1:]


def test_values_equal_to_six_digits_keep_distinct_names_and_metadata(capsys):
    argv = ["choi-eigs", "--alpha", "0.7,0.7000001", "--q", "0.30000001", "--steps", "2"]
    assert main(argv) == 0
    meta, header, rows = payload(capsys)
    assert header == ["p", "Lambda_I_alpha0.7", "Lambda_XYZ_alpha0.7", "Lambda_I_alpha0.7000001", "Lambda_XYZ_alpha0.7000001"]
    assert "# alpha=0.7;0.7000001" in meta and "# q=0.30000001" in meta and "# p_min=0.30000001" in meta
    assert rows[0][1:3] != rows[0][3:] or rows[1][1:3] != rows[1][3:]
    # Values that round-trip under :g keep their short form.
    assert main(["choi-eigs", "--alpha", "0.7", "--q", "0.3", "--steps", "2"]) == 0
    meta, header, _ = payload(capsys)
    assert header[1] == "Lambda_I_alpha0.7" and "# q=0.3" in meta and "# p_max=1" in meta


def test_negative_zero_names_and_prints_as_zero(capsys):
    # -0.0 is the same channel as 0.0: one series name, one metadata echo.
    assert main(["choi-eigs", "--alpha=0.5,-0.0", "--q=-0.0", "--p-min=-0.0", "--steps", "2"]) == 0
    meta, header, rows = payload(capsys)
    assert header == ["p", "Lambda_I_alpha0.5", "Lambda_XYZ_alpha0.5", "Lambda_I_alpha0", "Lambda_XYZ_alpha0"]
    assert "# alpha=0.5;0" in meta and "# q=0" in meta and "# p_min=0" in meta
    assert [row[0] for row in rows] == ["0", "1"]
    assert main(["decay-rate", "--p-min=-0.0", "--steps", "2"]) == 0
    meta, _, _ = payload(capsys)
    assert "# p_min=0" in meta
    spec = SweepSpec("trace-distance", alpha=(-0.0,), q=-0.0, p_min=-0.0)
    assert [math.copysign(1.0, x) for x in (*spec.alpha, spec.q, spec.p_min)] == [1.0, 1.0, 1.0]


def test_decay_rate_at_tiny_alpha_marks_the_vanishing_normalized_denominator(capsys):
    # G + G' = -alpha at p = 0: 1e-300 makes it vanish, so that cell is NA.
    assert main(["decay-rate", "--alpha", "1e-300"]) == 0
    _, header, rows = payload(capsys)
    assert header == ["p", "gamma_alpha1e-300", "gamma_normalized_alpha1e-300"]
    assert rows[0] == ["0", "1", "NA"]
    assert rows[1][2] != "NA" and rows[-1][1] == "NA"


def test_hcla_at_tiny_alpha_uses_the_series(capsys):
    assert main(["hcla", "--alpha", "0,1e-17"]) == 0
    _, header, rows = payload(capsys)
    assert header == ["alpha", "N_HCLA_numeric", "N_HCLA_closed"]
    assert rows == [["0", "0", "0"], ["1e-17", "2.5e-18", "2.5e-18"]]


def test_sweep_table_rows_are_its_columns_side_by_side():
    table = run_sweep(SweepSpec("trajectory", alpha=(1.0,), steps=4))
    assert len(table.columns) == 1 + len(table.series_names)
    assert table.rows == list(zip(*table.columns))
    assert table.column("p") == table.columns[0]
    a_column = table.column("A_alpha1")
    assert a_column[2] is None and a_column[::3] == [-2.0, 2.0] and a_column[1] == pytest.approx(-3.6)


def test_spec_holds_only_the_sweep_and_its_metadata_reads_every_field():
    names = [f.name for f in dataclasses.fields(SweepSpec)]
    assert names == ["quantity", "alpha", "q", "p_min", "p_max", "steps", "levels", "qubits"]
    spec = SweepSpec("choi-norm", alpha=(0.5, 0.9), q=0.25, p_min=0.5, steps=7, qubits=(1, 3))
    assert spec.metadata() == {
        "tool": "depolmark",
        "version": depolmark.__version__,
        "quantity": "choi-norm",
        "alpha": [0.5, 0.9],
        "q": 0.25,
        "p_min": 0.5,
        "p_max": 1.0,
        "steps": 7,
        "levels": [2],
        "qubits": [1, 3],
    }


@pytest.mark.parametrize("fig_id", FIGURES)
def test_every_cell_is_a_python_float_or_none(fig_id):
    for _, *specs in cli._FIGURES[fig_id]:
        for spec in specs:
            table = run_sweep(spec)
            assert {type(v) for column in table.columns for v in column} <= {float, type(None)}


def test_a_group_masked_at_every_point_is_all_na():
    # The column function is never called on an empty grid.
    point = crossover_point(0.9)
    spec = SweepSpec("g-function", alpha=(0.9,), p_min=point - 4e-7, p_max=point + 4e-7, steps=5, qubits=(1, 2))
    table = run_sweep(spec)
    assert table.series_names == ("g_alpha0.9_n1", "g_alpha0.9_n2")
    assert table.columns[1:] == [[None] * 5] * 2
    point = crossover_point(0.7)
    table = run_sweep(SweepSpec("decay-rate", alpha=(0.7,), p_min=point - 4e-7, p_max=point + 4e-7, steps=5))
    assert table.series_names == ("gamma_alpha0.7", "gamma_normalized_alpha0.7")
    assert table.column("gamma_alpha0.7") == [None] * 5
    assert None not in table.column("gamma_normalized_alpha0.7")
