"""CSV serialization and the command-line front end.

Proves:
 - write/parse round trips are value-exact and infer the rate;
 - every malformed-input class gets its own error, with line numbers for
   bad rows (blank lines counted) and non-increasing time; a header-only
   file raises without a NumPy warning, non-UTF-8 text exits 3, and a time
   axis whose span or rate overflows float64 exits 4 without a warning;
 - both writers emit exactly one ``repr`` per value around the boundaries
   of their row blocks, for -0.0, subnormals, large and epoch values;
 - records with epoch timestamps survive the CSV round trip and fit like
   the same record at t = 0, through the library and the ``fit`` command;
 - each CLI command produces re-parseable artifacts and the documented
   exit codes, reports carry the stable JSON schema, and THERMOFIT_SEED
   beats --seed;
 - ``pipeline`` smooths once, leaves no temporary directory behind
   without ``--output``, and importing the CLI loads no SciPy.
"""

import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest

import thermofit.cli
from thermofit import (
    CsvFormatError,
    FitParams,
    NonMonotoneTimeError,
    NonUniformSamplingError,
    SynthSpec,
    TimeSeries,
    fit_series,
    generate,
    parse_csv,
    write_csv,
)
from thermofit.cli import main
from thermofit.sgolay import SGConfig, sg_smooth
from thermofit.io import _CHUNK_ROWS as CHUNK
from thermofit.io import OVERLAY_HEADER, SERIES_HEADER, write_overlay

REPORT_KEYS = {
    "a", "b", "c", "K", "tau", "t_ambient",
    "r_squared", "iterations", "converged", "lambda_final",
}


# ----------------------------------------------------------------------- csv


def test_round_trip_is_value_exact(tmp_path):
    ts = generate(
        SynthSpec(
            truth=FitParams(30.0, 25.0, 0.01),
            rate=100.0,
            duration=5.0,
            noise_sigma=0.5,
            seed=8,
        )
    )
    path = tmp_path / "series.csv"
    write_csv(path, ts)
    back = parse_csv(path)
    np.testing.assert_array_equal(back.t, ts.t)
    np.testing.assert_array_equal(back.y, ts.y)
    assert back.rate == pytest.approx(ts.rate, rel=1e-9)


def test_parse_small_file_and_rate_inference(tmp_path):
    path = tmp_path / "three.csv"
    path.write_text("time_s,temp_c\n0,25\n0.01,25.1\n0.02,25.2\n")
    ts = parse_csv(path)
    assert ts.n == 3
    assert ts.rate == pytest.approx(100.0, rel=1e-9)


def test_parse_header_is_case_insensitive(tmp_path):
    path = tmp_path / "caps.csv"
    path.write_text("TIME_S,Temp_C\n0,25\n0.5,26\n")
    assert parse_csv(path).n == 2


def test_missing_file_raises_file_not_found(tmp_path):
    with pytest.raises(FileNotFoundError):
        parse_csv(tmp_path / "nope.csv")


def test_bad_header_names_line_one(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("seconds,deg\n0,25\n")
    with pytest.raises(CsvFormatError, match="line 1"):
        parse_csv(path)


def test_malformed_row_names_its_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time_s,temp_c\n0,25\n0.01,25.1\n0.02,abc\n")
    with pytest.raises(CsvFormatError, match="line 4"):
        parse_csv(path)
    path.write_text("time_s,temp_c\n0,25\n0.01,25.1,7\n")
    with pytest.raises(CsvFormatError, match="line 3"):
        parse_csv(path)
    path.write_text("time_s,temp_c\n0,25\n\n0.01,abc\n")  # blank line 3
    with pytest.raises(CsvFormatError, match="line 4"):
        parse_csv(path)
    path.write_text("time_s,temp_c\n0,25\n\n0.01,25.1\n0.02,nan\n")
    with pytest.raises(CsvFormatError, match="line 5: non-finite"):
        parse_csv(path)


def test_decreasing_time_names_line_seven(tmp_path):
    rows = ["time_s,temp_c"] + [f"0.0{i},25.{i}" for i in range(5)]
    rows.append("0.02,25.9")  # line 7 goes backwards
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(NonMonotoneTimeError, match="line 7"):
        parse_csv(path)


def test_nonuniform_spacing_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time_s,temp_c\n0,25\n0.01,25.1\n0.021,25.2\n")
    with pytest.raises(NonUniformSamplingError):
        parse_csv(path)


def test_single_row_rejected(tmp_path):
    path = tmp_path / "tiny.csv"
    path.write_text("time_s,temp_c\n0,25\n")
    with pytest.raises(CsvFormatError, match="at least 2"):
        parse_csv(path)


@pytest.mark.parametrize("body", ["", "\n  \n\t\n"])
def test_header_only_csv_raises_without_warning(tmp_path, body):
    path = tmp_path / "header.csv"
    path.write_text("time_s,temp_c\n" + body)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(CsvFormatError, match="need at least 2 data rows, got 0"):
            parse_csv(path)


def test_epoch_timestamps_round_trip_and_fit_like_time_zero(tmp_path):
    base = generate(SynthSpec(FitParams(30.0, 25.0, 0.01), 100.0, 300.0, 0.5, 3))
    ref = fit_series(base).fit
    for t0 in (1.7e9, 4e9):
        path = tmp_path / f"epoch{t0:.0f}.csv"
        write_csv(path, TimeSeries(base.t + t0, base.y, base.rate))
        got = fit_series(parse_csv(path)).fit
        np.testing.assert_allclose(
            [got.a, got.b, got.c], [ref.a, ref.b, ref.c], rtol=1e-8
        )


def test_overlay_round_trip(tmp_path):
    t = np.arange(4) / 10.0
    path = tmp_path / "overlay.csv"
    write_overlay(path, t, t + 1, t + 2, t + 3)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "time_s,raw_c,smoothed_c,fitted_c"
    parsed = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    np.testing.assert_array_equal(parsed[:, 0], t)
    np.testing.assert_array_equal(parsed[:, 3], t + 3)


SPECIAL_VALUES = [-0.0, 5e-324, 1e16, 1e22, 1.7e9 + 0.01, 0.1, -273.15, 1 / 3]


def reference_csv(header, columns):
    """The CSV text of the columns written one ``repr`` per value."""
    rows = (",".join(repr(float(v)) for v in row) for row in zip(*columns))
    return "".join(line + "\n" for line in [header, *rows])


@pytest.mark.parametrize("n", [CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1])
def test_writers_match_per_value_repr(tmp_path, n):
    y = np.resize(np.array(SPECIAL_VALUES), n)
    cols = [y, -y, y * 3.0, np.sqrt(np.abs(y))]
    path = tmp_path / "overlay.csv"
    write_overlay(path, *cols)
    assert path.read_bytes() == reference_csv(OVERLAY_HEADER, cols).encode()

    ts = TimeSeries(1.7e9 + 0.01 * np.arange(n), y, 100.0)
    path = tmp_path / "series.csv"
    write_csv(path, ts)
    assert path.read_bytes() == reference_csv(SERIES_HEADER, [ts.t, ts.y]).encode()


# ----------------------------------------------------------------------- cli


def run_cli(*argv):
    return main(list(argv))


def test_simulate_writes_parseable_csv(tmp_path):
    out = tmp_path / "sim.csv"
    code = run_cli(
        "simulate", "--output", str(out), "--sigma", "0", "--rate", "100",
        "--duration", "10",
    )
    assert code == 0
    ts = parse_csv(out)
    assert ts.n == 1001
    assert ts.y[0] == 30.0  # default truth starts at a0


def test_smooth_command_round_trip(tmp_path):
    raw = tmp_path / "raw.csv"
    out = tmp_path / "smooth.csv"
    run_cli("simulate", "--output", str(raw), "--duration", "30", "--seed", "4")
    code = run_cli(
        "smooth", "--input", str(raw), "--output", str(out),
        "--order", "3", "--window", "301",
    )
    assert code == 0
    smoothed = parse_csv(out)
    noisy = parse_csv(raw)
    assert smoothed.n == noisy.n
    assert np.std(np.diff(smoothed.y)) < np.std(np.diff(noisy.y))


def test_fit_command_report_and_overlay(tmp_path, capsys):
    raw = tmp_path / "raw.csv"
    overlay = tmp_path / "overlay.csv"
    run_cli("simulate", "--output", str(raw), "--sigma", "0", "--duration", "300")
    code = run_cli(
        "fit", "--input", str(raw), "--output", str(overlay), "--format", "json",
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert REPORT_KEYS <= set(report)
    assert report["a"] == pytest.approx(30.0, rel=1e-6)
    assert report["b"] == pytest.approx(25.0, rel=1e-6)
    assert report["c"] == pytest.approx(0.01, rel=1e-6)
    assert report["tau"] == pytest.approx(100.0, rel=1e-6)
    assert overlay.exists()
    header = overlay.read_text().split("\n", 1)[0]
    assert header == "time_s,raw_c,smoothed_c,fitted_c"


def test_fit_command_fits_and_overlays_on_elapsed_time(tmp_path, capsys):
    clean = generate(SynthSpec(FitParams(30.0, 25.0, 0.01), 100.0, 300.0))
    raw = tmp_path / "raw.csv"
    overlay = tmp_path / "overlay.csv"
    write_csv(raw, TimeSeries(clean.t + 1e4, clean.y, clean.rate))
    code = run_cli(
        "fit", "--input", str(raw), "--output", str(overlay), "--format", "json",
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["a"] == pytest.approx(30.0, rel=1e-6)
    assert report["c"] == pytest.approx(0.01, rel=1e-6)
    rows = np.array(
        [line.split(",") for line in overlay.read_text().split("\n")[1:-1]],
        dtype=float,
    )
    np.testing.assert_array_equal(rows[:, 0], clean.t + 1e4)
    np.testing.assert_allclose(rows[:, 3], clean.y, atol=1e-6)


def test_fit_command_with_uniform_sigma_weights(tmp_path, capsys):
    raw = tmp_path / "raw.csv"
    run_cli("simulate", "--output", str(raw), "--sigma", "0", "--duration", "300")
    code = run_cli(
        "fit", "--input", str(raw), "--sigma", "0.5", "--format", "json"
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    # uniform weights rescale the cost but not the solution
    assert report["c"] == pytest.approx(0.01, rel=1e-6)
    code = run_cli("fit", "--input", str(raw), "--sigma", "-1")
    assert code == 4
    capsys.readouterr()


def test_fit_command_starting_override_requires_all_three(tmp_path, capsys):
    raw = tmp_path / "raw.csv"
    run_cli("simulate", "--output", str(raw), "--sigma", "0", "--duration", "60")
    code = run_cli("fit", "--input", str(raw), "--a0", "29")
    assert code == 4
    assert "a0" in capsys.readouterr().err


def test_fit_command_on_degenerate_csv_fails_cleanly(tmp_path, capsys):
    bad = tmp_path / "one.csv"
    bad.write_text("time_s,temp_c\n0,25\n")
    code = run_cli("fit", "--input", str(bad))
    err = capsys.readouterr().err
    assert code == 3
    assert "error:" in err
    assert "Traceback" not in err


def test_fit_command_missing_file_exit_code(tmp_path, capsys):
    code = run_cli("fit", "--input", str(tmp_path / "absent.csv"))
    assert code == 3
    assert "error:" in capsys.readouterr().err


def test_malformed_csv_exit_code_names_line(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("time_s,temp_c\n0,25\n0.01,oops\n")
    code = run_cli("fit", "--input", str(bad))
    err = capsys.readouterr().err
    assert code == 3
    assert "line 3" in err


@pytest.mark.parametrize(
    "data",
    [
        b"time_s,temp_c\n0,25\n0.01,2\xe95\n0.02,26\n",  # Latin-1 byte
        "time_s,temp_c\n0,25\n0.01,26\n0.02,27\n".encode("utf-16"),  # BOM
    ],
    ids=["latin-1", "utf-16"],
)
def test_non_utf8_csv_exit_code(tmp_path, capsys, data):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(data)
    code = run_cli("fit", "--input", str(bad))
    assert code == 3
    assert "not UTF-8" in capsys.readouterr().err


@pytest.mark.parametrize(
    "body, message",
    [
        ("-1.7e308,25\n0,26\n1.7e308,27\n", "time span"),
        ("-1.7e308,25\n1.7e308,26\n", "time span"),
        ("0,25\n5e-324,26\n1e-323,27\n", "rate must be positive and finite"),
    ],
    ids=["span-3-rows", "span-2-rows", "subnormal-spacing"],
)
def test_overflowing_time_axis_exit_code(tmp_path, capsys, body, message):
    bad = tmp_path / "huge.csv"
    bad.write_text("time_s,temp_c\n" + body)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run_cli("fit", "--input", str(bad))
    assert code == 4
    assert message in capsys.readouterr().err


def test_nonuniform_csv_exit_code(tmp_path, capsys):
    bad = tmp_path / "gappy.csv"
    bad.write_text("time_s,temp_c\n0,25\n1,25.1\n2,25.2\n3.5,25.3\n4,25.4\n")
    code = run_cli("fit", "--input", str(bad))
    assert code == 3
    assert "spacing" in capsys.readouterr().err


def test_singular_normal_matrix_exit_code(tmp_path, capsys):
    # a = b zeroes the rate column of the Jacobian
    raw = tmp_path / "raw.csv"
    run_cli("simulate", "--output", str(raw), "--duration", "60")
    code = run_cli("fit", "--input", str(raw), "--a0", "25", "--b0", "25",
                   "--c0", "0.01")
    assert code == 5
    assert "singular" in capsys.readouterr().err


def test_discretize_command_prints_pole_and_gain(capsys):
    code = run_cli(
        "discretize", "--gain", "1", "--tau", "10", "--ts", "1",
        "--method", "forward",
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "pole = 0.9" in out
    assert "0.1" in out


def test_discretize_unstable_forward_exit_code(capsys):
    code = run_cli(
        "discretize", "--gain", "1", "--tau", "10", "--ts", "25",
        "--method", "forward",
    )
    assert code == 4
    assert "unstable" in capsys.readouterr().err


def test_pipeline_command_artifacts_and_schema(tmp_path, capsys):
    outdir = tmp_path / "run"
    code = run_cli(
        "pipeline", "--output", str(outdir), "--format", "json", "--seed", "12",
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert REPORT_KEYS <= set(report)
    for name in ("raw.csv", "smoothed.csv", "overlay.csv", "report.json"):
        assert (outdir / name).exists(), name
    # artifacts are re-parseable by our own readers
    assert parse_csv(outdir / "raw.csv").n == 30001
    assert parse_csv(outdir / "smoothed.csv").n == 30001
    on_disk = json.loads((outdir / "report.json").read_text())
    assert on_disk == report
    # defaults recover the generator truth within the documented 2%
    assert abs(report["a"] - 30.0) / 30.0 < 0.02
    assert abs(report["b"] - 25.0) / 25.0 < 0.02
    assert abs(report["c"] - 0.01) / 0.01 < 0.02


def test_pipeline_smooths_once(tmp_path, monkeypatch, capsys):
    calls = []

    def counting(data, cfg):
        calls.append(cfg)
        return sg_smooth(data, cfg)

    monkeypatch.setattr(thermofit.pipeline, "sg_smooth", counting)
    monkeypatch.setattr(thermofit.cli, "sg_smooth", counting)
    outdir = tmp_path / "run"
    assert run_cli("pipeline", "--output", str(outdir), "--duration", "60") == 0
    capsys.readouterr()
    assert len(calls) == 1
    raw = parse_csv(outdir / "raw.csv")
    np.testing.assert_array_equal(
        parse_csv(outdir / "smoothed.csv").y, sg_smooth(raw.y, SGConfig(3, 901))
    )


def test_pipeline_without_output_leaves_no_directory(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    assert run_cli("pipeline", "--duration", "30", "--format", "json") == 0
    assert "c" in json.loads(capsys.readouterr().out)
    assert list(tmp_path.iterdir()) == []


def test_cli_import_does_not_load_scipy():
    src = str(Path(thermofit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    probe = "import sys, thermofit.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "False"


def test_env_seed_overrides_flag(tmp_path, monkeypatch):
    monkeypatch.setenv("THERMOFIT_SEED", "777")
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    run_cli("simulate", "--output", str(a), "--seed", "1", "--duration", "5")
    run_cli("simulate", "--output", str(b), "--seed", "2", "--duration", "5")
    assert a.read_text() == b.read_text()
    monkeypatch.delenv("THERMOFIT_SEED")
    run_cli("simulate", "--output", str(b), "--seed", "2", "--duration", "5")
    assert a.read_text() != b.read_text()


def test_env_seed_must_be_integer(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("THERMOFIT_SEED", "not-a-number")
    code = run_cli("simulate", "--output", str(tmp_path / "x.csv"))
    assert code == 4
    assert "THERMOFIT_SEED" in capsys.readouterr().err


def test_text_report_mirrors_json_fields(tmp_path, capsys):
    raw = tmp_path / "raw.csv"
    run_cli("simulate", "--output", str(raw), "--sigma", "0", "--duration", "60")
    run_cli("fit", "--input", str(raw), "--format", "text")
    out = capsys.readouterr().out
    for key in REPORT_KEYS:
        assert f"{key} = " in out


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as exc:
        run_cli("fit")  # --input is required
    assert exc.value.code == 2
