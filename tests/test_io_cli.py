"""CSV serialization and the command-line front end.

Proves:
 - write/parse round trips are value-exact and infer the rate;
 - every malformed-input class gets its own error, with line numbers for
   bad rows (blank lines counted) and non-increasing time; a row of 1 or 3
   fields is named by its field count, and a non-finite time exits 3 as a
   bad row, not 4 as a series that is not finite; an empty file
   and a header-only file raise without a NumPy warning, non-UTF-8 text
   exits 3, and a time axis whose span or rate overflows float64 exits 4
   without a warning;
 - a file with a UTF-8 byte-order mark and CRLF line ends reads and fits
   like the plain file, and names its bad rows by the same line numbers;
 - ``parse_csv`` reads a ``write_csv`` record and its byte-order mark and
   CRLF twin without the row loop, which only a bad body reaches;
 - both writers emit exactly one ``repr`` per value around the boundaries
   of their row blocks, for -0.0, subnormals, large and epoch values, and
   ``write_overlay`` formats a column passed twice once, counted in a
   forked writer child too;
 - all three writers give the same bytes with a forked child (one fork per
   call from 4 * _CHUNK_ROWS rows) and without ``os.fork``, around that
   size; without a fork each block is written before the next is
   formatted; columns of unequal length, or 2-d columns of one shape, raise
   CsvFormatError on both paths before a file is opened or a child forked;
   a child that fails raises OSError with its OSError's errno (ENOSPC on
   /dev/full) or 255 and makes the CLI exit 3, and one killed by a signal
   is named;
   a second thread or an ignored SIGCHLD keeps the write in one process,
   a fresh interpreter with BLAS pinned to one thread forks, once for all
   three files of a ``pipeline --output`` run, whose ``raw.csv`` parses back
   bit for bit to ``generate(spec)`` and whose smoothed and overlay files are
   what ``write_csv`` and ``write_overlay`` write from the run's record and
   fit (the shortest ``repr`` of each value round-trips), and so does one with both
   thread variables unset, because the CLI pins OpenBLAS; a user's
   ``OPENBLAS_NUM_THREADS`` or ``OMP_NUM_THREADS`` is kept; no child is
   left behind;
 - ``pipeline``'s one-pass raw, smoothed and overlay files are byte for
   byte what ``write_csv`` and ``write_overlay`` write from the same arrays,
   around the block boundaries, smoothed or not; a run formats each of its
   four columns once (4n floats) and a window-less ``fit --output`` 3n; a
   ``pipeline`` without ``--output`` formats no float and opens no file for
   writing, and its stdout is byte for byte the same as with ``--output``
   (default and slow-regime records);
 - ``pipeline --output`` reads no file back (``parse_csv`` is not called),
   and a run whose fit fails (exit 4) leaves its ``--output`` directory empty;
 - ``pipeline`` is ``generate`` then ``fit``: ``fit`` on its ``raw.csv`` with
   the same window and solver options prints its ``report.json`` and writes
   its ``overlay.csv`` byte for byte (defaults, raw with ``--max-iter 3``,
   every fit option set, and a window over half the record);
 - records with epoch timestamps survive the CSV round trip and fit like
   the same record at t = 0, through the library and the ``fit`` command;
 - each CLI command produces re-parseable artifacts and the documented
   exit codes (3 for any file-system error: an output or input path under
   a regular file, a ``pipeline`` output that is one, a full device, a
   name too long and a symlink loop; 4 for a generator sample count that
   is not finite or reaches 2**53, a negative seed, a NaN noise level, a
   non-finite solver option, a non-finite ``discretize`` parameter, a
   ``discretize`` result whose pole rounds to 1 or whose gain or delay
   overflows, and a ``smooth`` or ``fit`` filter whose design matrix
   overflows, which prints no NumPy warning), ``discretize`` exits 0
   with the exact model where tau + Ts or Ts / tau overflows but the
   result is representable, reports carry the stable JSON schema and parse
   as strict JSON (no NaN or Infinity, also when the damping saturates);
 - a ``fit`` whose ``1/c`` overflows exits 0 with null ``K``, ``tau`` and
   ``t_ambient``; a ``fit --p0`` of three rows exits 0 with ``dfe`` 0 and
   null ``rmse``, ``se`` and ``correlation``, which sit with ``resolution``
   between ``accepted_steps`` and ``warnings``; a ``fit --p0`` of a record
   of one value exits 0 with a null ``resolution`` and no range warning;
 - ``fit`` takes its start as one ``--p0 A B C``: a partial ``--p0`` and
   the generator's ``--a0/--b0/--c0`` are usage errors; a non-finite start
   or a bad window, order or solver setting exits 4 before the input is
   read, and a bad ``pipeline`` window or solver setting exits 4 before any
   file is written; both check the window before the solver settings;
 - a finite record near the float64 limit fails with one ``error:`` line
   and no NumPy warning: ``fit`` exits 5 with and without ``--p0`` and on
   finite levels whose step overflows, ``smooth`` exits 4, and a ``fit``
   whose total sum of squares underflows exits 4, as does one of a constant
   record whose level means round to every sample's one side of the 63% level;
 - ``python -m thermofit.cli``, its stdout and stderr redirected to files,
   gives the exit code, stdout and stderr of ``main`` in process for exits
   0, 2, 3, 4 and 5; it and ``thermofit.cli.run()``, the installed script's
   entry, print the same JSON as ``pipeline``'s ``report.json``; a stdout
   whose pipe has no reader exits 3 with one ``error:`` line naming the
   broken pipe, in either format, and no ``Exception ignored`` or traceback;
 - ``main`` exits with the ``exit_code`` of each class in ``errors.__all__``
   (3, 4 or 5), 3 on any ``OSError``, and lets a bare ``ValueError``
   propagate;
 - every ``thermofit`` line of README's CLI block runs and exits 0;
 - numeric options take negative numbers in scientific notation
   (``--gain -1e-3``, ``--b0 -2e1``), and ``-inf``, ``-Infinity`` and ``-nan``
   as numbers that exit 4 with the parameter's own message, written as
   ``--opt VALUE`` or ``--opt=VALUE``;
 - ``--seed`` alone sets the seed (a ``THERMOFIT_SEED`` in the environment
   changes no byte), and ``fit`` fits unweighted: ``--sigma`` is a usage
   error there;
 - ``pipeline`` smooths once and makes no temporary directory, a
   ``pipeline --output`` run in a fresh interpreter loads neither SciPy nor
   ``numpy.ma``, and one without ``--output`` in an interpreter started
   without ``site`` loads no ``tempfile``; there, neither ``import
   thermofit.cli`` nor a ``pipeline --output`` run loads ``pathlib``;
 - ``--help`` states each command's ``--window`` default: ``pipeline``
   smooths with 901 unless given 0, and ``fit`` fits raw when it is omitted.
"""

import errno
import json
import os
import shlex
import signal
import subprocess
import sys
import tempfile
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

import thermofit.cli
import thermofit.errors
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
    step_response,
    write_csv,
)
from thermofit.cli import main
from thermofit.sgolay import SGConfig, sg_smooth
from thermofit.io import _CHUNK_ROWS as CHUNK
from thermofit.io import (
    OVERLAY_HEADER,
    SERIES_HEADER,
    write_overlay,
    write_series_and_overlay,
)

REPORT_KEYS = {
    "a", "b", "c", "K", "tau", "t_ambient",
    "r_squared", "iterations", "converged", "lambda_final",
    "dfe", "sse", "rmse", "se", "correlation", "resolution",
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


def test_malformed_row_names_its_line(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("time_s,temp_c\n0,25\n0.01,25.1\n0.02,abc\n")
    with pytest.raises(CsvFormatError, match="line 4"):
        parse_csv(path)
    for row, fields in (("0.01", 1), ("0.01,25.1,7", 3)):
        path.write_text(f"time_s,temp_c\n0,25\n{row}\n")
        with pytest.raises(CsvFormatError, match="^line 3: expected two comma-separated "
                                                 f"fields, got {fields}$"):
            parse_csv(path)
    path.write_text("time_s,temp_c\n0,25\n\n0.01,abc\n")  # blank line 3
    with pytest.raises(CsvFormatError, match="line 4"):
        parse_csv(path)
    path.write_text("time_s,temp_c\n0,25\n\n0.01,25.1\n0.02,nan\n")
    with pytest.raises(CsvFormatError, match="line 5: non-finite"):
        parse_csv(path)
    # a non-finite time is a bad row (exit 3), not a series that is not finite (exit 4)
    for rows, bad in ((["0,25", "nan,25.1", "0.02,25.2"], 3),
                      (["0,25", "0.01,25.1", "inf,25.2"], 4)):
        path.write_text("\n".join(["time_s,temp_c", *rows, ""]))
        assert run_cli("fit", "--input", str(path)) == 3
        assert capsys.readouterr().err == (
            f"error: line {bad}: non-finite value in row {rows[bad - 2]!r}\n")


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


def test_empty_file_names_line_one(tmp_path, capsys):
    path = tmp_path / "empty.csv"
    path.write_bytes(b"")
    with pytest.raises(CsvFormatError, match="^line 1: empty file$"):
        parse_csv(path)
    assert run_cli("fit", "--input", str(path)) == 3
    assert "line 1: empty file" in capsys.readouterr().err


def test_bom_and_crlf_csv_reads_and_fits_like_the_plain_file(tmp_path, capsys):
    plain = tmp_path / "plain.csv"
    write_csv(plain, generate(SynthSpec(FitParams(30.0, 25.0, 0.1), rate=2.0,
                                        duration=19.5, noise_sigma=0.1)))
    excel = tmp_path / "excel.csv"
    excel.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes().replace(b"\n", b"\r\n"))
    a, b = parse_csv(plain), parse_csv(excel)
    assert a.n == b.n == 40
    np.testing.assert_array_equal(a.t, b.t)
    np.testing.assert_array_equal(a.y, b.y)
    assert a.rate == b.rate
    reports = []
    for path in (plain, excel):
        assert run_cli("fit", "--input", str(path)) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]
    # the row loop, which a bad row falls back to, reads the same lines
    excel.write_bytes(b"\xef\xbb\xbftime_s,temp_c\r\n0,25\r\n0.01,oops\r\n")
    with pytest.raises(CsvFormatError, match="^line 3: non-numeric"):
        parse_csv(excel)


def test_a_well_formed_body_never_reaches_the_row_loop(tmp_path, monkeypatch):
    # the row loop reads about half as fast as np.loadtxt, and a reader that sent
    # every body to it would give the same outcomes
    plain = tmp_path / "plain.csv"
    write_csv(plain, generate(SynthSpec(FitParams(30.0, 25.0, 0.1), rate=2.0,
                                        duration=19.5, noise_sigma=0.1)))
    excel = tmp_path / "excel.csv"
    excel.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes().replace(b"\n", b"\r\n"))
    want = parse_csv(plain)

    def row_loop(fh):
        raise AssertionError("the row loop read a well-formed body")

    monkeypatch.setattr(thermofit.io, "_parse_rows", row_loop)
    for path in (plain, excel):
        got = parse_csv(path)
        assert got.t.tobytes() == want.t.tobytes() and got.y.tobytes() == want.y.tobytes()
        assert got.rate == want.rate
    excel.write_bytes(b"\xef\xbb\xbftime_s,temp_c\r\n0,25\r\n0.01,oops\r\n")
    with pytest.raises(AssertionError, match="the row loop read"):
        parse_csv(excel)  # a bad row does reach the patched loop


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


def test_overlay_rejects_columns_of_unequal_length(tmp_path):
    t = np.arange(4) / 10.0
    with pytest.raises(CsvFormatError, match="share one length"):
        write_overlay(tmp_path / "overlay.csv", t, t, t, t[:3])


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


class _Tally:
    """A count kept as the length of an ``O_APPEND`` file, so that a forked
    writer child adds to it too."""

    def __init__(self, path):
        self.fd = os.open(path, os.O_RDWR | os.O_CREAT | os.O_APPEND | os.O_TRUNC)

    def add(self):
        os.write(self.fd, b".")

    def __len__(self):
        return os.fstat(self.fd).st_size

    def clear(self):
        os.ftruncate(self.fd, 0)


@pytest.fixture
def formatted(monkeypatch, tmp_path):
    """The number of floats that thermofit.io formats, in this process and in
    its writer children, counted by patching its ``repr``."""
    tally = _Tally(tmp_path / "formatted.tally")

    def counting(value):
        tally.add()
        return repr(value)

    monkeypatch.setattr(thermofit.io, "repr", counting, raising=False)
    yield tally
    os.close(tally.fd)


@pytest.mark.parametrize("n", [CHUNK - 1, CHUNK + 1, 2 * CHUNK + 1])
def test_write_overlay_formats_a_repeated_column_once(tmp_path, formatted, n):
    y = np.resize(np.array(SPECIAL_VALUES), n)
    t = 1.7e9 + 0.01 * np.arange(n)
    path = tmp_path / "overlay.csv"
    write_overlay(path, t, y, y, -y)
    assert len(formatted) == 3 * n
    assert path.read_bytes() == reference_csv(OVERLAY_HEADER, [t, y, y, -y]).encode()


# the rows from which a write shares its blocks with a forked child
FORK = 4 * CHUNK
TASKS = "/proc/self/task"


def counted_fork(monkeypatch, calls):
    """Count the writers' ``os.fork`` calls in ``calls``, and let the writers see
    this process as one thread: a test process may run BLAS threads.  The fork
    beside them is the test's own doing, so Python 3.12+'s warning of it is
    silenced here (the child only formats and writes text)."""
    fork, listdir = os.fork, os.listdir

    def counting():
        calls.append(None)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            return fork()

    monkeypatch.setattr(os, "fork", counting)
    monkeypatch.setattr(os, "listdir", lambda p: ["1"] if p == TASKS else listdir(p))


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture(params=["forked", "in-process"])
def forks(request, monkeypatch):
    """The ``os.fork`` calls of the writers, on one of their two paths: with a
    counted ``os.fork`` or without one.  Afterwards no child is left."""
    calls = []
    if request.param == "in-process":
        monkeypatch.delattr(os, "fork")
    else:
        counted_fork(monkeypatch, calls)
    yield calls
    no_child_left()


def overlay_columns(n):
    y = np.resize(np.array(SPECIAL_VALUES), n)
    return [1.7e9 + 0.01 * np.arange(n), y, np.sqrt(np.abs(y)), -y]


@pytest.mark.parametrize("n", [2 * CHUNK + 1, FORK - 1, FORK, FORK + 1, 2 * FORK + 3])
def test_writers_write_the_same_bytes_forked_and_in_process(tmp_path, forks, n):
    t, y, s, f = overlay_columns(n)
    want = {"raw.csv": reference_csv(SERIES_HEADER, [t, y]).encode(),
            "smoothed.csv": reference_csv(SERIES_HEADER, [t, s]).encode(),
            "overlay.csv": reference_csv(OVERLAY_HEADER, [t, y, s, f]).encode()}
    write_csv(tmp_path / "raw.csv", TimeSeries(t, y, 100.0))
    write_overlay(tmp_path / "overlay.csv", t, y, s, f)
    for name in ("raw.csv", "overlay.csv"):
        assert (tmp_path / name).read_bytes() == want[name], name
    one_pass = tmp_path / "one-pass"
    one_pass.mkdir()
    write_series_and_overlay(one_pass / "raw.csv", one_pass / "smoothed.csv",
                             one_pass / "overlay.csv", t, y, s, f)
    for name in want:
        assert (one_pass / name).read_bytes() == want[name], name
    forked = hasattr(os, "fork") and n >= FORK  # the fixture may delete it
    assert len(forks) == (3 if forked else 0)  # one per writer call


@pytest.mark.parametrize("n", [FORK - 1, FORK + 1])
def test_a_forked_write_formats_a_repeated_column_once(tmp_path, forks, formatted, n):
    t, y, _, f = overlay_columns(n)
    write_overlay(tmp_path / "overlay.csv", t, y, y, f)
    assert len(formatted) == 3 * n
    want = reference_csv(OVERLAY_HEADER, [t, y, y, f]).encode()
    assert (tmp_path / "overlay.csv").read_bytes() == want


def test_columns_of_unequal_length_are_rejected_on_both_paths(tmp_path, forks):
    t, y, s, f = overlay_columns(FORK + 1)
    with pytest.raises(CsvFormatError, match="share one length"):
        write_series_and_overlay(tmp_path / "raw.csv", tmp_path / "smoothed.csv",
                                 tmp_path / "overlay.csv", t, y, s[:-1], f)
    with pytest.raises(CsvFormatError, match="must be 1-d and share one length"):
        write_series_and_overlay(tmp_path / "raw.csv", tmp_path / "smoothed.csv",
                                 tmp_path / "overlay.csv",
                                 *(column[:, None] for column in (t, y, s, f)))
    assert forks == []
    assert list(tmp_path.iterdir()) == []


class _Logged:
    """A file open for writing that logs, at each write, the floats formatted so
    far and the lines written."""

    def __init__(self, fh, log, formatted):
        self.fh, self.log, self.formatted = fh, log, formatted

    def write(self, text):
        self.log.append((len(self.formatted), text.count("\n")))
        return self.fh.write(text)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


def test_an_unforked_write_holds_one_block_at_a_time(tmp_path, monkeypatch, formatted):
    logs = {}

    def logged_open(path, mode="r", *args, **kwargs):
        fh = open(path, mode, *args, **kwargs)
        return _Logged(fh, logs.setdefault(Path(path).name, []), formatted) if (
            "w" in mode) else fh

    monkeypatch.delattr(os, "fork")
    monkeypatch.setattr(thermofit.io, "open", logged_open, raising=False)
    t, y, s, f = overlay_columns(2 * FORK + 3)
    write_series_and_overlay(tmp_path / "raw.csv", tmp_path / "smoothed.csv",
                             tmp_path / "overlay.csv", t, y, s, f)
    assert set(logs) == {"raw.csv", "smoothed.csv", "overlay.csv"}
    for name, log in logs.items():
        # four floats a row; each block is written before the next is formatted
        rows = np.cumsum([lines for _, lines in log]) - 1  # after the header
        assert [count for count, _ in log] == (4 * rows).tolist(), name
        assert len(log) == 1 + -(-(2 * FORK + 3) // CHUNK)  # the header and 9 blocks


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork on this system")
def test_a_failing_writer_child_raises_oserror_and_exits_3(tmp_path, monkeypatch,
                                                           capsys):
    parent, calls = os.getpid(), []
    counted_fork(monkeypatch, calls)

    def parent_only(value):
        if os.getpid() != parent:
            raise RuntimeError("formatted in the child")
        return repr(value)

    monkeypatch.setattr(thermofit.io, "repr", parent_only, raising=False)
    with pytest.raises(OSError, match="in a writer child") as info:
        write_overlay(tmp_path / "overlay.csv", *overlay_columns(FORK))
    assert info.value.errno == 255  # not an OSError in the child
    sim = tmp_path / "sim.csv"
    assert run_cli("simulate", "--duration", "200", "--output", str(sim)) == 3
    assert "in a writer child" in capsys.readouterr().err
    assert len(calls) == 2
    no_child_left()


@pytest.mark.skipif(not (hasattr(os, "fork") and os.path.exists("/dev/full")),
                    reason="no os.fork or no /dev/full on this system")
def test_a_writer_child_passes_its_errno_on(monkeypatch, capsys):
    calls = []
    counted_fork(monkeypatch, calls)
    with pytest.raises(OSError) as info:
        write_overlay("/dev/full", *overlay_columns(FORK))
    assert info.value.errno == errno.ENOSPC
    assert run_cli("simulate", "--duration", "200", "--output", "/dev/full") == 3
    assert "No space left on device" in capsys.readouterr().err
    assert len(calls) == 2
    no_child_left()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork on this system")
def test_a_writer_child_killed_by_a_signal_is_named(tmp_path, monkeypatch):
    parent, calls = os.getpid(), []
    counted_fork(monkeypatch, calls)

    def killed_in_the_child(value):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return repr(value)

    monkeypatch.setattr(thermofit.io, "repr", killed_in_the_child, raising=False)
    with pytest.raises(OSError, match=f"killed by signal {int(signal.SIGKILL)} in a "
                                      "writer child") as info:
        write_overlay(tmp_path / "overlay.csv", *overlay_columns(FORK))
    assert info.value.errno == -signal.SIGKILL
    assert len(calls) == 1
    no_child_left()


def test_a_second_thread_keeps_the_write_in_process(tmp_path, monkeypatch):
    def no_fork():
        raise AssertionError("forked beside a second thread")

    monkeypatch.setattr(os, "fork", no_fork)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        cols = overlay_columns(2 * FORK + 3)
        write_overlay(tmp_path / "overlay.csv", *cols)
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    want = reference_csv(OVERLAY_HEADER, cols).encode()
    assert (tmp_path / "overlay.csv").read_bytes() == want


@pytest.mark.skipif(not hasattr(signal, "SIGCHLD"), reason="no SIGCHLD on this system")
def test_an_ignored_sigchld_keeps_the_write_in_process(tmp_path, monkeypatch):
    calls = []
    counted_fork(monkeypatch, calls)
    cols = overlay_columns(2 * FORK + 3)
    previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    try:
        write_overlay(tmp_path / "overlay.csv", *cols)
    finally:
        signal.signal(signal.SIGCHLD, previous)
    assert calls == []
    want = reference_csv(OVERLAY_HEADER, cols).encode()
    assert (tmp_path / "overlay.csv").read_bytes() == want


@pytest.mark.skipif(not (hasattr(os, "fork") and os.path.isdir(TASKS)),
                    reason="no os.fork or no /proc/self/task on this system")
def test_a_process_of_one_thread_forks_its_long_writes(tmp_path):
    # a fresh interpreter with BLAS pinned to one thread, as perfbench runs
    script = f"""if True:
        import os, sys
        import thermofit.io as io
        import numpy as np
        threads, forks, fork = len(os.listdir({TASKS!r})), [], os.fork
        os.fork = lambda: forks.append(None) or fork()
        n = int(sys.argv[1])
        t = 1.7e9 + 0.01 * np.arange(n)
        io.write_overlay(sys.argv[2], t, np.sin(t), np.cos(t), -t)
        print(threads, len(forks))
    """
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(sys.path))
    for n, path in [(FORK - 1, tmp_path / "short.csv"), (FORK, tmp_path / "long.csv")]:
        out = subprocess.run([sys.executable, "-c", script, str(n), str(path)], env=env,
                             capture_output=True, text=True, check=True).stdout
        threads, forked = map(int, out.split())
        assert forked == (1 if threads == 1 and n >= FORK else 0), (n, threads)
        t = 1.7e9 + 0.01 * np.arange(n)
        want = reference_csv(OVERLAY_HEADER, [t, np.sin(t), np.cos(t), -t]).encode()
        assert path.read_bytes() == want


@pytest.mark.skipif(not (hasattr(os, "fork") and os.path.isdir(TASKS)),
                    reason="no os.fork or no /proc/self/task on this system")
def test_a_pipeline_run_forks_once(tmp_path):
    # a fresh interpreter with BLAS pinned to one thread, as perfbench runs; with
    # both thread variables unset, as a user runs, the CLI pins OpenBLAS itself;
    # a thread count the user set wins
    script = f"""if True:
        import os, sys
        import thermofit.cli as cli
        threads, forks, fork = len(os.listdir({TASKS!r})), [], os.fork
        os.fork = lambda: forks.append(None) or fork()
        code = cli.main(sys.argv[1:])
        blas = os.environ.get("OPENBLAS_NUM_THREADS", "unset")
        print(code, threads, len(forks), blas, file=sys.stderr)
    """
    unset = {k: v for k, v in os.environ.items()
             if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    pinned = dict(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cases = ((pinned, "1"), ({}, "1"), ({"OPENBLAS_NUM_THREADS": "2"}, "2"),
             ({"OMP_NUM_THREADS": "2"}, "unset"))
    for i, (extra, blas) in enumerate(cases):
        out = tmp_path / str(i)
        env = dict(unset, **extra, PYTHONPATH=os.pathsep.join(sys.path))
        argv = ["pipeline", "--rate", "1", "--duration", str(FORK - 1), "--window", "0",
                "--output", str(out), "--format", "json"]
        ran = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                             capture_output=True, text=True, check=True)
        code, threads, forked, seen = ran.stderr.split()[-4:]
        assert (code, seen) == ("0", blas), extra
        # one write of all three files
        assert int(forked) == (1 if threads == "1" else 0), (extra, threads)
        for name in ("raw.csv", "smoothed.csv", "overlay.csv"):
            assert len((out / name).read_bytes().splitlines()) == 1 + FORK, name
        if extra is pinned:
            pinned_run = out, strict_json(ran.stdout)
    # the pinned run's files hold its record and its fit bit for bit
    out, report = pinned_run
    ts = generate(SynthSpec(FitParams(30.0, 25.0, 0.01), 1.0, FORK - 1, 0.5, 0))
    back = parse_csv(out / "raw.csv")
    assert (back.t.tobytes(), back.y.tobytes()) == (ts.t.tobytes(), ts.y.tobytes())
    fit = FitParams(report["a"], report["b"], report["c"])
    write_csv(tmp_path / "smoothed.csv", ts)  # --window 0: smoothed is raw
    write_overlay(tmp_path / "overlay.csv", ts.t, ts.y, ts.y,
                  step_response(fit, ts.t - ts.t[0]))
    for name in ("smoothed.csv", "overlay.csv"):
        assert (out / name).read_bytes() == (tmp_path / name).read_bytes(), name


# ----------------------------------------------------------------------- cli


def run_cli(*argv):
    return main(list(argv))


def child_env():
    """This interpreter's environment for a ``thermofit`` child that imports this
    checkout and buffers its stdout as a user's run does (no PYTHONUNBUFFERED)."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return dict(env, PYTHONPATH=str(Path(thermofit.__file__).resolve().parents[1]))


def command(tmp_path, *argv, run=False):
    """Exit code, stdout and stderr of ``python -m thermofit.cli *argv`` in
    ``tmp_path`` or, with ``run``, of a script that calls ``thermofit.cli.run()``
    as the installed ``thermofit`` does.  Both streams go to files, so stdout is
    buffered in blocks, as perfbench runs the command."""
    launcher = (["-c", "import sys, thermofit.cli; sys.argv[0] = 'thermofit'; "
                 "thermofit.cli.run()"] if run else ["-m", "thermofit.cli"])
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        code = subprocess.run([sys.executable, *launcher, *argv], cwd=tmp_path,
                              env=child_env(), stdout=out, stderr=err).returncode
        out.seek(0), err.seek(0)
        return code, out.read().decode(), err.read().decode()


def in_process(tmp_path, monkeypatch, capsys, *argv):
    """What ``command`` returns, from ``main`` in this process."""
    monkeypatch.chdir(tmp_path)
    try:
        code = main(list(argv))
    except SystemExit as exc:  # a usage error, from argparse
        code = exc.code
    return code, *capsys.readouterr()


def _reject_constant(name):
    raise ValueError(f"{name} is not RFC 8259 JSON")


def strict_json(text):
    """Parse a CLI JSON report, rejecting NaN and Infinity as jq does."""
    return json.loads(text, parse_constant=_reject_constant)


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
    report = strict_json(capsys.readouterr().out)
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
    report = strict_json(capsys.readouterr().out)
    assert report["a"] == pytest.approx(30.0, rel=1e-6)
    assert report["c"] == pytest.approx(0.01, rel=1e-6)
    rows = np.array(
        [line.split(",") for line in overlay.read_text().split("\n")[1:-1]],
        dtype=float,
    )
    np.testing.assert_array_equal(rows[:, 0], clean.t + 1e4)
    np.testing.assert_allclose(rows[:, 3], clean.y, atol=1e-6)


def test_fit_command_saturated_damping_report_is_strict_json(tmp_path, capsys):
    # lambda0 = 1e308 rejects the first step; the damping then stays at the
    # largest finite float instead of printing Infinity, which is not JSON
    raw = tmp_path / "raw.csv"
    run_cli("simulate", "--output", str(raw), "--duration", "60")
    code = run_cli("fit", "--input", str(raw), "--lambda0", "1e308", "--format", "json")
    assert code == 0
    report = strict_json(capsys.readouterr().out)
    assert report["lambda_final"] == np.finfo(float).max


def test_fit_command_reports_no_process_where_tau_overflows(tmp_path, capsys):
    # the run stops at p0, where tau = 1/c is beyond float64: the fit is
    # reported with null process parameters instead of exit 4
    raw = tmp_path / "r.csv"
    run_cli("simulate", "--rate", "10", "--sigma", "0.05", "--output", str(raw))
    code = run_cli(
        "fit", "--input", str(raw), "--p0", "30", "25", "1e-310",
        "--tol-grad", "1e300", "--format", "json",
    )
    assert code == 0
    report = strict_json(capsys.readouterr().out)
    assert report["c"] == 1e-310
    assert report["K"] is report["tau"] is report["t_ambient"] is None
    assert "tau must be finite; no process parameters derived" in report["warnings"]


def test_fit_command_on_three_rows_reports_no_uncertainty(tmp_path, capsys):
    # three rows fit the three parameters exactly and leave no degree of freedom
    raw = tmp_path / "three.csv"
    raw.write_text("time_s,temp_c\n0,30\n1,27\n2,26\n")
    code = run_cli("fit", "--input", str(raw), "--p0", "30", "25", "0.5",
                   "--format", "json")
    assert code == 0
    report = strict_json(capsys.readouterr().out)
    assert list(report)[-8:] == ["accepted_steps", "dfe", "sse", "rmse", "se",
                                 "correlation", "resolution", "warnings"]
    assert report["dfe"] == 0
    assert report["resolution"] == 1.0  # the gap between 26 and 27
    assert report["rmse"] is report["se"] is report["correlation"] is None


def test_fit_command_on_a_record_of_one_value_reports_no_resolution(tmp_path, capsys):
    # smoothing leaves ulp-level spread, so R^2 is defined; the raw record has
    # no gap between distinct values, and the fitted ends, a few ulps off
    # 25.3, stay within the range check's slack of 1e-12 of the magnitude
    raw = tmp_path / "c.csv"
    raw.write_text("time_s,temp_c\n" + "".join(f"{0.5 * i!r},25.3\n" for i in range(40)))
    code = run_cli("fit", "--input", str(raw), "--p0", "30", "25", "0.1",
                   "--window", "5", "--format", "json")
    assert code == 0
    report = strict_json(capsys.readouterr().out)
    assert "resolution" in report and report["resolution"] is None
    assert not [w for w in report["warnings"] if "outside the data range" in w]


def test_fit_command_starting_override_requires_all_three(tmp_path, capsys):
    # --a0/--b0/--c0 are the generator truth; fit takes its start as --p0
    raw = tmp_path / "raw.csv"
    run_cli("simulate", "--output", str(raw), "--sigma", "0", "--duration", "60")
    for argv, message in ((("--p0", "29"), "--p0: expected 3 arguments"),
                          (("--a0", "29", "--b0", "26", "--c0", "0.005"),
                           "unrecognized arguments: --a0")):
        with pytest.raises(SystemExit) as exc:
            run_cli("fit", "--input", str(raw), *argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err


def test_fit_command_checks_the_start_before_reading_the_file(tmp_path, capsys):
    code = run_cli("fit", "--input", str(tmp_path / "missing.csv"),
                   "--p0", "nan", "25", "0.01")
    assert code == 4
    assert "error: a must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (("--max-iter", "0"), "max_iter must be at least 1"),
    (("--tol-grad", "nan"), "tol_grad must be positive and finite"),
    (("--lambda0", "-1"), "lambda0 must be non-negative and finite"),
    (("--window", "4"), "window must be an odd integer >= 3, got 4"),
    (("--order", "5", "--window", "5"),
     "order must satisfy 0 <= order < window, got order=5, window=5"),
    (("--window", "4", "--max-iter", "0"), "window must be an odd integer >= 3, got 4"),
], ids=["max-iter-0", "tol-grad-nan", "lambda0-negative", "even-window",
        "order-not-below-window", "window-before-max-iter"])
def test_fit_command_checks_the_solver_settings_before_reading_the_file(
        tmp_path, capsys, argv, message):
    code = run_cli("fit", "--input", str(tmp_path / "missing.csv"), *argv)
    assert code == 4
    assert f"error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("argv, code, message", [
    (("fit", "--input", "big.csv"), 5, "start or end level overflows float64"),
    (("fit", "--input", "big.csv", "--p0", "1.5e308", "1e308", "0.1"), 5,
     "starting cost is not finite in float64"),
    (("smooth", "--input", "max.csv", "--output", "out.csv", "--window", "21"), 4,
     "t and y must be finite"),
    (("fit", "--input", "tiny.csv", "--p0", "3e-199", "2.5e-199", "0.1"), 4,
     "total sum of squares underflows float64"),
    (("fit", "--input", "flat-10.csv"), 4,
     "constant series has zero total sum of squares"),
    (("fit", "--input", "flat-60.csv"), 4,
     "constant series has zero total sum of squares"),
    (("fit", "--input", "span.csv"), 5, "start or end level overflows float64"),
], ids=["fit", "fit-p0", "smooth", "fit-tiny", "fit-flat-10", "fit-flat-60",
        "fit-span"])
def test_record_near_the_float64_limit_exits_without_a_warning(
        tmp_path, monkeypatch, capsys, argv, code, message):
    # finite records whose level means (fit) or SG sums (smooth) overflow, or
    # whose squared spread, which R^2 divides by, underflows (fit-tiny); the
    # command and main in process end alike.  The constant records' level
    # means round apart, so every sample lies before (flat-10) or past
    # (flat-60) the 63% level; span's levels are finite but their step is not
    t = 0.5 * np.arange(40)
    big = 1e308 * (0.5 * np.exp(-0.1 * t) + 1)
    near_max = np.where(t < 2.5, 1.6e308, 1.7e308)
    tiny = 1e-200 * (5 * np.exp(-0.1 * t) + 25)
    write_csv(tmp_path / "big.csv", TimeSeries(t, big, 2.0))
    write_csv(tmp_path / "max.csv", TimeSeries(t, near_max, 2.0))
    write_csv(tmp_path / "tiny.csv", TimeSeries(t, tiny, 2.0))
    for name, value, n in (("flat-10", 6.435101787974751e16, 10),
                           ("flat-60", 3002399751580331.0, 60)):
        flat = TimeSeries(0.5 * np.arange(n), np.full(n, value), 2.0)
        write_csv(tmp_path / f"{name}.csv", flat)
    span = np.where(t[:20] < 2.5, -3e307, 1.7e308)
    write_csv(tmp_path / "span.csv", TimeSeries(t[:20], span, 2.0))
    want = (code, "", f"error: {message}\n")
    assert command(tmp_path, *argv) == want
    assert in_process(tmp_path, monkeypatch, capsys, *argv) == want


@pytest.mark.parametrize("argv, code", [
    (("discretize", "--gain", "2", "--tau", "10", "--method", "tustin", "--ts", "1"), 0),
    (("fit",), 2),  # --input is required
    (("fit", "--input", "absent.csv"), 3),
], ids=["exit-0", "exit-2", "exit-3"])
def test_the_command_ends_as_main_returns(tmp_path, monkeypatch, capsys, argv, code):
    # exits 4 and 5: test_record_near_the_float64_limit_exits_without_a_warning
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage to this width
    want = in_process(tmp_path, monkeypatch, capsys, *argv)
    assert want[0] == code
    assert command(tmp_path, *argv) == want


@pytest.mark.parametrize("run", [False, True], ids=["module", "run"])
def test_the_command_prints_the_report_it_writes(tmp_path, run):
    code, out, err = command(tmp_path, "pipeline", "--output", "d", "--format", "json",
                             run=run)
    assert (code, err) == (0, "")
    assert out == (tmp_path / "d" / "report.json").read_text(encoding="utf-8")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_a_closed_stdout_exits_3(fmt):
    # a pipe whose reader has gone, as in ``thermofit ... | true``; main flushes
    # the report, so the write fails inside it rather than in the teardown
    argv = ["discretize", "--gain", "1", "--tau", "10", "--method", "tustin",
            "--ts", "1", "--format", fmt]
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-m", "thermofit.cli", *argv],
                              env=child_env(), stdout=write, stderr=subprocess.PIPE,
                              text=True)
    finally:
        os.close(write)
    assert proc.returncode == 3
    [line] = proc.stderr.splitlines()
    assert line.startswith("error: ") and "Broken pipe" in line
    assert "Exception ignored" not in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize("command", ["smooth", "fit"])
def test_overflowing_filter_design_exit_code(tmp_path, command):
    # a real process, so a NumPy warning would reach stderr as the user sees it
    raw = tmp_path / "raw.csv"
    assert run_cli("simulate", "--output", str(raw), "--duration", "30") == 0
    argv = [sys.executable, "-m", "thermofit.cli", command, "--input", str(raw),
            "--output", str(tmp_path / "out.csv"), "--window", "301", "--order", "299"]
    proc = subprocess.run(argv, env=child_env(), capture_output=True, text=True)
    assert proc.returncode == 4
    assert "numerically singular for order=299, window=301" in proc.stderr
    assert "RuntimeWarning" not in proc.stderr


EXIT_CODES = {
    "ThermofitError": 4, "InvalidParameterError": 4, "UnstableDiscretizationError": 4,
    "FilterConfigError": 4, "DataLengthError": 4, "FlatSeriesError": 4,
    "SingularEquationsError": 5,
    "CsvFormatError": 3, "NonMonotoneTimeError": 3, "NonUniformSamplingError": 3,
}


@pytest.mark.parametrize("exc", [
    *(getattr(thermofit.errors, name)("boom") for name in thermofit.errors.__all__),
    OSError("boom"), BrokenPipeError(errno.EPIPE, "boom"),
], ids=lambda exc: type(exc).__name__)
def test_each_error_class_exits_with_its_code(monkeypatch, capsys, exc):
    def failing(args):
        raise exc

    monkeypatch.setattr(thermofit.cli, "_cmd_fit", failing)
    code = main(["fit", "--input", "x"])
    want = 3 if isinstance(exc, OSError) else EXIT_CODES[type(exc).__name__]
    assert code == want
    assert capsys.readouterr().err == f"error: {exc}\n"


def test_an_error_outside_the_hierarchy_propagates(monkeypatch):
    def failing(args):
        raise ValueError("a bug")

    monkeypatch.setattr(thermofit.cli, "_cmd_fit", failing)
    with pytest.raises(ValueError, match="a bug"):
        main(["fit", "--input", "x"])


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


@pytest.mark.parametrize("argv", [
    ("pipeline", "--duration", "5", "--output", "{f}"),  # FileExistsError
    ("pipeline", "--duration", "5", "--output", "{f}/sub"),  # NotADirectoryError
    ("simulate", "--duration", "5", "--output", "{f}/x.csv"),  # NotADirectoryError
    ("fit", "--input", "{f}/x.csv"),  # NotADirectoryError
    pytest.param(("simulate", "--duration", "5", "--output", "/dev/full"),  # ENOSPC
                 marks=pytest.mark.skipif(not os.path.exists("/dev/full"),
                                          reason="no /dev/full on this system")),
    ("simulate", "--duration", "5", "--output", "{d}/" + "x" * 300),  # ENAMETOOLONG
    ("fit", "--input", "{d}/loop"),  # ELOOP
], ids=["pipeline-output-is-a-file", "pipeline-output-under-a-file",
        "simulate-output-under-a-file", "fit-input-under-a-file",
        "simulate-output-no-space", "simulate-output-name-too-long",
        "fit-input-symlink-loop"])
def test_file_system_errors_exit_3(tmp_path, capsys, argv):
    regular = tmp_path / "regular"
    regular.write_text("not a directory\n")
    (tmp_path / "loop").symlink_to(tmp_path / "loop-back")
    (tmp_path / "loop-back").symlink_to(tmp_path / "loop")
    code = run_cli(*(arg.format(f=regular, d=tmp_path) for arg in argv))
    err = capsys.readouterr().err
    assert code == 3
    assert "error:" in err


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
    code = run_cli("fit", "--input", str(raw), "--p0", "25", "25", "0.01")
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


@pytest.mark.parametrize("argv", [
    ("simulate", "--rate", "inf"),
    ("simulate", "--duration", "inf"),
    ("simulate", "--rate", "1e308", "--duration", "1e308"),
    ("pipeline", "--rate", "inf"),
    ("pipeline", "--duration", "inf"),
    ("pipeline", "--rate", "1e308", "--duration", "1e308"),
    ("simulate", "--rate", "1e150", "--duration", "1e150"),
    ("simulate", "--rate", "1", "--duration", "9007199254740992"),  # 2**53
    ("pipeline", "--rate", "1e150", "--duration", "1e150"),
    ("pipeline", "--rate", "1", "--duration", "9007199254740992"),
], ids=["simulate-rate", "simulate-duration", "simulate-overflow",
        "pipeline-rate", "pipeline-duration", "pipeline-overflow",
        "simulate-count-1e300", "simulate-count-2**53",
        "pipeline-count-1e300", "pipeline-count-2**53"])
def test_non_finite_sample_count_exit_code(tmp_path, capsys, argv):
    out = tmp_path / "out"
    target = out / "x.csv" if argv[0] == "simulate" else out
    code = run_cli(*argv, "--output", str(target))
    assert code == 4
    assert "error: duration * rate must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ("--tau", "inf", "--method", "forward"),
    ("--dead-time", "inf"),
    ("--dead-time", "nan"),
    ("--ts", "inf"),
    ("--gain", "nan"),
], ids=["tau-inf-forward", "dead-time-inf", "dead-time-nan", "ts-inf", "gain-nan"])
def test_discretize_non_finite_parameter_exit_code(capsys, argv):
    # argparse keeps the last value of an option given twice
    code = run_cli("discretize", "--gain", "1", "--tau", "10", "--ts", "1",
                   "--method", "tustin", *argv)
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert "must be finite" in captured.err


@pytest.mark.parametrize("argv", [
    ("--gain", "1", "--tau", "10", "--ts", "1e-300", "--method", "tustin",
     "--dead-time", "1e300"),
    ("--gain", "1e308", "--tau", "1e-308", "--ts", "1", "--method", "tustin"),
    ("--gain", "1", "--tau", "10", "--ts", "1e-15", "--method", "tustin"),
    ("--gain", "1", "--tau", "1e10", "--ts", "1e-300", "--method", "tustin"),
    ("--gain", "1", "--tau", "1e10", "--ts", "1e-300", "--method", "forward"),
    ("--gain", "1", "--tau", "1e10", "--ts", "1e-300", "--method", "backward"),
], ids=["delay-overflows", "dc-gain-overflows", "tustin-pole-rounds-to-1",
        "tiny-ts-tustin", "tiny-ts-forward", "tiny-ts-backward"])
def test_discretize_result_outside_float64_exit_code(capsys, argv):
    code = run_cli("discretize", *argv)
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert "error: pole rounds to 1 or a ratio overflows float64" in captured.err


@pytest.mark.parametrize("method, tau, ts, num, pole", [
    ("backward", "1e308", "1e308", [0.5], 0.5),
    ("tustin", "1e308", "1e308", [1 / 3, 1 / 3], 1 / 3),
    ("backward", "1e-300", "1e10", [1.0], 1e-310),
    ("tustin", "1e-300", "1e10", [1.0, 1.0], -1.0),
], ids=["huge-backward", "huge-tustin", "tiny-tau-backward", "tiny-tau-tustin"])
def test_discretize_extreme_but_representable_exit_code(capsys, method, tau, ts,
                                                        num, pole):
    # tau/Ts is computed once, so neither tau + Ts overflowing nor Ts/tau
    # overflowing turns a representable model into an error
    code = run_cli("discretize", "--gain", "1", "--tau", tau, "--ts", ts,
                   "--method", method, "--format", "json")
    assert code == 0
    d = strict_json(capsys.readouterr().out)
    assert d["num"] == pytest.approx(num, rel=1e-15)
    assert d["pole"] == pytest.approx(pole, rel=1e-15)
    assert d["dc_gain"] == pytest.approx(1.0, rel=1e-15)


_DISCRETIZE = ("--tau", "10", "--ts", "1", "--method", "tustin")
_NON_FINITE = ("-inf", "-Infinity", "-nan")


@pytest.mark.parametrize("argv, message", [
    (("discretize", "--gain", "-1e-3", *_DISCRETIZE), None),
    (("simulate", "--b0", "-2e1", "--sigma", "0"), None),
    (("pipeline", "--b0", "-2e1", "--window", "0"), None),
    *((("simulate", "--a0", v), "a must be finite") for v in _NON_FINITE),
    *((("fit", "--p0", v, "25", "0.01"), "a must be finite") for v in _NON_FINITE),
    *((("discretize", "--gain", v, *_DISCRETIZE), "gain must be finite")
      for v in _NON_FINITE),
], ids=["discretize-gain", "simulate-b0", "pipeline-b0",
        *(f"{cmd}-{v}" for cmd in ("simulate-a0", "fit-p0", "discretize-gain")
          for v in _NON_FINITE)])
def test_negative_scientific_notation_is_a_number(tmp_path, capsys, argv, message):
    # argparse's own negative-number pattern has no exponent, "inf" or "nan": with
    # it, "-1e-3" or "-inf" is taken for an option and the command exits 2
    raw = tmp_path / "raw.csv"
    output = {"simulate": ("--output", str(raw)),
              "fit": ("--input", str(raw))}.get(argv[0], ("--format", "json"))
    if message is not None:  # read as a number, then rejected as not finite
        command, option, value, *rest = argv
        forms = [(option, value), (f"{option}={value}",)]
        # --p0 takes three values, so it has no "=" form
        for form in forms[:1] if command == "fit" else forms:
            assert run_cli(command, *form, *rest, *output) == 4
            assert capsys.readouterr().err == f"error: {message}\n"
        assert not raw.exists()
        return
    assert run_cli(*argv, *output) == 0
    if argv[0] == "simulate":
        assert parse_csv(raw).y[-1] == pytest.approx(-20 + 50 * np.exp(-3))
        return
    d = strict_json(capsys.readouterr().out)
    if argv[0] == "discretize":
        assert all(n < 0 for n in d["num"])
        assert d["dc_gain"] == pytest.approx(-1e-3)
    else:
        assert d["b"] == pytest.approx(-20, abs=0.1)


@pytest.mark.parametrize("argv, message", [
    (("--seed", "-1"), "seed must be non-negative"),
    (("--sigma", "nan"), "noise_sigma must be non-negative and finite"),
], ids=["negative-seed", "nan-sigma"])
@pytest.mark.parametrize("command", ["simulate", "pipeline"])
def test_generator_setting_it_cannot_honour_exit_code(tmp_path, capsys, command, argv,
                                                      message):
    out = tmp_path / "out"
    target = out / "x.csv" if command == "simulate" else out
    code = run_cli(command, *argv, "--output", str(target))
    assert code == 4
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (("--window", "4"), "window must be an odd integer >= 3, got 4"),
    (("--max-iter", "0"), "max_iter must be at least 1"),
    (("--tol-grad", "nan"), "tol_grad must be positive and finite"),
    (("--window", "4", "--max-iter", "0"), "window must be an odd integer >= 3, got 4"),
], ids=["even-window", "max-iter-0", "tol-grad-nan", "window-before-max-iter"])
def test_pipeline_checks_every_setting_before_writing(tmp_path, capsys, argv, message):
    out = tmp_path / "d"
    code = run_cli("pipeline", "--duration", "5", "--output", str(out), *argv)
    assert code == 4
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (("--lambda0", "nan"), "lambda0 must be non-negative and finite"),
    (("--tol-grad", "inf"), "tol_grad must be positive and finite"),
], ids=["lambda0-nan", "tol-grad-inf"])
def test_non_finite_solver_option_exit_code(tmp_path, capsys, argv, message):
    raw = tmp_path / "raw.csv"
    assert run_cli("simulate", "--output", str(raw), "--duration", "60") == 0
    code = run_cli("fit", "--input", str(raw), *argv)
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert f"error: {message}" in captured.err


@pytest.mark.parametrize("command, text", [
    ("pipeline", "smoothing window (odd sample count, default 901); 0 disables smoothing"),
    ("fit", "smoothing window (odd sample count); 0 or omitted disables smoothing"),
])
def test_help_states_the_window_default(capsys, command, text):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert text in " ".join(capsys.readouterr().out.split())


def test_pipeline_command_artifacts_and_schema(tmp_path, capsys):
    outdir = tmp_path / "run"
    code = run_cli(
        "pipeline", "--output", str(outdir), "--format", "json", "--seed", "12",
    )
    assert code == 0
    report = strict_json(capsys.readouterr().out)
    assert REPORT_KEYS <= set(report)
    for name in ("raw.csv", "smoothed.csv", "overlay.csv", "report.json"):
        assert (outdir / name).exists(), name
    # artifacts are re-parseable by our own readers
    assert parse_csv(outdir / "raw.csv").n == 30001
    assert parse_csv(outdir / "smoothed.csv").n == 30001
    on_disk = strict_json((outdir / "report.json").read_text())
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


@pytest.mark.parametrize("window", ["901", "0"])
@pytest.mark.parametrize("n", [CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1])
def test_pipeline_artifacts_match_the_writers(tmp_path, capsys, n, window):
    outdir = tmp_path / "run"
    argv = ["--rate", "1", "--duration", str(n - 1), "--window", window]
    assert run_cli("pipeline", "--output", str(outdir), *argv) == 0
    capsys.readouterr()
    ts = parse_csv(outdir / "raw.csv")
    assert ts.n == n
    smoothing = SGConfig(3, int(window)) if window != "0" else None
    report = fit_series(ts, smoothing=smoothing)
    write_csv(tmp_path / "raw.csv", ts)
    write_csv(tmp_path / "smoothed.csv", TimeSeries(ts.t, report.target, ts.rate))
    write_overlay(tmp_path / "overlay.csv", ts.t, ts.y, report.target, report.fitted)
    for name in ("raw.csv", "smoothed.csv", "overlay.csv"):
        assert (outdir / name).read_bytes() == (tmp_path / name).read_bytes(), name


def test_each_column_is_formatted_once(tmp_path, formatted, capsys):
    n = 3001
    assert run_cli("pipeline", "--output", str(tmp_path), "--duration", "30") == 0
    assert len(formatted) == 4 * n  # time, raw, smoothed, fitted
    formatted.clear()
    raw = tmp_path / "raw.csv"
    assert run_cli("fit", "--input", str(raw), "--output", str(tmp_path / "o.csv")) == 0
    assert len(formatted) == 3 * n  # smoothed is raw
    capsys.readouterr()


def test_pipeline_without_output_leaves_no_directory(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    assert run_cli("pipeline", "--duration", "30", "--format", "json") == 0
    assert "c" in strict_json(capsys.readouterr().out)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("output", [True, False], ids=["output", "no-output"])
def test_pipeline_makes_no_temporary_directory(tmp_path, monkeypatch, capsys, output):
    made, mkdtemp = [], tempfile.mkdtemp  # TemporaryDirectory makes its own through it

    def counted(*args, **kwargs):
        made.append(mkdtemp(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(tempfile, "mkdtemp", counted)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    argv = ["--output", str(tmp_path / "d")] if output else []
    assert run_cli("pipeline", "--duration", "30", *argv) == 0
    capsys.readouterr()
    assert made == []


def test_pipeline_without_output_writes_no_file(tmp_path, formatted, capsys):
    written, recording = [], [True]

    def hook(event, args):  # an audit hook stays for the session, so it is switched off
        if recording and (event == "os.mkdir" or event == "open"
                          and args[2] & (os.O_WRONLY | os.O_RDWR)):
            written.append(Path(args[0]).name)

    sys.addaudithook(hook)
    try:
        assert run_cli("pipeline", "--duration", "30") == 0
        assert (written, len(formatted)) == ([], 0)
        argv = ["--duration", "30", "--output", str(tmp_path / "d")]
        assert run_cli("pipeline", *argv) == 0
    finally:
        recording.clear()
    capsys.readouterr()
    assert written[0] == "d" and "raw.csv" in written  # the hook sees a writing run
    assert len(formatted) == 4 * 3001


def test_pipeline_output_reads_no_file_back(tmp_path, monkeypatch, capsys):
    parsed, read, recording = [], [], [True]

    def hook(event, args):  # an audit hook stays for the session, so it is switched off
        if recording and event == "open" and not args[2] & (os.O_WRONLY | os.O_RDWR):
            read.append(str(args[0]))

    monkeypatch.setattr(thermofit.cli, "parse_csv", lambda path: parsed.append(path))
    out = tmp_path / "d"
    sys.addaudithook(hook)
    try:
        assert run_cli("pipeline", "--duration", "30", "--output", str(out)) == 0
    finally:
        recording.clear()
    capsys.readouterr()
    assert parsed == []
    assert [p for p in read if p.startswith(str(out))] == []
    assert parse_csv(out / "raw.csv").n == 3001


def test_a_failed_pipeline_fit_leaves_the_output_directory_empty(tmp_path, capsys):
    out = tmp_path / "d"
    assert run_cli("pipeline", "--duration", "5", "--output", str(out)) == 4
    assert "error: need at least window=901 samples" in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("argv", [
    (),
    ("--c0", "0.004", "--duration", "750", "--seed", "5"),
], ids=["default", "slow"])
def test_pipeline_report_does_not_depend_on_output(tmp_path, capsys, argv):
    assert run_cli("pipeline", "--format", "json", *argv) == 0
    without = capsys.readouterr().out
    assert run_cli("pipeline", "--format", "json", "--output", str(tmp_path), *argv) == 0
    assert capsys.readouterr().out == without
    assert (tmp_path / "report.json").read_text() == without


_FIT_OPTS = ("--window", "51", "--order", "2", "--lambda0", "0", "--max-iter", "7",
             "--tol-grad", "1e-6")


@pytest.mark.parametrize("pipeline_argv, fit_argv", [
    ((), ("--window", "901")),
    (("--window", "0", "--max-iter", "3"), ("--window", "0", "--max-iter", "3")),
    (_FIT_OPTS, _FIT_OPTS),
    (("--duration", "20", "--rate", "10", "--window", "101"), ("--window", "101")),
], ids=["default", "raw-max-iter-3", "every-fit-option", "window-over-half"])
def test_pipeline_is_generate_then_fit(tmp_path, capsys, pipeline_argv, fit_argv):
    d = tmp_path / "d"
    assert run_cli("pipeline", "--output", str(d), "--format", "json",
                   *pipeline_argv) == 0
    capsys.readouterr()
    overlay = tmp_path / "o.csv"
    assert run_cli("fit", "--input", str(d / "raw.csv"), "--output", str(overlay),
                   "--format", "json", *fit_argv) == 0
    assert capsys.readouterr().out == (d / "report.json").read_text()
    assert overlay.read_bytes() == (d / "overlay.csv").read_bytes()


def test_pipeline_run_loads_neither_scipy_nor_numpy_ma(tmp_path):
    # io._median stands in for np.median, whose first call imports numpy.ma
    probe = ("import sys; from thermofit.cli import main; code = main(sys.argv[1:]); "
             "print(code, *(m in sys.modules for m in ('scipy', 'numpy.ma')), "
             "file=sys.stderr)")
    argv = ["pipeline", "--duration", "30", "--output", str(tmp_path / "d")]
    err = subprocess.run([sys.executable, "-c", probe, *argv], env=child_env(),
                         capture_output=True, text=True, check=True).stderr
    assert err.strip() == "0 False False"


def without_site(probe):
    """The stderr of ``python -S -c probe``.  -S skips site, whose .pth files may
    import tempfile or pathlib in every interpreter; this interpreter's path still
    finds NumPy."""
    path = os.pathsep.join([child_env()["PYTHONPATH"], *filter(None, sys.path)])
    return subprocess.run([sys.executable, "-S", "-c", probe],
                          env=dict(child_env(), PYTHONPATH=path),
                          capture_output=True, text=True, check=True).stderr


def test_pipeline_without_output_loads_no_tempfile():
    probe = ("import sys; import thermofit.cli; code = thermofit.cli.main(['pipeline', "
             "'--duration', '30', '--format', 'json']); "
             "print(code, 'tempfile' in sys.modules, file=sys.stderr)")
    assert without_site(probe).strip() == "0 False"


def test_the_cli_loads_no_pathlib(tmp_path):
    probe = ("import sys; import thermofit.cli; loaded = 'pathlib' in sys.modules; "
             "code = thermofit.cli.main(['pipeline', '--duration', '30', '--output', "
             f"{str(tmp_path / 'd')!r}]); "
             "print(loaded, code, 'pathlib' in sys.modules, file=sys.stderr)")
    assert without_site(probe).strip() == "False 0 False"


def test_seed_variable_is_not_read_and_fit_takes_no_sigma(tmp_path, monkeypatch):
    monkeypatch.delenv("THERMOFIT_SEED", raising=False)
    plain = tmp_path / "plain.csv"
    assert run_cli("simulate", "--output", str(plain), "--seed", "5",
                   "--duration", "5") == 0
    for k, value in enumerate(("3", "-1", "not-a-number")):
        monkeypatch.setenv("THERMOFIT_SEED", value)
        out = tmp_path / f"env{k}.csv"
        assert run_cli("simulate", "--output", str(out), "--seed", "5",
                       "--duration", "5") == 0
        assert out.read_bytes() == plain.read_bytes()
    # weighted fits go through fit_series(ts, weights=Weights.from_sigma(...))
    with pytest.raises(SystemExit) as exc:
        run_cli("fit", "--input", str(plain), "--sigma", "0.5")
    assert exc.value.code == 2


def test_text_report_mirrors_json_fields(tmp_path, capsys):
    raw = tmp_path / "raw.csv"
    run_cli("simulate", "--output", str(raw), "--sigma", "0", "--duration", "60")
    run_cli("fit", "--input", str(raw), "--format", "text")
    out = capsys.readouterr().out
    for key in REPORT_KEYS:
        assert f"{key} = " in out


def test_readme_cli_examples_run(tmp_path, monkeypatch, capsys):
    readme = Path(__file__).resolve().parents[1] / "README.md"
    block = readme.read_text().split("## CLI", 1)[1].split("```sh\n", 1)[1]
    text = block.split("```", 1)[0].replace("\\\n", " ")
    lines = [line for line in text.splitlines() if line.startswith("thermofit ")]
    assert len(lines) >= 6
    monkeypatch.chdir(tmp_path)
    for line in lines:
        assert main(shlex.split(line)[1:]) == 0, line


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as exc:
        run_cli("fit")  # --input is required
    assert exc.value.code == 2
