"""CSV serialization; on Linux a long write shares its rows with a forked child.

Two file layouts, both UTF-8 with ``\\n`` line endings and full-precision
decimal fields (values survive a write/read round trip exactly, forked or not):

* measurement series: header ``time_s,temp_c``, then one ``t,y`` row per
  sample;
* fit overlay: header ``time_s,raw_c,smoothed_c,fitted_c`` for external
  plotting.
"""

import math
import os
import signal
from contextlib import ExitStack, suppress
from itertools import chain

import numpy as np

from .errors import CsvFormatError, NonMonotoneTimeError
from .pipeline import TimeSeries

__all__ = ["SERIES_HEADER", "OVERLAY_HEADER", "parse_csv", "write_csv", "write_overlay",
           "write_series_and_overlay"]

SERIES_HEADER = "time_s,temp_c"
OVERLAY_HEADER = "time_s,raw_c,smoothed_c,fitted_c"

# Rows per block: a write holds one block's text, and a forking one its second half.
_CHUNK_ROWS = 4096


def parse_csv(path) -> TimeSeries:
    """Read a two-column measurement series.

    The header must be ``time_s,temp_c`` (case-insensitive).  Raises
    FileNotFoundError for a missing file, CsvFormatError for text that is
    not UTF-8 and (with the line number) for malformed rows,
    NonMonotoneTimeError (with the line number) when time fails to
    increase, and NonUniformSamplingError when the spacing strays from the
    inferred rate.  The rate is inferred from the median sample spacing.
    A UTF-8 byte-order mark and CRLF line ends are read as well.
    """
    try:
        with open(path, encoding="utf-8-sig") as fh:
            header = fh.readline()
            if not header:
                raise CsvFormatError("empty file", line=1)
            if header.strip().lower() != SERIES_HEADER:
                raise CsvFormatError(
                    f"expected header {SERIES_HEADER!r}, got {header.strip()!r}", line=1
                )
            t, y = _load_body(fh)
    except UnicodeDecodeError as exc:
        raise CsvFormatError(
            f"file is not UTF-8 text: byte {exc.object[exc.start]:#04x}, {exc.reason}"
        ) from None
    # a time span that overflows gives rate 0 here; TimeSeries names the span
    with np.errstate(over="ignore"):
        rate = 1.0 / _median(np.diff(t))
    return TimeSeries(t=t, y=y, rate=rate)


def _median(x: np.ndarray) -> float:
    """``np.median(x)`` of a non-empty 1-d x, without its import of numpy.ma."""
    lo, hi = (x.size - 1) // 2, x.size // 2
    part = np.partition(x, (lo, hi))
    return float(part[hi] if lo == hi else (part[lo] + part[hi]) / 2)


def _load_body(fh) -> tuple[np.ndarray, np.ndarray]:
    """The time and temperature columns of the rows after the header.

    ``np.loadtxt`` reads a body of at least 2 rows of 2 finite fields with
    strictly increasing time; any other body goes to ``_parse_rows`` from
    the first row.  ``np.loadtxt`` rejects some fields ``float()`` reads
    (``1_5``, non-ASCII digits) but reads none that ``float()`` rejects, and
    both round correctly; so the row loop decides every body it refuses.
    """
    start = fh.tell()
    try:
        # loadtxt warns on a body without rows; _parse_rows reports it instead
        if any(line.strip() for line in iter(fh.readline, "")):
            fh.seek(start)
            data = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
            if (
                data.shape[0] >= 2
                and data.shape[1] == 2
                and np.isfinite(data).all()
                and (data[1:, 0] > data[:-1, 0]).all()
            ):
                return data[:, 0], data[:, 1]
    except ValueError:  # UnicodeDecodeError too: the row loop meets it again
        pass
    fh.seek(start)
    return _parse_rows(fh)


def _parse_rows(fh) -> tuple[np.ndarray, np.ndarray]:
    """Parse the rows after the header one by one, raising at the first bad
    row with its 1-based line number (blank lines are skipped but counted)."""
    times: list[float] = []
    temps: list[float] = []
    for lineno, raw in enumerate(fh, start=2):
        row = raw.strip()
        if not row:
            continue
        parts = row.split(",")
        if len(parts) != 2:
            raise CsvFormatError(
                f"expected two comma-separated fields, got {len(parts)}",
                line=lineno,
            )
        try:
            t_val, y_val = map(float, parts)
        except ValueError:
            raise CsvFormatError(
                f"non-numeric field in row {row!r}", line=lineno
            ) from None
        if not (math.isfinite(t_val) and math.isfinite(y_val)):
            raise CsvFormatError(f"non-finite value in row {row!r}", line=lineno)
        if times and t_val <= times[-1]:
            raise NonMonotoneTimeError(
                f"time {t_val!r} does not increase past {times[-1]!r}", line=lineno
            )
        times.append(t_val)
        temps.append(y_val)
    if len(times) < 2:
        raise CsvFormatError(f"need at least 2 data rows, got {len(times)}")
    return np.array(times), np.array(temps)


def _write_blocks(files) -> None:
    """Write each ``(path, header, columns)`` of ``files``: the header line, then a
    comma-joined row per index of its columns, each field the shortest ``repr`` that
    round-trips its float64 value.  The columns must be 1-d and share one length; a
    column given twice is formatted once per 4096-row block.  From 16384 rows (a fork
    costs more below), in a process of one thread (no fork for Python 3.12+ to warn of)
    with SIGCHLD at its default, a forked child writes the headers and first half."""
    arrays = {id(col): np.asarray(col, dtype=float) for *_, cols in files for col in cols}
    first = next(iter(arrays.values()))
    if first.ndim != 1 or any(a.shape != first.shape for a in arrays.values()):
        raise CsvFormatError("CSV columns must be 1-d and share one length")

    def texts(los):  # a text per file for each block at ``los``
        for lo in los:
            text = {k: list(map(repr, a[lo:lo + _CHUNK_ROWS].tolist()))
                    for k, a in arrays.items()}
            yield ["\n".join(map(",".join, zip(*(text[id(c)] for c in cols)))) + "\n"
                   for *_, cols in files]

    los, pid = range(0, first.size, _CHUNK_ROWS), None
    head, mid = [[h + "\n" for _, h, _ in files]], len(los) // 2
    with ExitStack() as stack:  # line-buffered: a text is on disk once written
        fhs = [stack.enter_context(open(p, "w", 1, "utf-8")) for p, *_ in files]
        write = lambda parts: [f.write(t) for ts in parts for f, t in zip(fhs, ts)]
        with suppress(AttributeError, OSError):  # no /proc (not Linux), SIGCHLD or fork
            if (first.size >= 4 * _CHUNK_ROWS and len(os.listdir("/proc/self/task")) == 1
                    and signal.getsignal(signal.SIGCHLD) == signal.SIG_DFL):
                pid = os.fork()
        if pid == 0:  # the child leaves by os._exit alone
            try:
                write(chain(head, texts(los[:mid])))
            except BaseException as exc:  # with an OSError's errno, else 255
                os._exit(getattr(exc, "errno", None) or 255)
            os._exit(0)
        try:  # this process holds its half until the child has written the first
            held = list(texts(los[mid:])) if pid else write(chain(head, texts(los)))
        finally:
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) if pid else 0
        if status:  # an OSError's errno in the child, 255, or minus its killing signal
            why = os.strerror(status) if status > 0 else f"killed by signal {-status}"
            raise OSError(status, f"{why} in a writer child", files[0][0])
        write(held if pid else ())


def write_csv(path, ts: TimeSeries) -> None:
    """Write a measurement series in the format parse_csv reads back."""
    _write_blocks([(path, SERIES_HEADER, (ts.t, ts.y))])


def write_overlay(path, t, raw, smoothed, fitted) -> None:
    """Write the plotting overlay: time, raw, smoothed and fitted columns.
    ``smoothed`` may be ``raw`` itself when no smoothing was applied."""
    _write_blocks([(path, OVERLAY_HEADER, (t, raw, smoothed, fitted))])


def write_series_and_overlay(raw_path, smoothed_path, overlay_path, t, raw, smoothed,
                             fitted) -> None:
    """Write ``(t, raw)`` and ``(t, smoothed)`` as write_csv and ``(t, raw, smoothed,
    fitted)`` as write_overlay would, in one pass that formats each column once."""
    _write_blocks([(raw_path, SERIES_HEADER, (t, raw)),
                   (smoothed_path, SERIES_HEADER, (t, smoothed)),
                   (overlay_path, OVERLAY_HEADER, (t, raw, smoothed, fitted))])
