"""CSV serialization.

Two file layouts, both UTF-8 with ``\\n`` line endings and full-precision
decimal fields (values survive a write/read round trip exactly):

* measurement series: header ``time_s,temp_c``, then one ``t,y`` row per
  sample;
* fit overlay: header ``time_s,raw_c,smoothed_c,fitted_c`` for external
  plotting.
"""

from __future__ import annotations

import math
from itertools import islice

import numpy as np

from .errors import CsvFormatError, NonMonotoneTimeError
from .pipeline import TimeSeries

__all__ = ["SERIES_HEADER", "OVERLAY_HEADER", "parse_csv", "write_csv", "write_overlay",
           "write_smoothed_and_overlay"]

SERIES_HEADER = "time_s,temp_c"
OVERLAY_HEADER = "time_s,raw_c,smoothed_c,fitted_c"

# Rows formatted and written per block: bounds the text held in memory.
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
    prev: float | None = None
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
            t_val = float(parts[0])
            y_val = float(parts[1])
        except ValueError:
            raise CsvFormatError(
                f"non-numeric field in row {row!r}", line=lineno
            ) from None
        if not (math.isfinite(t_val) and math.isfinite(y_val)):
            raise CsvFormatError(f"non-finite value in row {row!r}", line=lineno)
        if prev is not None and t_val <= prev:
            raise NonMonotoneTimeError(
                f"time {t_val!r} does not increase past {prev!r}", line=lineno
            )
        prev = t_val
        times.append(t_val)
        temps.append(y_val)
    if len(times) < 2:
        raise CsvFormatError(f"need at least 2 data rows, got {len(times)}")
    return np.array(times), np.array(temps)


def _write_rows(path, header: str, columns) -> None:
    """Write ``header`` and one comma-joined row per index of the equal-length
    float64 ``columns``.  Each field is ``repr`` of the Python float, the
    shortest string that round-trips exactly; a column passed more than once
    (the same object) is formatted once per block."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for lo in range(0, len(columns[0]), _CHUNK_ROWS):
            block = {id(col): col[lo:lo + _CHUNK_ROWS].tolist() for col in columns}
            text = {k: list(map(repr, values)) for k, values in block.items()}
            rows = zip(*(text[id(col)] for col in columns))
            fh.write("\n".join(map(",".join, rows)) + "\n")


def write_csv(path, ts: TimeSeries) -> None:
    """Write a measurement series in the format parse_csv reads back."""
    _write_rows(path, SERIES_HEADER, (ts.t, ts.y))


def write_overlay(path, t, raw, smoothed, fitted) -> None:
    """Write the plotting overlay: time, raw, smoothed and fitted columns.
    ``smoothed`` may be ``raw`` itself when no smoothing was applied."""
    columns = [np.asarray(c, dtype=float) for c in (t, raw, smoothed, fitted)]
    if columns[0].ndim != 1 or any(c.shape != columns[0].shape for c in columns[1:]):
        raise CsvFormatError("overlay columns must be 1-d and share one length")
    _write_rows(path, OVERLAY_HEADER, columns)


def write_smoothed_and_overlay(raw_path, smoothed_path, overlay_path, smoothed, fitted):
    """Write ``(t, smoothed)`` as write_csv and ``(t, raw, smoothed, fitted)`` as
    write_overlay would, in one pass that takes ``t`` and ``raw`` from the rows
    write_csv wrote to ``raw_path``: ``repr`` round-trips, so the bytes agree."""
    with (open(raw_path, encoding="utf-8") as src,
          open(smoothed_path, "w", encoding="utf-8") as sm,
          open(overlay_path, "w", encoding="utf-8") as ov):
        sm.write(src.readline())  # SERIES_HEADER
        ov.write(OVERLAY_HEADER + "\n")
        for lo in range(0, len(smoothed), _CHUNK_ROWS):
            s = list(map(repr, smoothed[lo:lo + _CHUNK_ROWS].tolist()))
            f = map(repr, fitted[lo:lo + _CHUNK_ROWS].tolist())
            raw = [line[:-1] for line in islice(src, len(s))]
            ov.write("\n".join(map(",".join, zip(raw, s, f, strict=True))) + "\n")
            sm.write("".join([r[:r.index(",") + 1] + v + "\n" for r, v in zip(raw, s)]))
