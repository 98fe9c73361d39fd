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
from pathlib import Path

import numpy as np

from .errors import CsvFormatError, NonMonotoneTimeError
from .pipeline import TimeSeries

__all__ = ["SERIES_HEADER", "OVERLAY_HEADER", "parse_csv", "write_csv", "write_overlay"]

SERIES_HEADER = "time_s,temp_c"
OVERLAY_HEADER = "time_s,raw_c,smoothed_c,fitted_c"


def _fmt(value: float) -> str:
    # repr of a Python float is the shortest string that round-trips exactly
    return repr(float(value))


def parse_csv(path) -> TimeSeries:
    """Read a two-column measurement series.

    The header must be ``time_s,temp_c`` (case-insensitive).  Raises
    FileNotFoundError for a missing file, CsvFormatError (with the line
    number) for malformed rows, NonMonotoneTimeError (with the line
    number) when time fails to increase, and NonUniformSamplingError when
    the spacing strays from the inferred rate.  The rate is inferred from
    the median sample spacing.
    """
    times: list[float] = []
    temps: list[float] = []
    with open(path, encoding="utf-8") as fh:
        header = fh.readline()
        if not header:
            raise CsvFormatError("empty file", line=1)
        if header.strip().lower() != SERIES_HEADER:
            raise CsvFormatError(
                f"expected header {SERIES_HEADER!r}, got {header.strip()!r}", line=1
            )
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
    t = np.array(times)
    rate = 1.0 / float(np.median(np.diff(t)))
    return TimeSeries(t=t, y=np.array(temps), rate=rate)


def write_csv(path, ts: TimeSeries) -> None:
    """Write a measurement series in the format parse_csv reads back."""
    lines = [SERIES_HEADER]
    lines.extend(f"{_fmt(t)},{_fmt(y)}" for t, y in zip(ts.t, ts.y))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_overlay(path, t, raw, smoothed, fitted) -> None:
    """Write the plotting overlay: time, raw, smoothed and fitted columns.

    ``smoothed`` may equal ``raw`` when no smoothing was applied.
    """
    columns = [np.asarray(c, dtype=float) for c in (t, raw, smoothed, fitted)]
    if any(c.shape != columns[0].shape for c in columns[1:]):
        raise CsvFormatError("overlay columns must share one length")
    lines = [OVERLAY_HEADER]
    lines.extend(
        ",".join(_fmt(v) for v in row) for row in zip(*columns)
    )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
