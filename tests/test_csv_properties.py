"""parse_csv against its row-by-row reference, checked with hypothesis.

parse_csv reads the body with ``np.loadtxt`` and ``TimeSeries`` judges the
record; on any ValueError (loadtxt's or ``TimeSeries``'s) the row loop
``_parse_rows`` reads the body again, only to name the bad line.  Proves,
on small files that mix valid floats with the fields and lines on which
``np.loadtxt`` and ``float()`` disagree (``1_5``, non-ASCII digits) or
which a row rule rejects (``nan``, ``inf``, ``1e500``, hex, empty fields,
1- and 3-field rows, non-increasing times), with blank and whitespace-only
lines and ``\\n`` or ``\\r\\n`` line endings:
 - parse_csv returns the same arrays as the row loop, bit for bit (the
   sign of zero included), or raises the same exception with the same
   message and line number;
   so do the bodies at the bounds of that judge: repeated ``-0.0`` times
   (a spacing of 0), a time that goes back, one data row, three columns, a
   span that overflows float64 and a subnormal spacing whose inverse does;
 - ``thermofit fit`` on any such file exits 0, 3, 4 or 5 and never raises;
 - the median spacing that sets the inferred rate is the float
   ``np.median`` returns, for 1, 2 and any odd or even count of positive
   spacings, infinite ones included.
"""

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from thermofit import TimeSeries, parse_csv
from thermofit.cli import main
from thermofit.io import SERIES_HEADER, _median, _parse_rows

ODD_FIELDS = [
    "-0.0", "0.0", "1e500", "-1e500", "nan", "inf", "-inf", "1_5", "١٢",
    "0x10", "", " 2.5 ", "\t-3", "7 ",
]

finite = st.floats(allow_nan=False, allow_infinity=False).map(repr)
odd_fields = st.sampled_from(ODD_FIELDS)
odd_lines = st.sampled_from(["blank", "space", "one field", "three fields", "back"])
# sampled_from spreads its draws where integers() favours the bounds; it
# favours its first entry, so the lists below lead with the common case
percent = st.sampled_from(range(100))


@st.composite
def csv_texts(draw):
    """A header and 1 to 24 lines.  Rows step time by ``dt`` and have one, two
    or three fields.  Each file draws a few odd fields and odd line kinds
    (blank, whitespace, short, long, or a ``back`` row that repeats or
    undercuts an earlier time) and the share of fields and lines that use
    them.  Temperatures follow a noisy step (fits can succeed) or are any
    finite floats."""
    dt = draw(st.sampled_from([0.01, 0.5, 3.0]))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    width = 2 if draw(percent) < 80 else draw(st.sampled_from([1, 3]))
    odd = st.sampled_from(draw(st.lists(odd_fields, min_size=1, max_size=3)))
    odd_pct = draw(st.sampled_from([0, 0, 5, 30]))
    odd_line = st.sampled_from(draw(st.lists(odd_lines, min_size=1, max_size=2)))
    line_pct = draw(st.sampled_from([0, 0, 10, 30]))
    wild = draw(st.booleans())
    noise = st.floats(min_value=-0.05, max_value=0.05)

    def field(value):
        return draw(odd) if draw(percent) < odd_pct else repr(float(value))

    lines = [SERIES_HEADER]
    k = 0
    for _ in range(draw(st.sampled_from([12, 24, 1, 2, 3, 6, 10, 16, 20]))):
        kind = draw(odd_line) if draw(percent) < line_pct else "row"
        if kind == "blank":
            lines.append("")
            continue
        if kind == "space":
            lines.append(draw(st.sampled_from([" ", "\t", " \t "])))
            continue
        back = draw(st.integers(min_value=1, max_value=2)) if kind == "back" else 0
        t = field((k - back) * dt)
        y = draw(finite) if wild else field(25.0 + 5.0 * np.exp(-0.3 * k) + draw(noise))
        n_fields = {"one field": 1, "three fields": 3}.get(kind, width)
        lines.append(",".join([t, y, field(1.0)][:n_fields] if n_fields > 1 else [y]))
        k += 1
    return eol.join(lines) + draw(st.sampled_from(["", eol]))


def reference_parse(path):
    """parse_csv with every file sent through the row loop."""
    with open(path, encoding="utf-8") as fh:
        fh.readline()
        t, y = _parse_rows(fh)
    with np.errstate(over="ignore"):  # a span over float64: TimeSeries names it
        rate = 1.0 / float(np.median(np.diff(t)))
    return TimeSeries(t, y, rate).require_uniform()


def outcome(parse, path):
    try:
        ts = parse(path)
    except Exception as exc:  # compared, not hidden: both sides must match
        return type(exc), str(exc), getattr(exc, "line", None)
    return ts.t.tobytes(), ts.y.tobytes(), ts.rate


H = SERIES_HEADER + "\n"


@settings(max_examples=500,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=csv_texts())
@example(text=H + "-0.0,25.0\n-0.0,25.0\n-0.0,25.0\n")  # a rate of 1 / 0
@example(text=H + "0.0,25.0\n1.0,25.5\n0.5,26.0\n3.0,26.5\n")  # time goes back
@example(text=H + "0.0,25.0\n")  # one data row: no spacing to take a rate from
@example(text=H + "0.0,25.0,1.0\n1.0,25.5,1.0\n2.0,26.0,1.0\n")  # three columns
@example(text=H + "-1e308,25.0\n1e308,25.5\n")  # a span that overflows float64
@example(text=H + "0.0,25.0\n5e-324,25.5\n1e-323,26.0\n")  # 1 / spacing overflows
def test_parse_csv_agrees_with_row_loop(tmp_path, capsys, text):
    path = tmp_path / "series.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    assert outcome(parse_csv, path) == outcome(reference_parse, path)
    assert main(["fit", "--input", str(path)]) in (0, 3, 4, 5)
    capsys.readouterr()


# a time axis strictly increases, so its spacings are positive; one that
# overflows float64 has infinite spacings
spacings = st.floats(min_value=0.0, exclude_min=True, allow_nan=False)


@given(x=arrays(np.float64, st.integers(1, 40), elements=spacings))
@example(x=np.array([0.5]))
@example(x=np.array([0.5, 0.25]))
@example(x=np.array([1e308, 1e308, 1.0, 1.0]))
def test_median_spacing_is_np_median(x):
    with np.errstate(over="ignore"):  # (a + b) / 2 of two spacings near 1e308
        want = np.median(x)
        got = _median(x)
    assert type(got) is float and got == want
