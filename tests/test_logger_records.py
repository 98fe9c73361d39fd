"""Records as temperature loggers write them: the correctness scoreboard.

Proves, for each record of ``helpers.LOGGER_RECORDS`` fitted by
``thermofit fit --format json`` in process, raw and with SG(3, 51), today's
outcome: the exit code, the error or the set of warnings, and how far the
fitted ``c`` lies from the true 0.01 in units of the report's standard error
of ``c``.  A change that mends a record flips its row here.  ``thermofit
smooth --window 51`` of the record with a missing row exits 3 with its
``fit`` message and writes no file.  The 7 Hz record with times printed to
1 ms fits to the ``c`` of its exact-time twin within 1e-3 standard errors,
raw and smoothed, over 20 seeds.  The ``seed-64`` setting (noise sigma 2 at
10 Hz for 100 s) fits raw without a singular solve over seeds 0-99.

Seed 0 stands for every seed where 40 seeds give one outcome (the largest
error over them: 2.1 standard errors clean, 2.6 printed to 0.1 degC, 2.3 cut
at half a time constant).  AR(1) noise and the 7 Hz record, whose outcomes
turn on the seed, run 20 seeds.
"""

import json
import math

import pytest

from helpers import LOGGER_RECORDS, LOGGER_TRUTH, logger_record
from thermofit import (SGConfig, SingularEquationsError, SynthSpec, fit_series,
                       generate, parse_csv)
from thermofit.cli import main

WARNINGS = {  # a short name for each warning fit_series gives, by its text
    "window": "smoothing window",
    "process": "no process parameters",
    "cap": "iteration cap",
    "negative-r2": "negative R^2",
    "range-a": "fitted value at the first sample (a)",
    "range-end": "fitted value at the last sample",
    "se-c": "standard error of c",
}
WITHIN_3_SE = (0.0, 3.0)
# record: (exit code, for exit 0 the warning sets the seeds give and the range
# of the largest |c - 0.01| / se(c) over them, else a part of the error line)
CORPUS = {
    "clean": (0, [set()], WITHIN_3_SE),
    "epoch-times": (0, [set()], WITHIN_3_SE),
    "crlf-bom": (0, [set()], WITHIN_3_SE),
    # spacing 0.143/0.142 s, 7e-3 off 1/rate, inside the 1% tolerance; seed 10
    # puts c 3.5 standard errors off, as it does its exact-time twin
    "7hz-ms-times": (0, [set(), {"range-a"}], (3.0, 4.0)),
    "missing-row": (3, "sample spacing deviates from 1/rate by 1.000e+00 relative "
                       "(tolerance 0.01) between t = 149.9 and t = 150.1"),
    "nan": (3, "line 1502: non-finite value in row '150.0,nan'"),
    "printed-0.1": (0, [set()], WITHIN_3_SE),
    "printed-0.0625": (0, [set()], WITHIN_3_SE),
    # item 4: c 81% off, inside its standard error only because that is 70% of c
    "spike-1e3": (0, [{"range-end", "se-c"}], (1.0, 1.5)),
    "cut-at-half-tau": (0, [set()], WITHIN_3_SE),
    # item 7: the delay puts c 15% off, 35 standard errors
    "dead-time-20s": (0, [{"range-a"}], (30.0, 40.0)),
    # item 10: the error reaches 9.7 white-noise standard errors (over 3 on 9
    # seeds of 20); only the range check warns, on 4
    "ar1-0.9": (0, [set(), {"range-a"}], (5.0, math.inf)),
    # sigma 2 at 10 Hz for 100 s: the rate is poorly determined (0.5 standard
    # errors off raw and smoothed); its seed sweep is the test below
    "seed-64": (0, [{"se-c"}], WITHIN_3_SE),
}
SEEDS = {"ar1-0.9": range(20), "7hz-ms-times": range(20)}  # seed-64 takes no seed


def fit(tmp_path, capsys, kind, seed, window):
    path = tmp_path / f"{kind}-{seed}.csv"
    path.write_bytes(logger_record(kind, seed).encode("utf-8"))
    code = main(["fit", "--input", str(path), "--format", "json",
                 *(["--window", window] if window else [])])
    out, err = capsys.readouterr()
    if code:
        return code, err, None
    report = json.loads(out)
    names = {name for w in report["warnings"] for name, text in WARNINGS.items()
             if text in w}
    assert len(names) == len(report["warnings"]), report["warnings"]
    return code, names, abs(report["c"] - LOGGER_TRUTH.c) / report["se"][2]


@pytest.mark.parametrize("window", [None, "51"], ids=["raw", "sg51"])
@pytest.mark.parametrize("kind", LOGGER_RECORDS)
def test_logger_record_outcome(tmp_path, capsys, kind, window):
    code, *want = CORPUS[kind]
    runs = [fit(tmp_path, capsys, kind, seed, window) for seed in SEEDS.get(kind, [0])]
    assert {run[0] for run in runs} == {code}
    if code:
        [message] = want
        assert all(run[1].startswith("error: ") and message in run[1] for run in runs)
        return
    warning_sets, (lo, hi) = want
    assert {frozenset(run[1]) for run in runs} == set(map(frozenset, warning_sets))
    assert lo < max(run[2] for run in runs) < hi


def test_smooth_refuses_the_missing_row_record(tmp_path, capsys):
    path, out = tmp_path / "missing-row.csv", tmp_path / "smoothed.csv"
    path.write_text(logger_record("missing-row", 0))
    code = main(["smooth", "--input", str(path), "--output", str(out), "--window", "51"])
    assert (code, capsys.readouterr().err) == (3, f"error: {CORPUS['missing-row'][1]}\n")
    assert not out.exists()


@pytest.mark.parametrize("smoothing", [None, SGConfig(3, 51)], ids=["raw", "sg51"])
def test_ms_stamped_record_fits_as_its_exact_time_twin(tmp_path, smoothing):
    path = tmp_path / "7hz.csv"
    for seed in range(20):
        path.write_text(logger_record("7hz-ms-times", seed))
        ms = fit_series(parse_csv(path), smoothing=smoothing)
        exact = fit_series(generate(SynthSpec(LOGGER_TRUTH, 7.0, 300.0, 0.05, seed)),
                           smoothing=smoothing)
        assert abs(ms.fit.c - exact.fit.c) < 1e-3 * exact.stats["se"][2]


def test_noisy_short_records_start_where_the_solve_stays_regular():
    # noise crosses the 63% level within the first samples of these records;
    # a start at that crossing puts c0 near the sampling rate, from where the
    # damped solve goes singular on 3 of the 100 seeds (64 among them)
    singular = []
    for seed in range(100):
        try:
            fit_series(generate(SynthSpec(LOGGER_TRUTH, 10.0, 100.0, 2.0, seed)))
        except SingularEquationsError:
            singular.append(seed)
    assert singular == []
