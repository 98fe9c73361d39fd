"""Invariances of the fit, checked as properties with hypothesis.

Proves, on noisy records of a few thousand samples:
 - shifting the time axis by any ``t0`` in [-1e4, 4e9] s (epoch
   timestamps included) leaves the fitted ``(a, b, c)`` unchanged;
 - mapping the temperatures through ``y -> alpha*y + beta`` (``alpha``
   negative included, which flips the step direction) maps ``a`` and
   ``b`` the same way and leaves ``c`` unchanged.

And, on a 601-sample record scaled to any peak ``10**k`` in float64,
that the starting guess and the fit (raw and smoothed) return finite
values or raise a ``ThermofitError``, and that no step of them, the
smoother included, emits a NumPy warning.

And, over ROADMAP item 18's domain of noisy step records (README states it),
that ``fit_series``, raw and with SG(3, 51) where n >= 102, returns a finite
``(a, b, c)`` or raises an error from ``DOMAIN_ERRORS``.

And, of the starting guess alone: on monotone noise-free step records its
``c`` is the first-crossing rule's ``1 / t63`` bit for bit, and on any finite
record of at least 10 samples it returns a finite positive ``c`` or raises
a ``ThermofitError``.

"Unchanged" means within a few float64 resolutions of the least-squares
minimum (see ``fit_and_resolution``), not within a fixed relative
tolerance: ``lm_fit`` accepts a step only when the computed cost drops, so
two fits of equivalent noisy data may stop at different points of the
region where the cost is flat to rounding.  A relative tolerance of 1e-9
on ``c`` fails there: seed 300 shifted by ``t0 = 7`` s moves ``c`` by
4.6e-9 relative, and seed 610 mapped by ``alpha = 0.01, beta = -606``
moves it by 5e-7 relative (2.4e-5 standard errors).
"""

import math
import warnings

import numpy as np
from hypothesis import assume, example, given
from hypothesis import strategies as st

from thermofit import (FitParams, SGConfig, SingularEquationsError, SynthSpec,
                       ThermofitError, TimeSeries, fit_series, generate, initial_guess,
                       sg_smooth, step_response)

from helpers import residual_variance, standard_errors

RATE = 10.0
EPS = np.finfo(float).eps
# allowed disagreement, in units of the summed resolutions of the two fits
SLACK = 10.0

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def noisy_record(seed):
    """3001 samples of the default step, 30 -> 25 degC at c = 0.01/s."""
    return generate(
        SynthSpec(
            truth=FitParams(30.0, 25.0, 0.01),
            rate=RATE,
            duration=300.0,
            noise_sigma=0.5,
            seed=seed,
        )
    )


def fit_and_resolution(ts):
    """Fitted (a, b, c) and how finely float64 can place each of them.

    Each residual carries a rounding error of about ``eps * max|y|``, so
    the cost ``m s^2`` (``s`` the residual rms) is uncertain by about
    ``2 s eps max|y| sqrt(m)``.  A parameter ``k`` standard errors from the
    minimum raises the cost by ``k^2 s^2``; equating the two gives a flat
    half-width of ``sqrt(2 eps max|y| sqrt(m) / s)`` standard errors, with
    the standard errors from ``s^2 (J^T J)^-1``.
    """
    rep = fit_series(ts)
    s = np.sqrt(residual_variance(ts, rep))
    flat = np.sqrt(2.0 * EPS * np.max(np.abs(ts.y)) * np.sqrt(ts.n) / s)
    return np.array([rep.fit.a, rep.fit.b, rep.fit.c]), flat * standard_errors(ts, rep)


@given(seed=seeds, t0=st.floats(min_value=-1e4, max_value=4e9))
def test_time_shift_leaves_fit_unchanged(seed, t0):
    base = noisy_record(seed)
    ref, ref_res = fit_and_resolution(base)
    got, got_res = fit_and_resolution(TimeSeries(base.t + t0, base.y, RATE))
    ratio = np.abs(got - ref) / (ref_res + got_res)
    assert np.all(ratio <= SLACK), ratio


magnitudes = st.floats(min_value=1e-2, max_value=1e2)


@given(
    seed=seeds,
    alpha=st.tuples(magnitudes, st.sampled_from((1.0, -1.0))).map(
        lambda ms: ms[0] * ms[1]
    ),
    beta=st.floats(min_value=-1e3, max_value=1e3),
)
def test_affine_temperature_map_maps_levels_and_keeps_rate(seed, alpha, beta):
    base = noisy_record(seed)
    ref, ref_res = fit_and_resolution(base)
    got, got_res = fit_and_resolution(TimeSeries(base.t, alpha * base.y + beta, RATE))
    want = np.array([alpha * ref[0] + beta, alpha * ref[1] + beta, ref[2]])
    scale = np.array([abs(alpha), abs(alpha), 1.0])
    ratio = np.abs(got - want) / (scale * ref_res + got_res)
    assert np.all(ratio <= SLACK), ratio


SG = SGConfig(order=3, window=21)
UNIT = generate(SynthSpec(FitParams(30.0, 25.0, 0.05), RATE, 60.0, 0.5, 3))


@given(k=st.integers(min_value=-300, max_value=308))
@example(k=308)  # the level means and the SG sums overflow
def test_any_scale_fits_or_fails_with_a_typed_error(k):
    ts = TimeSeries(UNIT.t, UNIT.y / np.max(UNIT.y) * 10.0**k, RATE)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sg_smooth(ts.y, SG)
        for call in (initial_guess, fit_series, lambda s: fit_series(s, smoothing=SG)):
            try:
                result = call(ts)
            except ThermofitError:
                continue
            if isinstance(result, FitParams):
                assert np.isfinite([result.a, result.b, result.c]).all()
            else:
                assert np.isfinite([result.r_squared, *result.fitted]).all()


def first_crossing_rate(ts, a0, b0):
    """``1 / t63`` with ``t63`` the time of the first sample at or past 63.21% of
    the step from ``a0`` to ``b0`` (Seborg, Edgar & Mellichamp, ch. 7)."""
    threshold = a0 + 0.6321 * (b0 - a0)
    crossed = np.sign(b0 - a0) * (ts.y - threshold) >= 0
    return 1.0 / float(ts.t[np.argmax(crossed)] - ts.t[0])


levels = st.floats(min_value=-1e3, max_value=1e3)


@given(a=levels, b=levels, c=st.floats(min_value=1e-3, max_value=10.0),
       rate=st.floats(min_value=0.5, max_value=100.0),
       n=st.integers(min_value=10, max_value=2000))
def test_start_on_a_monotone_record_is_the_first_crossing(a, b, c, rate, n):
    assume(abs(a - b) > 1e-3)
    t = np.arange(n) / rate
    y = step_response(FitParams(a, b, c), t)
    assume(np.all(np.sign(b - a) * np.diff(y) >= 0))  # as exp's rounding keeps it
    ts = TimeSeries(t, y, rate)
    g = initial_guess(ts)
    assert g.c == first_crossing_rate(ts, g.a, g.b)


@given(y=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=10,
                  max_size=80))
@example(y=[6.435101787974751e16] * 10)  # the level means round apart: every
@example(y=[3002399751580331.0] * 60)  # sample is short of, or past, the 63% level
def test_start_is_a_finite_positive_rate_or_a_typed_error(y):
    ts = TimeSeries(0.5 * np.arange(len(y)), np.array(y), 2.0)
    try:
        g = initial_guess(ts)
    except ThermofitError:
        return
    assert math.isfinite(g.c) and g.c > 0


# what a fit on a record of ROADMAP item 18's domain may raise: equations that the
# record leaves singular (none has been seen)
DOMAIN_ERRORS = (SingularEquationsError,)
SG_51 = SGConfig(order=3, window=51)


def log_uniform(lo, hi):
    return st.floats(min_value=math.log10(lo), max_value=math.log10(hi)).map(
        lambda e: 10.0**e)


@st.composite
def domain_records(draw):
    """A noisy step record from the stated domain: levels in [-50, 150], at least 1
    apart, n log-uniform in 20-20,000, rate log-uniform in 0.1-1000 Hz, a span of
    0.5-8 time constants, noise sigma up to 5% of the step, a clock origin of 0 or an
    epoch near 1e9, and the values unrounded or printed to 0.1 or 0.0625."""
    level = st.floats(min_value=-50.0, max_value=150.0)
    a = draw(level)
    b = draw(level.filter(lambda b: abs(b - a) >= 1))
    n = round(draw(log_uniform(20, 2e4)))
    rate = draw(log_uniform(0.1, 1e3))
    span = draw(st.floats(min_value=0.5, max_value=8.0))
    sigma = abs(b - a) * draw(st.floats(min_value=0.0, max_value=0.05))
    t0 = draw(st.sampled_from((0.0, 1e9))) * draw(st.floats(min_value=1.0, max_value=1.7))
    q = draw(st.sampled_from((None, 0.1, 0.0625)))
    t = np.arange(n) / rate
    y = step_response(FitParams(a, b, span / t[-1]), t)
    y = y + np.random.Generator(np.random.Philox(draw(seeds))).normal(0.0, sigma, n)
    return TimeSeries(t0 + t, y if q is None else np.round(y / q) * q, rate)


@given(ts=domain_records())
def test_a_domain_record_fits_finite_or_fails_with_a_stated_error(ts):
    for smoothing in (None, SG_51) if ts.n >= 2 * SG_51.window else (None,):
        try:
            fit = fit_series(ts, smoothing=smoothing).fit
        except DOMAIN_ERRORS:
            continue
        assert np.isfinite([fit.a, fit.b, fit.c]).all()
