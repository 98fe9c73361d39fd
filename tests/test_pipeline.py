"""Fit pipeline: time-series container, model Jacobian, starting values,
fit statistics and the end-to-end fit.

Proves:
 - TimeSeries invariants (length, finite values, a time span and a rate
   finite in float64, monotone time, uniform spacing with a tolerance
   that admits epoch timestamps, immutability);
 - the analytic Jacobian at its boundary values and against central
   finite differences over random draws, and that the solver model
   evaluates through ``step_response`` and ``step_response_jacobian``;
 - starting-value quality on clean falling and rising curves, the
   no-crossing fallback, and the flat-series rejection;
 - R-squared point values and its constant-input rejection;
 - round-trip identification (clean to machine accuracy, noisy within 2%),
   plus the sampling-rate, smoothing-neutrality and time-shift properties;
 - the fit runs on elapsed time: any clock origin gives the same fit, and
   ``FitReport.fitted`` is the read-only model the R-squared was taken on;
 - warnings for oversized windows, non-positive rates, capped runs and a
   fitted curve that leaves the range of the raw data (but not for a
   record that stops short of its asymptote);
 - trial steps that overflow stay silent, and a record too large for
   float64 fails with SingularEquationsError, not with NumPy warnings.
"""

import warnings

import numpy as np
import pytest

from thermofit import (
    DataLengthError,
    FitParams,
    FlatSeriesError,
    InvalidParameterError,
    LMConfig,
    NonUniformSamplingError,
    SGConfig,
    SingularEquationsError,
    SynthSpec,
    TimeSeries,
    fit_series,
    generate,
    initial_guess,
    r_squared,
    step_response,
    step_response_jacobian,
)
from thermofit.pipeline import ExponentialStepModel


def clean_series(a, b, c, rate=100.0, duration=None, seed=None, sigma=0.0):
    duration = duration if duration is not None else 3.0 / c
    return generate(
        SynthSpec(
            truth=FitParams(a, b, c),
            rate=rate,
            duration=duration,
            noise_sigma=sigma,
            seed=seed or 0,
        )
    )


# ----------------------------------------------------------------- container


def test_time_series_validates_lengths_and_rate():
    with pytest.raises(DataLengthError):
        TimeSeries(np.array([0.0]), np.array([1.0]), 1.0)
    with pytest.raises(DataLengthError):
        TimeSeries(np.array([0.0, 1.0]), np.array([1.0]), 1.0)
    with pytest.raises(InvalidParameterError):
        TimeSeries(np.array([0.0, 1.0]), np.array([1.0, 2.0]), 0.0)


def test_time_series_requires_strictly_increasing_time():
    with pytest.raises(InvalidParameterError):
        TimeSeries(np.array([0.0, 1.0, 1.0]), np.zeros(3), 1.0)
    with pytest.raises(InvalidParameterError):
        TimeSeries(np.array([0.0, 1.0, 0.5]), np.zeros(3), 1.0)


def test_time_series_rejects_nonuniform_spacing():
    t = np.array([0.0, 0.01, 0.021])  # second gap 5% long
    with pytest.raises(NonUniformSamplingError):
        TimeSeries(t, np.zeros(3), 100.0)


def test_time_series_rejects_non_finite_values():
    t = np.array([0.0, 0.01, 0.02])
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(InvalidParameterError, match="finite"):
            TimeSeries(np.array([0.0, bad, 0.02]), np.zeros(3), 100.0)
        with pytest.raises(InvalidParameterError, match="finite"):
            TimeSeries(t, np.array([25.0, bad, 25.0]), 100.0)


def test_time_series_rejects_a_time_span_that_overflows():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t in ([-1.7e308, 0.0, 1.7e308], [-1.7e308, 1.7e308]):
            with pytest.raises(InvalidParameterError, match="time span"):
                TimeSeries(np.array(t), np.zeros(len(t)), 1.0 / 1.7e308)
        # spacings of one subnormal step have no finite rate
        for rate in (np.inf, np.nan, 0.0):
            with pytest.raises(InvalidParameterError, match="rate"):
                TimeSeries(np.array([0.0, 5e-324, 1e-323]), np.zeros(3), rate)


def test_time_series_spacing_tolerance_scales_with_epoch_timestamps():
    for t0 in (1.7e9, 4e9):
        t = t0 + np.arange(3001) / 100.0  # rounding alone moves gaps by ~2e-5
        assert TimeSeries(t, np.zeros(t.size), 100.0).n == 3001
        t[2] += 0.0005  # a 5% long gap is still caught
        with pytest.raises(NonUniformSamplingError):
            TimeSeries(t, np.zeros(t.size), 100.0)


def test_time_series_arrays_are_frozen_copies():
    t = np.array([0.0, 0.01, 0.02])
    y = np.array([1.0, 2.0, 3.0])
    ts = TimeSeries(t, y, 100.0)
    t[0] = 99.0  # source mutation must not leak in
    assert ts.t[0] == 0.0
    with pytest.raises(ValueError):
        ts.y[0] = 99.0
    assert ts.n == 3


# ------------------------------------------------------------------ jacobian


def test_jacobian_at_time_zero():
    np.testing.assert_allclose(
        step_response_jacobian(0.0, [30.0, 25.0, 0.01]), [1.0, 0.0, 0.0], atol=1e-15
    )


def test_jacobian_in_the_decay_limit():
    row = step_response_jacobian(1e6, [30.0, 25.0, 0.01])
    np.testing.assert_allclose(row, [0.0, 1.0, 0.0], atol=1e-12)


def test_jacobian_closed_form_point():
    row = step_response_jacobian(100.0, [30.0, 25.0, 0.01])
    e = np.exp(-1.0)
    np.testing.assert_allclose(row, [e, 1.0 - e, -500.0 * e], rtol=1e-12)
    np.testing.assert_allclose(
        row, [0.367879, 0.632121, -183.9397], atol=5e-5
    )


def test_jacobian_rejects_negative_time():
    with pytest.raises(InvalidParameterError):
        step_response_jacobian(-1.0, [30.0, 25.0, 0.01])


def test_solver_model_is_step_response_and_its_jacobian():
    model = ExponentialStepModel()
    t = np.linspace(0.0, 500.0, 11)
    p = np.array([30.0, 25.0, 0.01])
    np.testing.assert_array_equal(model.predict(t, p), step_response(FitParams(*p), t))
    np.testing.assert_array_equal(model.jacobian_row(t, p), step_response_jacobian(t, p))
    for method in (model.predict, model.jacobian_row):
        with pytest.raises(InvalidParameterError, match="t >= 0"):
            method(np.array([-1.0, 0.0]), p)


def test_jacobian_matches_finite_differences_on_random_draws():
    from thermofit import validate_jacobian

    rng = np.random.Generator(np.random.Philox(101))
    model = ExponentialStepModel()
    worst = 0.0
    for _ in range(50):
        p = np.array(
            [rng.uniform(0, 100), rng.uniform(0, 100), rng.uniform(1e-4, 1.0)]
        )
        t = rng.uniform(0.0, 1000.0, size=8)
        check = validate_jacobian(model, t, p)
        worst = max(worst, check.max_deviation)
    assert worst < 1e-6


# ------------------------------------------------------------ initial guess


def test_initial_guess_on_clean_falling_curve():
    ts = clean_series(30.0, 25.0, 0.01, duration=600.0)
    g = initial_guess(ts)
    assert abs(g.a - 30.0) < 0.2
    assert abs(g.b - 25.0) < 0.02  # tail has decayed to ~exp(-6)
    assert abs(g.c - 0.01) / 0.01 < 0.25


def test_initial_guess_on_clean_rising_curve():
    ts = clean_series(25.0, 30.0, 0.01, duration=600.0)
    g = initial_guess(ts)
    assert g.b > g.a
    assert abs(g.c - 0.01) / 0.01 < 0.25


def test_initial_guess_without_crossing_falls_back():
    # a monotone curve always crosses the observed-span threshold, so the
    # fallback path needs a first sample that already sits beyond it; a
    # third of the record then stands in for the time constant
    y = np.concatenate([[8.0], np.zeros(4), np.linspace(0.0, 10.0, 95)])
    ts = TimeSeries(np.arange(100.0), y, 1.0)
    g = initial_guess(ts)
    assert g.c == pytest.approx(3.0 / 99.0, rel=1e-9)


def test_initial_guess_rejects_flat_series():
    ts = TimeSeries(np.arange(100) / 10.0, np.full(100, 25.0), 10.0)
    with pytest.raises(FlatSeriesError):
        initial_guess(ts)


def test_initial_guess_needs_ten_samples():
    ts = TimeSeries(np.arange(5) / 10.0, np.linspace(1, 2, 5), 10.0)
    with pytest.raises(DataLengthError):
        initial_guess(ts)


# --------------------------------------------------------------- r_squared


def test_r_squared_perfect_fit():
    y = np.array([1.0, 2.0, 3.0])
    assert r_squared(y, y) == 1.0


def test_r_squared_mean_predictor():
    y = np.array([1.0, 2.0, 3.0])
    assert r_squared(y, np.full(3, 2.0)) == pytest.approx(0.0, abs=1e-15)


def test_r_squared_hand_value():
    assert r_squared(np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0, 4.0])) == (
        pytest.approx(0.5, rel=1e-15)
    )


def test_r_squared_rejects_constant_series():
    with pytest.raises(FlatSeriesError):
        r_squared(np.full(5, 2.0), np.arange(5.0))


def test_r_squared_rejects_length_mismatch():
    with pytest.raises(DataLengthError):
        r_squared(np.arange(4.0), np.arange(5.0))


# --------------------------------------------------------------- fit_series


def test_fit_series_clean_recovery():
    ts = clean_series(30.0, 25.0, 0.01)
    rep = fit_series(ts)
    np.testing.assert_allclose(
        [rep.fit.a, rep.fit.b, rep.fit.c], [30.0, 25.0, 0.01], rtol=1e-6
    )
    assert rep.r_squared > 1.0 - 1e-10
    assert rep.process is not None
    assert rep.process.tau == pytest.approx(100.0, rel=1e-6)
    # cut at 3 time constants, the record stays above b; the curve does not
    assert rep.fit.b < ts.y.min()
    assert rep.warnings == ()


def test_fit_series_noisy_recovery_with_smoothing():
    ts = clean_series(30.0, 25.0, 0.01, sigma=0.5, seed=3)
    rep = fit_series(ts, smoothing=SGConfig(order=3, window=901))
    for got, want in ((rep.fit.a, 30.0), (rep.fit.b, 25.0), (rep.fit.c, 0.01)):
        assert abs(got - want) / want < 0.02
    assert rep.r_squared >= 0.99
    assert rep.smoothing == SGConfig(3, 901)


def test_fit_series_reference_regime_noisy():
    # slow-heating regime under the same noise protocol
    ts = clean_series(29.18, 26.01, 0.0049, sigma=0.5, seed=3)
    rep = fit_series(ts, smoothing=SGConfig(order=3, window=901))
    for got, want in (
        (rep.fit.a, 29.18),
        (rep.fit.b, 26.01),
        (rep.fit.c, 0.0049),
    ):
        assert abs(got - want) / want < 0.02


def test_fit_series_sampling_rate_stability():
    fits = []
    for rate in (100.0, 500.0, 1000.0):
        rep = fit_series(clean_series(30.0, 25.0, 0.01, rate=rate))
        fits.append(np.array([rep.fit.a, rep.fit.b, rep.fit.c]))
    for i in range(len(fits)):
        for j in range(i + 1, len(fits)):
            assert np.max(np.abs(fits[i] / fits[j] - 1.0)) < 1e-6


def test_fit_series_smoothing_neutral_on_clean_data():
    # time constant (1000 s) far above the window span (5.1 s at 10 Hz)
    ts = clean_series(30.0, 25.0, 0.001, rate=10.0, duration=3000.0)
    raw = fit_series(ts)
    smoothed = fit_series(ts, smoothing=SGConfig(order=3, window=51))
    for x, y in zip(
        (raw.fit.a, raw.fit.b, raw.fit.c),
        (smoothed.fit.a, smoothed.fit.b, smoothed.fit.c),
    ):
        assert abs(x - y) / abs(x) < 1e-3


def test_fit_series_time_shift_covariance():
    a, b, c = 30.0, 25.0, 0.01
    delta = 50.0
    base = clean_series(a, b, c, duration=300.0)
    shifted = TimeSeries(base.t, step_response(FitParams(a, b, c), base.t + delta),
                         base.rate)
    rep = fit_series(shifted)
    expected_a = (a - b) * np.exp(-c * delta) + b
    assert abs(rep.fit.b - b) / b < 1e-6
    assert abs(rep.fit.c - c) / c < 1e-6
    assert abs(rep.fit.a - expected_a) / expected_a < 1e-6


def test_fit_series_runs_on_elapsed_time():
    base = clean_series(30.0, 25.0, 0.01, duration=300.0, seed=4, sigma=0.5)
    sg = SGConfig(order=3, window=901)
    ref = fit_series(base, smoothing=sg)
    for t0 in (-500.0, 1e3, 1e4, 1e6, 1.7e9, 4e9):
        rep = fit_series(TimeSeries(base.t + t0, base.y, base.rate), smoothing=sg)
        # t - t[0] differs from base.t in the last bits, which moves the
        # starting rate and so the solver's stopping point by ~4e-10 in c;
        # on absolute time c was off by a factor of 3 at t0 = 1e4
        np.testing.assert_allclose(
            [rep.fit.a, rep.fit.b, rep.fit.c],
            [ref.fit.a, ref.fit.b, ref.fit.c],
            rtol=1e-8,
        )
        assert rep.r_squared == pytest.approx(ref.r_squared, rel=1e-12)


def test_fit_report_fitted_is_the_model_on_elapsed_time():
    base = clean_series(30.0, 25.0, 0.01, duration=300.0, seed=4, sigma=0.5)
    ts = TimeSeries(base.t + 1e4, base.y, base.rate)
    rep = fit_series(ts)
    np.testing.assert_array_equal(rep.fitted, step_response(rep.fit, ts.t - ts.t[0]))
    assert rep.fitted[0] == pytest.approx(rep.fit.a, rel=1e-15)
    assert rep.r_squared == r_squared(rep.target, rep.fitted)
    with pytest.raises(ValueError):
        rep.fitted[0] = 0.0


def test_fit_series_warns_on_oversized_window():
    ts = clean_series(30.0, 25.0, 0.01, rate=10.0, duration=180.0)  # 1801 samples
    rep = fit_series(ts, smoothing=SGConfig(order=3, window=1001))
    assert any("half the series" in w for w in rep.warnings)


def test_fit_series_flags_nonpositive_rate():
    # data from a growing exponential drives the fitted rate negative
    t = np.arange(0.0, 100.0, 0.1)
    y = (20.0 - 30.0) * np.exp(0.002 * t) + 30.0
    ts = TimeSeries(t, y, 10.0)
    rep = fit_series(ts, p0=FitParams(20.0, 30.0, -0.001))
    assert rep.fit.c < 0
    assert rep.process is None
    assert any("not positive" in w for w in rep.warnings)


def test_fit_series_warns_at_iteration_cap():
    ts = clean_series(30.0, 25.0, 0.01, sigma=0.5, seed=5)
    rep = fit_series(ts, cfg=LMConfig(max_iter=1))
    assert rep.result.converged == "max_iter"
    assert any("iteration cap" in w for w in rep.warnings)


def test_fit_series_flags_negative_r_squared():
    # a huge damping start pins the parameters near a hopeless override,
    # leaving a fit worse than the mean predictor
    ts = clean_series(30.0, 25.0, 0.01, duration=60.0)
    rep = fit_series(
        ts,
        p0=FitParams(1000.0, 2000.0, 1.0),
        cfg=LMConfig(lambda0=1e12, max_iter=1),
    )
    assert rep.r_squared < 0
    assert any("mean predictor" in w for w in rep.warnings)


def default_record(**overrides):
    spec = dict(truth=FitParams(30.0, 25.0, 0.01), rate=100.0, duration=300.0,
                noise_sigma=0.5, seed=0)
    return generate(SynthSpec(**{**spec, **overrides}))


def test_fit_series_flags_fit_outside_data_range():
    # one 1e6 outlier drags the fit to a = 1.71, below every sample; the
    # trial steps on the way overflow the cost, which must stay silent
    ts = default_record()
    y = ts.y.copy()
    y[ts.n // 2] = 1e6
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = fit_series(TimeSeries(ts.t, y, ts.rate))
    assert rep.fit.a < y.min()
    assert [w for w in rep.warnings if "outside the data range" in w] == [
        f"fitted value at the first sample (a) {rep.fit.a:.6g} lies outside "
        f"the data range [{y.min():.6g}, {y.max():.6g}]"
    ]


def test_fit_series_overflowing_trial_steps_raise_no_warning():
    # a record cut at 0.3 time constants: early trial steps overflow exp
    ts = default_record(truth=FitParams(30.0, 25.0, 0.001))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = fit_series(ts)
    assert 0 < rep.fit.c < 0.002


def test_fit_series_overflow_is_a_numerical_error():
    ts = default_record(rate=10.0)
    for scale in (1e152, 1e300):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularEquationsError):
                fit_series(TimeSeries(ts.t, ts.y * scale, ts.rate))


def test_fit_series_starting_override_is_used():
    ts = clean_series(30.0, 25.0, 0.01)
    rep = fit_series(ts, p0=FitParams(29.0, 26.0, 0.012))
    np.testing.assert_allclose(
        [rep.fit.a, rep.fit.b, rep.fit.c], [30.0, 25.0, 0.01], rtol=1e-6
    )
