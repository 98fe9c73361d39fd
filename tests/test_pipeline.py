"""Fit pipeline: time-series container, model Jacobian, starting values,
fit statistics and the end-to-end fit.

Proves:
 - TimeSeries invariants (1-d columns of one length, finite values, a time
   span, a rate and 1/rate finite in float64, monotone time, immutability),
   and ``require_uniform``'s spacing rule, with a tolerance that admits 1%
   logger jitter and epoch timestamps and an error that names the worst gap;
 - a noise-free record with one row or a 10% block of rows deleted is a
   TimeSeries, fits raw to ``c`` within 1e-9 relative on the gradient test,
   and refuses SG smoothing with the error that names its gap;
 - the analytic Jacobian, ``ExponentialStepModel.jacobian_row``, at its
   boundary values and against central finite differences over random
   draws, bit for bit the closed form ``(e, 1 - e, -t (a - b) e)`` with
   ``e = exp(-c t)`` on the slow regime's grid (also where ``c t``
   overflows, for a negative rate and where only the rate column
   overflows) and at a scalar ``t = 0``, and that
   the solver model predicts through ``step_response`` and rejects, in both
   methods, negative times with ``step_response``'s one message and a
   non-finite rate;
 - starting-value quality on clean falling and rising curves, and the
   flat-series rejection;
 - R-squared point values and its rejection of inputs that are not 1-d
   arrays of one length of at least 2, of a constant input and of one
   whose total sum of squares underflows to zero;
 - round-trip identification (clean to machine accuracy, noisy within 2%),
   plus the sampling-rate, smoothing-neutrality and time-shift properties;
 - on the noisy acceptance regimes, raw and smoothed, the fitted ``c`` lies
   within 1e-6 standard errors of the profile oracle's stationary point
   (``helpers.stationary_rate``), and the report's ``stats["se"]`` (from
   ``pinv``) is ``helpers.standard_errors`` (from ``inv``) to 1e-9;
 - the report's standard error of ``c`` is calibrated: over 100 seeds at 1
   and 3 time constants, raw and smoothed, and on a 0.1 Hz record of 100,000 s
   whose normal matrix has a condition number near 6e15, the RMS of
   ``(c - c_true) / SE`` lies in [0.8, 1.2];
 - the standard errors do not depend on the time unit: time in units of
   ``k`` seconds (``k`` from 1e-6 to 1e6) gives the same ``se_a``, ``se_b``
   and ``se_c * k`` to 1e-9;
 - constant weights give the unweighted standard errors; the correlation
   matrix is exactly symmetric, with a diagonal of exactly 1 and entries in
   [-1, 1], also on a short record whose ``b``-``c`` ratio rounds past 1; a
   record cut at half a time constant warns that the SE of ``c`` is over 10%
   of ``|c|``, and the slow regime does not;
 - the fit runs on elapsed time: any clock origin gives the same fit, and
   ``FitReport.fitted`` is the read-only model the R-squared was taken on;
 - the fits of the default and slow-regime ``pipeline`` records, SG(3, 901)
   smoothed, keep their ``c`` to 1e-12 relative and their 4 accepted steps;
 - warnings for oversized windows, non-positive rates, a rate whose
   ``1/c`` or ``a/c`` overflows (no process parameters, nothing raised),
   capped runs and a fitted curve that leaves the range of the raw data
   (but not for a record that stops short of its asymptote);
 - the range warning allows half the record's resolution (``stats
   ["resolution"]``, the smallest gap between distinct raw values): over
   100 seeds of clean records printed to 0.1, 0.0625 and 0.01 degC, and
   unrounded, it fires at most 2% of the time (10% at 0.01 degC), while a
   record with 20 s of dead time, rounded or not, still warns;
 - trial steps that overflow stay silent, and a record too large for
   float64 fails with SingularEquationsError, not with NumPy warnings,
   also when tiny weights keep the weighted cost finite but not R^2, or
   when the means that start the fit overflow; a smoothed target that
   overflows is an InvalidParameterError with and without ``p0``, and the
   smoother itself stays silent; a raw residual whose square overflows
   while the smoothed target's do not leaves every statistic of ``stats``
   but ``dfe`` and ``resolution`` None.
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
    Weights,
    fit_series,
    generate,
    initial_guess,
    r_squared,
    sg_smooth,
    step_response,
)
from thermofit.pipeline import ExponentialStepModel

from helpers import standard_errors, stationary_rate


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
    t, y = np.arange(3.0), np.zeros(3)
    for t2, y2 in ((t[:, None], y), (t, y[:, None])):  # (n, 1) columns
        with pytest.raises(DataLengthError, match="must be 1-d arrays"):
            TimeSeries(t2, y2, 1.0)
    with pytest.raises(InvalidParameterError):
        TimeSeries(np.array([0.0, 1.0]), np.array([1.0, 2.0]), 0.0)
    # 1/rate overflows, so a spacing test against it would compare NaN
    with pytest.raises(InvalidParameterError, match="1/rate"):
        TimeSeries(np.array([0.0, 1.0, 2.0]), np.zeros(3), 5e-324)


def test_time_series_requires_strictly_increasing_time():
    with pytest.raises(InvalidParameterError):
        TimeSeries(np.array([0.0, 1.0, 1.0]), np.zeros(3), 1.0)
    with pytest.raises(InvalidParameterError):
        TimeSeries(np.array([0.0, 1.0, 0.5]), np.zeros(3), 1.0)


def test_time_series_rejects_nonuniform_spacing():
    t = np.array([0.0, 0.01, 0.021])  # second gap 5% long
    with pytest.raises(NonUniformSamplingError, match="between t = 0.01 and t = 0.021$"):
        TimeSeries(t, np.zeros(3), 100.0).require_uniform()


def test_time_series_accepts_logger_jitter_up_to_one_percent():
    t = np.array([0.0, 0.01, 0.02009, 0.03])  # gaps 0.9% long and short
    assert TimeSeries(t, np.zeros(4), 100.0).require_uniform().n == 4
    t[2] = 0.02011
    with pytest.raises(NonUniformSamplingError, match="1.100e-02 relative"):
        TimeSeries(t, np.zeros(4), 100.0).require_uniform()


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
        assert TimeSeries(t, np.zeros(t.size), 100.0).require_uniform().n == 3001
        t[2] += 0.0005  # a 5% long gap is still caught
        with pytest.raises(NonUniformSamplingError):
            TimeSeries(t, np.zeros(t.size), 100.0).require_uniform()


@pytest.mark.parametrize(
    "rows, gap",
    [([1500], "149.9 and t = 150.1"), (range(1000, 1300), "99.9 and t = 130.0")],
    ids=["one-row", "block-10pct"],
)
def test_a_gapped_record_fits_raw_but_is_not_smoothed(rows, gap):
    # LM runs on elapsed time, so only the smoother needs the uniform grid
    full = clean_series(30.0, 25.0, 0.01, rate=10.0, duration=300.0)
    ts = TimeSeries(np.delete(full.t, rows), np.delete(full.y, rows), 10.0)
    rep = fit_series(ts)
    assert rep.fit.c == pytest.approx(0.01, rel=1e-9)
    assert rep.result.converged == "grad"
    with pytest.raises(NonUniformSamplingError, match=f"between t = {gap}$"):
        fit_series(ts, smoothing=SGConfig(3, 51))


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
        ExponentialStepModel().jacobian_row(0.0, [30.0, 25.0, 0.01]), [1.0, 0.0, 0.0],
        atol=1e-15
    )


def test_jacobian_in_the_decay_limit():
    row = ExponentialStepModel().jacobian_row(1e6, [30.0, 25.0, 0.01])
    np.testing.assert_allclose(row, [0.0, 1.0, 0.0], atol=1e-12)


def test_jacobian_closed_form_point():
    row = ExponentialStepModel().jacobian_row(100.0, [30.0, 25.0, 0.01])
    e = np.exp(-1.0)
    np.testing.assert_allclose(row, [e, 1.0 - e, -500.0 * e], rtol=1e-12)
    np.testing.assert_allclose(
        row, [0.367879, 0.632121, -183.9397], atol=5e-5
    )


def test_jacobian_rejects_negative_time():
    with pytest.raises(InvalidParameterError):
        ExponentialStepModel().jacobian_row(-1.0, [30.0, 25.0, 0.01])


def test_solver_model_is_step_response_and_its_jacobian():
    model = ExponentialStepModel()
    t = np.linspace(0.0, 500.0, 11)
    p = np.array([30.0, 25.0, 0.01])
    np.testing.assert_array_equal(model.predict(t, p), step_response(FitParams(*p), t))
    for method in (model.predict, model.jacobian_row):
        with pytest.raises(InvalidParameterError, match=r"^step_response requires t >= 0$"):
            method(np.array([-1.0, 0.0]), p)
        with pytest.raises(InvalidParameterError, match="c must be finite"):
            method(t, [30.0, 25.0, np.nan])


@pytest.mark.parametrize("t, c", [
    (np.arange(75001) / 100, 0.004),  # the slow regime's grid
    (np.arange(75001) / 100, 1e308),  # c t overflows to inf from t = 2 on
    (np.arange(75001) / 100, -0.01),
    (np.array([0.0, 10.0]), -70.9),  # exp(709) is finite, -t (a - b) e is not
    (0.0, 0.004),
], ids=["slow", "overflow", "negative-rate", "rate-column-overflow", "scalar"])
def test_jacobian_is_the_closed_form_bit_for_bit(t, c):
    # the reference: the closed form, with its own exponential
    t_arr = np.asarray(t, dtype=float)
    with np.errstate(over="ignore"):
        e = np.exp(-c * t_arr)
        expected = np.stack([e, 1.0 - e, -t_arr * (30.0 - 25.0) * e], axis=-1)
    row = ExponentialStepModel().jacobian_row(t, [30.0, 25.0, c])
    np.testing.assert_array_equal(row, expected, strict=True)


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


def test_r_squared_rejects_a_total_sum_of_squares_that_underflows():
    # the spread is 2e-170, but its squares are below the smallest subnormal
    y = 1e-170 * np.array([0.0, 1.0, 2.0])
    with pytest.raises(FlatSeriesError, match="underflows float64"):
        r_squared(y, y)


def test_r_squared_rejects_length_mismatch():
    with pytest.raises(DataLengthError):
        r_squared(np.arange(4.0), np.arange(5.0))
    y2 = np.array([[1.0, 2.0], [3.0, 5.0]])
    for y, yhat in ((y2, y2 + 1.0), ([1.0], [1.0]), ([], [])):  # 2-d, 1 and 0 samples
        with pytest.raises(DataLengthError, match="equal length >= 2"):
            r_squared(y, yhat)


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


@pytest.mark.parametrize("smoothing", [None, SGConfig(order=3, window=901)],
                         ids=["raw", "sg-3-901"])
@pytest.mark.parametrize("a, b, c", [(34.43, 43.65, 0.0415), (29.18, 26.01, 0.0049),
                                     (29.07, 25.68, 0.004)])
def test_fit_series_stops_at_the_profile_stationary_point(a, b, c, smoothing):
    # the acceptance regimes, noisy (seed 0): c lies within 1e-6 standard
    # errors (s^2 from the raw residuals) of the oracle's stationary point of
    # the fitted target
    ts = clean_series(a, b, c, sigma=0.5, seed=0)
    rep = fit_series(ts, smoothing=smoothing)
    c_star = stationary_rate(ts.t - ts.t[0], rep.target, 0.5 * c, 2.0 * c)
    assert abs(rep.fit.c - c_star) <= 1e-6 * standard_errors(ts, rep)[2]
    np.testing.assert_allclose(rep.stats["se"], standard_errors(ts, rep), rtol=1e-9)


@pytest.mark.parametrize("smoothing", [None, SGConfig(order=3, window=251)],
                         ids=["raw", "sg-3-251"])
@pytest.mark.parametrize("duration", [250.0, 750.0], ids=["1tau", "3tau"])
def test_standard_error_of_c_is_calibrated(duration, smoothing):
    # slow regime at 10 Hz, sigma 0.5, 100 seeds: the RMS of the standardized
    # error of c is near 1 (measured 1.039 and 0.977 raw, 1.039 and 0.984
    # smoothed, at 1 and 3 time constants)
    c = 0.004
    z = []
    for seed in range(100):
        ts = clean_series(29.07, 25.68, c, rate=10.0, duration=duration,
                          sigma=0.5, seed=seed)
        rep = fit_series(ts, smoothing=smoothing)
        z.append((rep.fit.c - c) / rep.stats["se"][2])
    assert 0.8 <= np.sqrt(np.mean(np.square(z))) <= 1.2


def long_slow_record(seed):
    # 0.1 Hz for 100,000 s, a 100 degC step at c = 1e-5: cond(J^T W J) near 6e15,
    # where an unscaled pinv drops the weakest direction
    return generate(SynthSpec(FitParams(20.0, 120.0, 1e-5), 0.1, 1e5, 0.5, seed))


def test_standard_error_of_c_is_calibrated_on_a_long_slow_record():
    # measured 0.951 (7.52 from the unscaled pinv)
    z = []
    for seed in range(100):
        rep = fit_series(long_slow_record(seed))
        z.append((rep.fit.c - 1e-5) / rep.stats["se"][2])
    assert 0.8 <= np.sqrt(np.mean(np.square(z))) <= 1.2


@pytest.mark.parametrize("seed", range(3))
def test_standard_errors_do_not_depend_on_the_time_unit(seed):
    # time in units of k seconds fits c / k: se_c * k, se_a and se_b stay put, measured
    # within 4e-13 (the unscaled pinv gave se_b 0.138, 1.0e-3 and 2.5e-22 at k = 1e-3,
    # 1 and 1e3)
    ts = long_slow_record(seed)
    ref = np.array(fit_series(ts).stats["se"])
    for k in (1e-6, 1e-3, 1e3, 1e6):
        rep = fit_series(TimeSeries(ts.t * k, ts.y, ts.rate / k))
        np.testing.assert_allclose(np.array(rep.stats["se"]) * [1.0, 1.0, k], ref,
                                   rtol=1e-9, err_msg=f"k = {k}")


def test_constant_weights_give_the_unweighted_standard_errors():
    # sse and J^T W J both scale by the weight, so their ratio does not
    ts = clean_series(29.07, 25.68, 0.004, rate=10.0, duration=750.0, sigma=0.5,
                      seed=0)
    plain = fit_series(ts)
    weighted = fit_series(ts, weights=Weights.from_sigma(np.full(ts.n, 0.25)))
    np.testing.assert_allclose(weighted.stats["se"], plain.stats["se"], rtol=1e-12)


@pytest.mark.parametrize("smoothing", [None, SGConfig(order=3, window=901)],
                         ids=["raw", "sg-3-901"])
def test_correlation_is_a_correlation_matrix(smoothing):
    ts = clean_series(29.07, 25.68, 0.004, duration=750.0, sigma=0.5, seed=0)
    corr = np.array(fit_series(ts, smoothing=smoothing).stats["correlation"])
    assert np.array_equal(corr, corr.T)
    assert np.all(np.diag(corr) == 1.0)
    assert np.all(np.abs(corr) <= 1.0)


def test_correlation_is_clipped_where_rounding_passes_1():
    # 20 samples at 1 Hz of (30, 25, 1.7e-4) plus noise of sigma 0.011: record 1270
    # of those drawn from default_rng(0) as n, c, sigma, then the noise. It fits to
    # b ~ a and c ~ 3e-9, where cov_bc / (se_b se_c) rounds to 1.0000000000000016
    y = [29.9842803314033, 29.986708615337754, 30.000447109450075, 30.00468175248731,
         29.97699096616957, 29.97798383492316, 29.982095636922313, 30.004993106811888,
         29.998547387753696, 30.003949101139256, 29.990027591844328, 29.99524385949132,
         29.979940702717055, 29.978953218495686, 29.981921030615283, 29.98386200215134,
         30.011773153155925, 29.992672527319552, 29.97215307646052, 29.977731314745736]
    corr = np.array(fit_series(TimeSeries(np.arange(20.0), np.array(y), 1.0))
                    .stats["correlation"])
    assert np.all(np.abs(corr) <= 1.0)


def test_standard_error_warning_flags_a_record_cut_at_half_a_time_constant():
    cut = generate(SynthSpec(FitParams(30.0, 25.0, 0.01), 1.0, 50.0, 0.05, 0))
    rep = fit_series(cut)
    assert rep.stats["se"][2] > 0.1 * rep.fit.c  # measured 20%
    assert [w for w in rep.warnings if "standard error" in w] == [
        f"standard error of c {rep.stats['se'][2]:.3g} exceeds 10% of "
        f"|c| = {rep.fit.c:.3g}; the rate is poorly determined"
    ]
    slow = clean_series(29.07, 25.68, 0.004, duration=750.0, sigma=0.5, seed=0)
    rep = fit_series(slow, smoothing=SGConfig(order=3, window=901))
    assert rep.stats["se"][2] < 0.01 * rep.fit.c  # measured 0.65%
    assert rep.warnings == ()


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


@pytest.mark.parametrize("c0, name", [(1e-307, "t_ambient"), (1e-310, "tau")])
def test_fit_series_flags_a_rate_whose_process_overflows(c0, name):
    # a huge gradient tolerance stops the run at p0, where a / c (1e-307) or
    # 1 / c (1e-310) is beyond float64: fit_to_process's rule, not a crash
    ts = clean_series(30.0, 25.0, 0.01, rate=10.0, sigma=0.05, seed=1)
    p0 = FitParams(30.0, 25.0, c0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = fit_series(ts, p0=p0, cfg=LMConfig(tol_grad=1e300))
    assert rep.result.converged == "grad"
    assert rep.fit == p0
    assert rep.process is None
    assert f"{name} must be finite; no process parameters derived" in rep.warnings


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


@pytest.mark.parametrize("overrides, c", [
    ({}, 0.0099319964970529),
    ({"truth": FitParams(30.0, 25.0, 0.004), "duration": 750.0, "seed": 586626706},
     0.004007992995103693),
], ids=["default", "slow"])
def test_pipeline_reference_fits_stay_put(overrides, c):
    # the records and SG(3, 901) smoothing of `thermofit pipeline` with its
    # defaults and of `--c0 0.004 --duration 750 --seed 586626706`; a change
    # of the start or the solver that moves either fit re-baselines here
    rep = fit_series(default_record(**overrides), smoothing=SGConfig(3, 901))
    assert rep.fit.c == pytest.approx(c, rel=1e-12, abs=0)
    assert rep.result.accepted_steps == 4


def test_fit_series_flags_fit_outside_data_range():
    # one 1e6 outlier drags the fit to a = 1.71, below every sample; the
    # trial steps on the way overflow the cost, which must stay silent.  The
    # start is the first-crossing one, which reaches both; from the counted
    # start the fit stops at the iteration cap inside the range
    ts = default_record()
    y = ts.y.copy()
    y[ts.n // 2] = 1e6
    p0 = FitParams(29.926168378264908, 25.25884181364896, 0.032082130253448825)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = fit_series(TimeSeries(ts.t, y, ts.rate), p0=p0)
    assert rep.fit.a < y.min()
    assert [w for w in rep.warnings if "outside the data range" in w] == [
        f"fitted value at the first sample (a) {rep.fit.a:.6g} lies outside "
        f"the data range [{y.min():.6g}, {y.max():.6g}]"
    ]


def out_of_range(rep):
    return any("outside the data range" in w for w in rep.warnings)


@pytest.mark.parametrize("q, sigma, allowed", [
    (0.1, 0.02, 2), (0.1, 0.05, 2), (0.0625, 0.0, 2), (0.01, 0.005, 10), (None, 0.05, 2),
])
def test_range_warning_allows_for_the_record_resolution(q, sigma, allowed):
    # a logger prints to a resolution q, so a clean record's extreme samples
    # may sit up to q/2 inside the true ends; without that slack the warning
    # fired on 70, 14, 100, 42 and 1 of these 100 seeds
    alarms = 0
    for seed in range(100):
        ts = clean_series(30.0, 25.0, 0.01, rate=10.0, duration=300.0, seed=seed,
                          sigma=sigma)
        y = ts.y if q is None else np.round(ts.y / q) * q
        rep = fit_series(TimeSeries(ts.t, y, ts.rate))
        if q is not None:
            assert rep.stats["resolution"] == pytest.approx(q)
        alarms += out_of_range(rep)
    assert alarms <= allowed


@pytest.mark.parametrize("q", [None, 0.1])
def test_range_warning_still_flags_a_record_with_dead_time(q):
    # 20 s at 30 degC before the decay starts: the fit puts a near 30.63,
    # half a degree above every sample, which the slack must not excuse
    t = np.arange(3001) / 10.0
    for seed in range(5):
        noise = np.random.default_rng(seed).normal(0.0, 0.05, t.size)
        y = np.where(t < 20, 30.0, 25.0 + 5.0 * np.exp(-0.01 * (t - 20))) + noise
        y = y if q is None else np.round(y / q) * q
        rep = fit_series(TimeSeries(t, y, 10.0))
        assert rep.fit.a > y.max() + 0.3
        assert out_of_range(rep)


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


def test_start_or_end_level_that_overflows_is_a_numerical_error():
    # finite samples near 3e307, whose head and tail means overflow float64
    ts = default_record(truth=FitParams(30.0, 25.0, 0.05), rate=10.0, duration=60.0,
                        seed=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        big = TimeSeries(ts.t, ts.y * 1e306, ts.rate)
        for call in (initial_guess, fit_series):
            with pytest.raises(SingularEquationsError, match="level overflows"):
                call(big)
        # SG(3, 21) sums of samples near 5e307 overflow; TimeSeries rejects them
        assert not np.isfinite(sg_smooth(ts.y * 1.7e306, SGConfig(3, 21))).all()


def test_fit_series_overflowing_smoothed_target_is_invalid_with_and_without_p0():
    # the record is finite, but SG(3, 21) sums overflow to inf: the smoothed
    # target is rejected as a TimeSeries, whether or not p0 is given
    t = 0.5 * np.arange(200)
    ts = TimeSeries(t, 1.79e308 * (0.05 * np.exp(-0.1 * t) + 0.95), 2.0)
    for p0 in (None, FitParams(1.5e308, 1.2e308, 0.1)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidParameterError, match="t and y must be finite"):
                fit_series(ts, smoothing=SGConfig(order=3, window=21), p0=p0)


def test_fit_series_weighted_fit_with_non_finite_r_squared_is_a_numerical_error():
    # weights of 1e-300 keep the weighted cost of a 1e155-scale record
    # finite; its unweighted sums of squares, which R^2 takes, overflow
    t = 0.5 * np.arange(40)
    ts = TimeSeries(t, 1e155 * (5.0 * np.exp(-0.1 * t) + 25.0), 2.0)
    with pytest.raises(SingularEquationsError, match="R\\^2 or fitted values"):
        fit_series(ts, weights=Weights(np.full(40, 1e-300)))


def test_raw_sse_that_overflows_is_reported_as_none():
    # SG(3, 21) spreads a 2e154 spike so that the fitted target's squares stay
    # finite, but the raw residual's square overflows: no statistic is reported
    t = 0.5 * np.arange(200)
    y = 5.0 * np.exp(-0.05 * t) + 25.0
    y[100] = 2e154
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = fit_series(TimeSeries(t, y, 2.0), smoothing=SGConfig(order=3, window=21))
    assert rep.stats == {"dfe": 197, "sse": None, "rmse": None, "se": None,
                         "correlation": None,
                         "resolution": float(np.diff(np.unique(y)).min())}


def test_fit_series_starting_override_is_used():
    ts = clean_series(30.0, 25.0, 0.01)
    rep = fit_series(ts, p0=FitParams(29.0, 26.0, 0.012))
    np.testing.assert_allclose(
        [rep.fit.a, rep.fit.b, rep.fit.c], [30.0, 25.0, 0.01], rtol=1e-6
    )
