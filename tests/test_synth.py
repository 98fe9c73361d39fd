"""Synthetic generator: grid arithmetic, determinism and noise statistics,
a rate constant whose product with time overflows, and the settings
``SynthSpec`` rejects because ``generate`` cannot honour them."""

import numpy as np
import pytest

from thermofit import (
    ExponentialStepModel,
    FitParams,
    InvalidParameterError,
    SynthSpec,
    generate,
    step_response,
)

TRUTH = FitParams(30.0, 25.0, 0.01)


def test_zero_noise_equals_step_response_exactly():
    spec = SynthSpec(truth=TRUTH, rate=100.0, duration=10.0, noise_sigma=0.0)
    ts = generate(spec)
    np.testing.assert_array_equal(ts.y, step_response(TRUTH, ts.t))


def test_sample_count_and_grid():
    ts = generate(SynthSpec(truth=TRUTH, rate=100.0, duration=10.0))
    assert ts.n == 1001
    assert ts.t[0] == 0.0
    assert ts.t[-1] == pytest.approx(10.0, abs=1e-12)
    assert ts.rate == 100.0


def test_identical_spec_is_bitwise_identical():
    spec = SynthSpec(truth=TRUTH, rate=100.0, duration=30.0, noise_sigma=0.5, seed=99)
    a = generate(spec)
    b = generate(spec)
    np.testing.assert_array_equal(a.y, b.y)
    np.testing.assert_array_equal(a.t, b.t)


def test_seed_changes_noise_but_not_clean_component():
    clean1 = generate(SynthSpec(truth=TRUTH, rate=100.0, duration=30.0, seed=1))
    clean2 = generate(SynthSpec(truth=TRUTH, rate=100.0, duration=30.0, seed=2))
    np.testing.assert_array_equal(clean1.y, clean2.y)

    noisy1 = generate(
        SynthSpec(truth=TRUTH, rate=100.0, duration=30.0, noise_sigma=0.5, seed=1)
    )
    noisy2 = generate(
        SynthSpec(truth=TRUTH, rate=100.0, duration=30.0, noise_sigma=0.5, seed=2)
    )
    assert not np.array_equal(noisy1.y, noisy2.y)
    # subtracting each run's own noise leaves the same clean series
    np.testing.assert_array_equal(
        noisy1.y - (noisy1.y - clean1.y), noisy2.y - (noisy2.y - clean2.y)
    )


def test_rate_constant_whose_product_with_time_overflows():
    # c t overflows to inf from t = 2 on, where exp(-c t) is 0 anyway: the
    # values are exact, and the warnings-as-errors filter sees no NumPy warning
    truth = FitParams(30.0, 25.0, 1e308)
    ts = generate(SynthSpec(truth, rate=1.0, duration=60.0))
    assert ts.y[0] == 30.0
    np.testing.assert_array_equal(ts.y[1:], 25.0)
    row = ExponentialStepModel().jacobian_row(ts.t[1:], [30.0, 25.0, 1e308])
    np.testing.assert_array_equal(row, np.tile([0.0, 1.0, 0.0], (60, 1)))


def test_noise_statistics_over_long_record():
    sigma = 0.5
    spec = SynthSpec(
        truth=TRUTH, rate=1000.0, duration=100.0, noise_sigma=sigma, seed=0
    )
    ts = generate(spec)
    assert ts.n == 100001
    noise = ts.y - step_response(TRUTH, ts.t)
    assert abs(np.mean(noise)) < 4.0 * sigma / np.sqrt(ts.n)
    assert abs(np.std(noise) / sigma - 1.0) < 0.02


def test_spec_validation():
    with pytest.raises(InvalidParameterError):
        SynthSpec(truth=TRUTH, rate=0.0, duration=10.0)
    with pytest.raises(InvalidParameterError):
        SynthSpec(truth=TRUTH, rate=100.0, duration=0.0)
    with pytest.raises(InvalidParameterError):
        SynthSpec(truth=TRUTH, rate=100.0, duration=10.0, noise_sigma=-0.1)
    # what generate cannot honour: a sample grid float64 cannot hold exactly,
    # a seed Philox refuses, and a noise level that is not finite
    for settings, message in [
        (dict(rate=1e150, duration=1e150), "duration \\* rate must be finite"),
        (dict(rate=1.0, duration=2.0**53), "< 2\\*\\*53"),
        (dict(rate=1.0, duration=10.0, seed=-1), "seed must be non-negative"),
        (dict(rate=1.0, duration=10.0, noise_sigma=np.nan), "noise_sigma"),
        (dict(rate=1.0, duration=10.0, noise_sigma=np.inf), "noise_sigma"),
    ]:
        with pytest.raises(InvalidParameterError, match=message):
            SynthSpec(truth=TRUTH, **settings)
