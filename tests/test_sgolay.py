"""Savitzky-Golay filter: projection matrix and smoothing behavior.

The projection is cross-checked against an independent brute-force oracle
that fits each window position with numpy.polyfit (SVD least squares),
entirely separate from the QR construction under test.  The smoother,
which applies the QR basis without forming the projection, is checked
against ``helpers.projection_smooth``, which applies the projection itself.

Proves:
 - degree-0 projection is the moving average, degree window-1 the identity;
 - the classic quadratic 5-point central row (-3, 12, 17, 12, -3)/35;
 - symmetry, idempotency, and unit central-row sum;
 - exact reproduction of polynomials up to the configured degree,
   linearity, and length preservation including the edge rows;
 - smoothing strictly reduces the RMS deviation of noisy data from the
   clean curve;
 - the smoother agrees with the projection reference to 1e-13 of the
   data's largest magnitude, and a window of 20,001 samples stays within
   a few megabytes (memory linear in the window);
 - configuration validation, including numerically singular designs and
   designs whose Vandermonde matrix overflows float64 (no NumPy warning).
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from helpers import projection_smooth
from thermofit import (
    DataLengthError,
    FilterConfigError,
    FitParams,
    SGConfig,
    sg_projection,
    sg_smooth,
    step_response,
)


def oracle_projection(order: int, window: int) -> np.ndarray:
    """Brute-force projection: column j is polyfit of the j-th unit vector."""
    x = np.arange(window, dtype=float) - window // 2
    b = np.empty((window, window))
    for j in range(window):
        e = np.zeros(window)
        e[j] = 1.0
        coeffs = np.polyfit(x, e, order)
        b[:, j] = np.polyval(coeffs, x)
    return b


# ------------------------------------------------------------- configuration


def test_config_rejects_even_or_small_window():
    with pytest.raises(FilterConfigError):
        SGConfig(order=1, window=4)
    with pytest.raises(FilterConfigError):
        SGConfig(order=0, window=1)


def test_config_rejects_order_out_of_range():
    with pytest.raises(FilterConfigError):
        SGConfig(order=5, window=5)
    with pytest.raises(FilterConfigError):
        SGConfig(order=-1, window=5)


def test_numerically_singular_design_raises():
    # a full-degree polynomial over a wide window overwhelms float64; from
    # order 142 at window 301 the Vandermonde matrix itself overflows, which
    # must raise the same error, not a NumPy warning and a NaN matrix; the
    # smoother shares the check through the basis, not through sg_projection
    for order, window in [(100, 101), (142, 301), (299, 301)]:
        cfg = SGConfig(order=order, window=window)
        for build in (sg_projection, lambda cfg: sg_smooth(np.ones(cfg.window), cfg)):
            with pytest.raises(FilterConfigError, match="numerically singular"):
                build(cfg)


# ------------------------------------------------------------- projection


def test_degree_zero_is_moving_average():
    b = sg_projection(SGConfig(order=0, window=3))
    np.testing.assert_allclose(b, np.full((3, 3), 1.0 / 3.0), atol=1e-15)


def test_full_degree_is_identity():
    for window in (3, 5, 7):
        b = sg_projection(SGConfig(order=window - 1, window=window))
        np.testing.assert_allclose(b, np.eye(window), atol=1e-9)


def test_quadratic_five_point_central_row():
    b = sg_projection(SGConfig(order=2, window=5))
    expected = np.array([-3.0, 12.0, 17.0, 12.0, -3.0]) / 35.0
    np.testing.assert_allclose(b[2], expected, atol=1e-10)


def test_projection_matches_brute_force_oracle():
    for order, window in ((2, 5), (3, 9), (1, 7), (0, 5), (4, 11)):
        b = sg_projection(SGConfig(order=order, window=window))
        np.testing.assert_allclose(
            b, oracle_projection(order, window), atol=1e-10,
            err_msg=f"order={order}, window={window}",
        )


@pytest.mark.parametrize(
    "order,window", [(0, 3), (1, 5), (2, 5), (3, 9), (2, 21), (3, 901)]
)
def test_projection_symmetric_idempotent_unit_sum(order, window):
    b = sg_projection(SGConfig(order=order, window=window))
    assert np.max(np.abs(b - b.T)) < 1e-12
    assert np.max(np.abs(b @ b - b)) < 1e-9
    assert abs(np.sum(b[window // 2]) - 1.0) < 1e-12


# ---------------------------------------------------------------- smoothing


def test_constant_sequence_is_unchanged():
    data = np.full(40, 21.5)
    for cfg in (SGConfig(0, 3), SGConfig(2, 5), SGConfig(3, 11)):
        np.testing.assert_allclose(sg_smooth(data, cfg), data, atol=1e-12)


def test_polynomial_is_reproduced_exactly():
    t = np.linspace(0.0, 5.0, 60)
    data = 0.3 * t**3 - 2.0 * t**2 + t + 25.0
    out = sg_smooth(data, SGConfig(order=3, window=11))
    assert np.max(np.abs(out - data)) < 1e-10


def test_smoothing_is_linear():
    rng = np.random.Generator(np.random.Philox(21))
    x = rng.normal(0.0, 1.0, 200)
    y = rng.normal(0.0, 1.0, 200)
    cfg = SGConfig(order=2, window=15)
    combined = sg_smooth(1.7 * x - 0.6 * y, cfg)
    separate = 1.7 * sg_smooth(x, cfg) - 0.6 * sg_smooth(y, cfg)
    assert np.max(np.abs(combined - separate)) < 1e-9


def test_output_length_matches_input():
    data = np.sin(np.linspace(0.0, 3.0, 37))
    assert sg_smooth(data, SGConfig(2, 7)).size == 37


def test_short_data_rejected():
    with pytest.raises(DataLengthError):
        sg_smooth(np.ones(10), SGConfig(order=2, window=11))
    with pytest.raises(DataLengthError):
        sg_smooth(np.ones((5, 5)), SGConfig(order=2, window=5))


def test_smoothing_reduces_rms_noise():
    truth = FitParams(30.0, 25.0, 0.01)
    t = np.arange(0, 10001) / 100.0  # 100 Hz over 100 s
    clean = step_response(truth, t)
    rng = np.random.Generator(np.random.Philox(9))
    noisy = clean + rng.normal(0.0, 0.5, t.size)
    smoothed = sg_smooth(noisy, SGConfig(order=3, window=901))
    rms_before = np.sqrt(np.mean((noisy - clean) ** 2))
    rms_after = np.sqrt(np.mean((smoothed - clean) ** 2))
    assert rms_after < rms_before
    # the wide window should wipe out most of the noise, not just some
    assert rms_after < 0.2 * rms_before


@given(
    window=st.integers(1, 100).map(lambda k: 2 * k + 1),
    order=st.integers(0, 7),  # order 8 is numerically singular from window 185
    extra=st.integers(0, 300),
    seed=st.integers(0, 2**32 - 1),
    level=st.floats(-1e6, 1e6),
    sigma=st.floats(1e-6, 1e6),
)
@example(window=901, order=3, extra=600, seed=5, level=30.0, sigma=0.5)
@example(window=3, order=2, extra=0, seed=0, level=0.0, sigma=1.0)
def test_smooth_matches_projection_reference(window, order, extra, seed, level, sigma):
    cfg = SGConfig(order=min(order, window - 1), window=window)
    rng = np.random.Generator(np.random.Philox(seed))
    y = level + rng.normal(0.0, sigma, window + extra)
    err = np.max(np.abs(sg_smooth(y, cfg) - projection_smooth(y, cfg)))
    assert err <= 1e-13 * np.max(np.abs(y))


def test_wide_window_memory_is_linear():
    # the window x window projection would be 3.2 GB here; the basis is 640 kB
    y = np.sin(np.arange(40_001) / 5000.0)
    tracemalloc.start()
    try:
        sg_smooth(y, SGConfig(order=3, window=20_001))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6
