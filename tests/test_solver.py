"""Levenberg-Marquardt solver: step computation, the full iteration, and
the finite-difference Jacobian validator.

Proves:
 - an undamped step from any point lands exactly on the least-squares
   solution of a linear problem, and a zero-residual start yields a zero
   step;
 - damping shrinks the step monotonically (measured in the diagonal
   scaling's own metric) and drives it to zero;
 - the full fit recovers exponential parameters from exact data to 1e-8
   with gradient convergence, and reproduces ordinary least squares when
   the damping is pinned at zero;
 - accepted costs decrease strictly; rejected steps only grow the damping;
 - a fit restarted at its own solution stops on the step test, not at the
   iteration cap;
 - uniform output scaling by a power of two leaves the iterate path
   bitwise identical and scales the cost by the square;
 - identical inputs give bitwise identical results;
 - data whose cost or normal matrix overflows float64 raise
   SingularEquationsError from lm_fit and lm_step without a NumPy warning,
   and on any finite data up to 1e300 lm_fit ends with a finite cost or
   that error (hypothesis);
 - the validator flags a sign-flipped Jacobian column with deviation 2
   and passes correct Jacobians at finite-difference accuracy.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    DeadParameterModel,
    FlippedJacobianModel,
    LinearModel,
    ScaledModel,
    TwoParamExpModel,
)

from thermofit import (
    DataLengthError,
    FitParams,
    InvalidParameterError,
    LMConfig,
    SingularEquationsError,
    SynthSpec,
    TimeSeries,
    Weights,
    generate,
    initial_guess,
    lm_fit,
    lm_step,
    step_response,
    validate_jacobian,
)
from thermofit.pipeline import ExponentialStepModel

T_LIN = np.arange(10.0)
Y_LIN = 2.0 * T_LIN + 1.0


# ----------------------------------------------------------------- lm_step


def test_undamped_step_is_exact_least_squares():
    model = LinearModel()
    for p in ([0.0, 0.0], [5.0, -3.0], [100.0, 42.0]):
        p = np.array(p)
        h = lm_step(model, T_LIN, Y_LIN, None, p, 0.0)
        np.testing.assert_allclose(p + h, [2.0, 1.0], atol=1e-10)


def test_zero_residual_gives_zero_step():
    model = TwoParamExpModel()
    truth = np.array([3.0, 0.4])
    t = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
    y = model.predict(t, truth)
    h = lm_step(model, t, y, None, truth, 1e-3)
    assert np.max(np.abs(h)) < 1e-10


def test_damping_shrinks_step_monotonically():
    # monotone in the diag(J^T W J) metric the damping acts in; the plain
    # norm still collapses to zero
    model = LinearModel()
    p = np.array([0.0, 0.0])
    j = model.jacobian_row(T_LIN, p)
    scale = np.sqrt(np.diag(j.T @ j))
    lams = (0.0, 0.1, 1.0, 10.0, 100.0, 1e4, 1e6)
    steps = [lm_step(model, T_LIN, Y_LIN, None, p, lam) for lam in lams]
    scaled_norms = [np.linalg.norm(scale * h) for h in steps]
    assert all(a > b for a, b in zip(scaled_norms, scaled_norms[1:]))
    assert np.linalg.norm(steps[-1]) < 1e-4 * np.linalg.norm(steps[0])


def test_lm_step_rejects_negative_damping_and_short_data():
    model = LinearModel()
    with pytest.raises(InvalidParameterError):
        lm_step(model, T_LIN, Y_LIN, None, np.zeros(2), -1.0)
    with pytest.raises(DataLengthError):
        lm_step(model, T_LIN[:1], Y_LIN[:1], None, np.zeros(2), 1.0)


def test_singular_system_raises_distinct_error():
    model = DeadParameterModel()
    with pytest.raises(SingularEquationsError):
        lm_step(model, T_LIN, Y_LIN, None, np.array([1.0, 1.0]), 1e-3)
    with pytest.raises(SingularEquationsError):
        lm_fit(model, T_LIN, Y_LIN, None, np.array([1.0, 1.0]))


# ------------------------------------------------------------------ weights


def test_weights_validation():
    with pytest.raises(InvalidParameterError):
        Weights(np.array([1.0, 0.0]))
    with pytest.raises(InvalidParameterError):
        Weights(np.array([1.0, -2.0]))
    with pytest.raises(InvalidParameterError):
        Weights(np.array([]))
    np.testing.assert_allclose(
        Weights.from_sigma([0.5, 2.0]).values, [4.0, 0.25], rtol=1e-15
    )
    assert Weights.unit(3).values.tolist() == [1.0, 1.0, 1.0]


def test_weighted_fit_matches_weighted_least_squares():
    rng = np.random.Generator(np.random.Philox(13))
    y = Y_LIN + rng.normal(0.0, 0.3, T_LIN.size)
    sigma = np.where(T_LIN < 5, 0.3, 1.5)
    w = Weights.from_sigma(sigma)
    res = lm_fit(LinearModel(), T_LIN, y, w, np.array([0.0, 0.0]),
                 LMConfig(lambda0=0.0))
    x = np.stack([T_LIN, np.ones_like(T_LIN)], axis=-1)
    sw = np.sqrt(w.values)
    expected, *_ = np.linalg.lstsq(sw[:, None] * x, sw * y, rcond=None)
    np.testing.assert_allclose(res.params, expected, atol=1e-10)


# ------------------------------------------------------------------- config


def test_config_validation():
    with pytest.raises(InvalidParameterError):
        LMConfig(lambda0=-1.0)
    with pytest.raises(InvalidParameterError):
        LMConfig(lambda_up=1.0)
    with pytest.raises(InvalidParameterError):
        LMConfig(lambda_down=0.5)
    with pytest.raises(InvalidParameterError):
        LMConfig(max_iter=0)
    with pytest.raises(InvalidParameterError):
        LMConfig(tol_grad=0.0)
    LMConfig(lambda0=0.0)  # Gauss-Newton mode is allowed


# ------------------------------------------------------------------- lm_fit


def test_exponential_recovery_from_exact_data():
    model = ExponentialStepModel()
    truth = FitParams(30.0, 25.0, 0.01)
    t = np.arange(0.0, 600.0, 0.5)
    y = step_response(truth, t)
    res = lm_fit(model, t, y, None, np.array([28.0, 20.0, 0.02]))
    np.testing.assert_allclose(res.params, [30.0, 25.0, 0.01], rtol=1e-8)
    assert res.converged == "grad"
    assert np.max(np.abs(res.params / np.array([30.0, 25.0, 0.01]) - 1.0)) < 1e-8


def test_linear_fit_exact_in_two_accepted_steps():
    # with the damping pinned at zero the first step is the exact solution
    cfg = LMConfig(lambda0=0.0)
    for p0 in ([0.0, 0.0], [37.0, -12.0], [-5.0, 5.0]):
        res = lm_fit(LinearModel(), T_LIN, Y_LIN, None, np.array(p0), cfg)
        np.testing.assert_allclose(res.params, [2.0, 1.0], atol=1e-10)
        assert res.accepted_steps <= 2


def test_linear_fit_converges_with_default_damping():
    res = lm_fit(LinearModel(), T_LIN, Y_LIN, None, np.array([0.0, 0.0]))
    np.testing.assert_allclose(res.params, [2.0, 1.0], atol=1e-7)


def test_zero_damping_reproduces_ordinary_least_squares():
    rng = np.random.Generator(np.random.Philox(17))
    y = Y_LIN + rng.normal(0.0, 0.5, T_LIN.size)
    res = lm_fit(LinearModel(), T_LIN, y, None, np.array([0.0, 0.0]),
                 LMConfig(lambda0=0.0))
    x = np.stack([T_LIN, np.ones_like(T_LIN)], axis=-1)
    expected, *_ = np.linalg.lstsq(x, y, rcond=None)
    np.testing.assert_allclose(res.params, expected, atol=1e-12)


def test_accepted_costs_strictly_decrease():
    model = ExponentialStepModel()
    truth = FitParams(50.0, 20.0, 0.05)
    t = np.arange(0.0, 200.0, 0.1)
    rng = np.random.Generator(np.random.Philox(19))
    y = step_response(truth, t) + rng.normal(0.0, 1.0, t.size)
    costs = []
    res = lm_fit(model, t, y, None, np.array([40.0, 30.0, 0.2]),
                 callback=lambda k, p, c, lam: costs.append(c))
    initial = float(np.sum((y - model.predict(t, [40.0, 30.0, 0.2])) ** 2))
    assert len(costs) == res.accepted_steps > 0
    assert costs[0] < initial
    assert all(a > b for a, b in zip(costs, costs[1:]))
    assert res.cost == costs[-1]


def test_rejections_are_counted_and_grow_lambda():
    # start damping absurdly low on a curved problem to force rejections
    model = TwoParamExpModel()
    truth = np.array([5.0, 0.8])
    t = np.linspace(0.0, 6.0, 40)
    y = model.predict(t, truth)
    res = lm_fit(model, t, y, None, np.array([0.5, 3.0]),
                 LMConfig(lambda0=1e-12, max_iter=100))
    assert res.iterations > res.accepted_steps  # at least one rejection


def test_scale_equivariance_of_iterate_path():
    model = ExponentialStepModel()
    t = np.arange(0.0, 300.0, 0.01)
    rng = np.random.Generator(np.random.Philox(5))
    y = model.predict(t, [30.0, 25.0, 0.01]) + rng.normal(0.0, 0.5, t.size)
    p0 = np.array([28.0, 20.0, 0.02])
    paths = {}
    for gamma in (1.0, 1024.0):  # a power of two keeps the scaling exact
        trace = []
        res = lm_fit(ScaledModel(model, gamma), t, gamma * y, None, p0,
                     callback=lambda k, p, c, lam: trace.append(p))
        paths[gamma] = (np.array(trace), res.cost)
    path1, cost1 = paths[1.0]
    path2, cost2 = paths[1024.0]
    assert path1.shape == path2.shape
    assert np.max(np.abs(path1 - path2)) <= 1e-9
    assert cost2 / cost1 == pytest.approx(1024.0**2, rel=1e-12)


def test_bitwise_determinism():
    model = ExponentialStepModel()
    t = np.arange(0.0, 300.0, 0.02)
    rng = np.random.Generator(np.random.Philox(23))
    y = model.predict(t, [30.0, 25.0, 0.01]) + rng.normal(0.0, 0.5, t.size)
    r1 = lm_fit(model, t, y, None, np.array([28.0, 20.0, 0.02]))
    r2 = lm_fit(model, t, y, None, np.array([28.0, 20.0, 0.02]))
    assert np.array_equal(r1.params, r2.params)
    assert np.array_equal(r1.residuals, r2.residuals)
    assert r1.cost == r2.cost
    assert r1.iterations == r2.iterations
    assert r1.lambda_final == r2.lambda_final


def test_cost_recomputable_from_residuals():
    model = ExponentialStepModel()
    t = np.arange(0.0, 100.0, 0.1)
    rng = np.random.Generator(np.random.Philox(29))
    y = model.predict(t, [30.0, 25.0, 0.02]) + rng.normal(0.0, 0.3, t.size)
    sigma = np.full(t.size, 0.3)
    w = Weights.from_sigma(sigma)
    res = lm_fit(model, t, y, w, np.array([29.0, 24.0, 0.03]))
    recomputed = float(np.sum(w.values * res.residuals**2))
    assert res.cost == pytest.approx(recomputed, rel=1e-10)


def test_gradient_at_grad_convergence_is_below_tolerance():
    model = ExponentialStepModel()
    truth = FitParams(30.0, 25.0, 0.01)
    t = np.arange(0.0, 600.0, 0.5)
    y = step_response(truth, t)
    cfg = LMConfig()
    res = lm_fit(model, t, y, None, np.array([28.0, 20.0, 0.02]), cfg)
    assert res.converged == "grad"
    j = model.jacobian_row(t, res.params)
    g = j.T @ res.residuals
    assert np.max(np.abs(g)) < cfg.tol_grad


def test_max_iter_reported_not_raised():
    model = TwoParamExpModel()
    t = np.linspace(0.0, 6.0, 40)
    y = model.predict(t, np.array([5.0, 0.8]))
    res = lm_fit(model, t, y, None, np.array([0.5, 3.0]), LMConfig(max_iter=1))
    assert res.converged == "max_iter"
    assert res.iterations == 1


def test_restart_from_solution_stops_on_step_not_cap():
    # at the floating-point floor every step can be rejected; the step test
    # must still fire on rejected steps instead of running to max_iter
    model = LinearModel()
    t = np.linspace(0.0, 1e4, 2001)
    for seed in range(20):
        y = 3.0 * t + 7.0 + np.random.default_rng(seed).normal(0.0, 1.0, t.size)
        first = lm_fit(model, t, y, None, np.array([1.0, 0.0]))
        again = lm_fit(model, t, y, None, first.params)
        assert again.converged != "max_iter", seed
        np.testing.assert_allclose(again.params, first.params, rtol=1e-10)


def test_overflowing_data_raise_singular_without_warning():
    # the records of test_fit_series_overflow_is_a_numerical_error, fitted
    # directly: at 1e152 the normal matrix overflows, at 1e300 the cost too
    ts = generate(SynthSpec(truth=FitParams(30.0, 25.0, 0.01), rate=10.0,
                            duration=300.0, noise_sigma=0.5, seed=0))
    for scale in (1e152, 1e300):
        y = ts.y * scale
        g = initial_guess(TimeSeries(ts.t, y, ts.rate))
        p0 = np.array([g.a, g.b, g.c])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularEquationsError):
                lm_fit(ExponentialStepModel(), ts.t, y, None, p0)
            with pytest.raises(SingularEquationsError):
                lm_step(ExponentialStepModel(), ts.t, y, None, p0, 1e-3)


@settings(deadline=None)
@given(
    y=st.lists(st.floats(min_value=-1e300, max_value=1e300), min_size=10, max_size=10),
    c0=st.floats(min_value=1e-3, max_value=10.0),
)
def test_lm_fit_on_finite_data_ends_finite_or_singular(y, c0):
    y = np.array(y)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            res = lm_fit(ExponentialStepModel(), 0.5 * np.arange(10.0), y, None,
                         np.array([y[0], y[-1], c0]))
        except SingularEquationsError:
            return
    assert np.isfinite(res.cost)


def test_lm_fit_input_validation():
    with pytest.raises(InvalidParameterError):
        lm_fit(LinearModel(), T_LIN, Y_LIN, None, np.array([np.nan, 0.0]))
    with pytest.raises(DataLengthError):
        lm_fit(LinearModel(), T_LIN, Y_LIN[:-1], None, np.zeros(2))
    with pytest.raises(DataLengthError):
        lm_fit(LinearModel(), T_LIN, Y_LIN, Weights.unit(3), np.zeros(2))


def test_result_arrays_are_frozen():
    res = lm_fit(LinearModel(), T_LIN, Y_LIN, None, np.zeros(2))
    with pytest.raises(ValueError):
        res.params[0] = 99.0
    with pytest.raises(ValueError):
        res.residuals[0] = 99.0


# ------------------------------------------------------------ jacobian check


def test_validate_jacobian_linear_model_is_exact():
    # central differences are exact for linear models up to the rounding
    # floor eps * |f| / h of the difference quotient itself
    check = validate_jacobian(LinearModel(), T_LIN, np.array([2.0, 1.0]))
    assert check.passed
    assert check.max_deviation < 1e-8


def test_validate_jacobian_step_model():
    check = validate_jacobian(
        ExponentialStepModel(),
        np.array([0.0, 50.0, 100.0, 200.0]),
        np.array([30.0, 25.0, 0.01]),
    )
    assert check.passed
    assert check.max_deviation < 1e-6


def test_validate_jacobian_detects_sign_flip():
    model = FlippedJacobianModel(ExponentialStepModel(), column=0)
    check = validate_jacobian(
        model, np.array([0.0, 50.0, 100.0]), np.array([30.0, 25.0, 0.01])
    )
    assert not check.passed
    assert check.max_deviation == pytest.approx(2.0, abs=1e-9)
    assert check.param_index == 0
    assert check.t_index == 0  # worst at t=0 where exp(-ct) = 1
