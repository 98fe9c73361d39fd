"""Levenberg-Marquardt solver: step computation, the full iteration, and
the finite-difference Jacobian validator.

Proves:
 - a one-iteration ``lm_fit`` run takes the damped step: undamped from any
   point it lands exactly on the least-squares solution of a linear
   problem, and a zero-residual start stops on the gradient test where it
   began;
 - damping shrinks the step monotonically (measured in the diagonal
   scaling's own metric) and drives it to zero;
 - the full fit recovers exponential parameters from exact data to 1e-8
   with gradient convergence, and reproduces ordinary least squares when
   the damping is pinned at zero;
 - accepted costs decrease strictly; a callback that writes into the point
   it is passed leaves the fit unchanged; rejected steps only grow the damping,
   and one rejected from zero damping turns it on, so an undamped start on
   a noisy 30 s record stops before the cap at the default fit's ``c``;
 - a fit restarted at its own solution stops on the step test, not at the
   iteration cap;
 - a run stops only on the gradient test, the step test or the cap: two
   noisy fits (raw, and smoothed with SG(3, 901)) that lower the cost by
   less than 1e-12 of its value on the way stop on ``grad`` or ``step``;
 - the reported normal matrix is J^T W J at the returned parameters, whether
   the run stops on the gradient, the step or the iteration cap, after an
   accepted or a rejected step;
 - uniform output scaling by a power of two leaves the iterate path
   bitwise identical and scales the cost by the square;
 - identical inputs give bitwise identical results;
 - ``Weights.from_sigma`` rejects non-positive and NaN sigma, and sigma
   whose square leaves float64, without a NumPy warning; ``LMConfig``
   rejects NaN and inf in each of its float fields;
 - data whose cost or normal matrix overflows float64 raise
   SingularEquationsError from lm_fit without a NumPy warning,
   and on any finite data up to 1e300 lm_fit ends with a finite cost or
   that error (hypothesis);
 - the validator flags a sign-flipped Jacobian column with deviation 2
   and passes correct Jacobians at finite-difference accuracy; it rejects
   empty or 2-d abscissas and non-finite parameters with its own messages;
 - ``Weights`` rejects 2-d values, and ``lm_fit`` a 2-d time axis even when
   the data share its shape.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given
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
    SGConfig,
    SingularEquationsError,
    SynthSpec,
    TimeSeries,
    Weights,
    fit_series,
    generate,
    initial_guess,
    lm_fit,
    step_response,
    validate_jacobian,
)
from thermofit.pipeline import ExponentialStepModel

T_LIN = np.arange(10.0)
Y_LIN = 2.0 * T_LIN + 1.0


# ---------------------------------------------------------- one damped step
# A run capped at one iteration takes one damped step; on the linear problem
# every damped step lowers the cost, so it is accepted and is params - p.


def test_undamped_step_is_exact_least_squares():
    model = LinearModel()
    for p in ([0.0, 0.0], [5.0, -3.0], [100.0, 42.0]):
        p = np.array(p)
        res = lm_fit(model, T_LIN, Y_LIN, None, p, LMConfig(lambda0=0.0, max_iter=1))
        assert res.accepted_steps == 1
        np.testing.assert_allclose(res.params, [2.0, 1.0], atol=1e-10)


def test_zero_residual_gives_zero_step():
    model = TwoParamExpModel()
    truth = np.array([3.0, 0.4])
    t = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
    y = model.predict(t, truth)
    res = lm_fit(model, t, y, None, truth, LMConfig(lambda0=1e-3, max_iter=1))
    assert (res.converged, res.iterations) == ("grad", 0)
    assert np.array_equal(res.params, truth)


def test_damping_shrinks_step_monotonically():
    # monotone in the diag(J^T W J) metric the damping acts in; the plain
    # norm still collapses to zero
    model = LinearModel()
    p = np.array([0.0, 0.0])
    j = model.jacobian_row(T_LIN, p)
    scale = np.sqrt(np.diag(j.T @ j))
    lams = (0.0, 0.1, 1.0, 10.0, 100.0, 1e4, 1e6)
    runs = [lm_fit(model, T_LIN, Y_LIN, None, p, LMConfig(lambda0=lam, max_iter=1))
            for lam in lams]
    assert all(res.accepted_steps == 1 for res in runs)
    steps = [res.params - p for res in runs]
    scaled_norms = [np.linalg.norm(scale * h) for h in steps]
    assert all(a > b for a, b in zip(scaled_norms, scaled_norms[1:]))
    assert np.linalg.norm(steps[-1]) < 1e-4 * np.linalg.norm(steps[0])


def test_singular_system_raises_distinct_error():
    with pytest.raises(SingularEquationsError):
        lm_fit(DeadParameterModel(), T_LIN, Y_LIN, None, np.array([1.0, 1.0]))


# ------------------------------------------------------------------ weights


def test_weights_validation():
    with pytest.raises(InvalidParameterError):
        Weights(np.array([1.0, 0.0]))
    with pytest.raises(InvalidParameterError):
        Weights(np.array([1.0, -2.0]))
    with pytest.raises(InvalidParameterError):
        Weights(np.array([]))
    with pytest.raises(InvalidParameterError, match="1-d"):
        Weights(np.ones((3, 1)))
    np.testing.assert_allclose(
        Weights.from_sigma([0.5, 2.0]).values, [4.0, 0.25], rtol=1e-15
    )
    assert Weights.unit(3).values.tolist() == [1.0, 1.0, 1.0]
    # non-positive and NaN sigma, and a sigma whose square under- or
    # overflows, raise without a RuntimeWarning
    for sigma in ([-0.5, 0.5], [0.0, 1.0], [np.nan, 1.0], [1e-200, 1.0],
                  [1e200, 1.0]):
        with pytest.raises(InvalidParameterError):
            Weights.from_sigma(sigma)


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
        LMConfig(max_iter=0)
    with pytest.raises(InvalidParameterError):
        LMConfig(tol_grad=0.0)
    for name in ("lambda0", "tol_grad"):
        for bad in (np.nan, np.inf):
            with pytest.raises(InvalidParameterError, match="finite"):
                LMConfig(**{name: bad})
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


def test_a_rejected_undamped_step_turns_damping_on():
    # 0 * 10 is 0: without the restart every retry re-solves the rejected step
    ts = generate(SynthSpec(FitParams(30.0, 25.0, 0.01), 100.0, 30.0, 0.5, 0))
    undamped = fit_series(ts, cfg=LMConfig(lambda0=0.0)).result
    assert undamped.accepted_steps >= 1 and undamped.converged != "max_iter"
    assert undamped.params[2] == fit_series(ts).result.params[2]


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


def test_a_callback_that_writes_into_its_point_leaves_the_fit_unchanged():
    model = ExponentialStepModel()
    t = np.arange(0.0, 200.0, 0.1)
    y = step_response(FitParams(50.0, 20.0, 0.05), t)
    p0 = np.array([40.0, 30.0, 0.2])

    def scribble(k, p, cost, lam):
        p[:] = 0.0

    ref = lm_fit(model, t, y, None, p0)
    res = lm_fit(model, t, y, None, p0, callback=scribble)
    assert res.accepted_steps > 0
    assert np.array_equal(res.params, ref.params) and res.cost == ref.cost


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
    recomputed = float(np.sum(w.values * (y - model.predict(t, res.params)) ** 2))
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
    g = j.T @ (y - model.predict(t, res.params))
    assert np.max(np.abs(g)) < cfg.tol_grad


def test_normal_matrix_is_jtwj_at_params():
    # whether the run stops on a test or at the cap, after an accepted step
    # (moved) or a rejected one
    exp_t = np.arange(0.0, 600.0, 0.5)
    exp_y = step_response(FitParams(30.0, 25.0, 0.01), exp_t)
    lin_t = np.linspace(0.0, 1e4, 2001)
    lin_y = 3.0 * lin_t + 7.0 + np.random.default_rng(0).normal(0.0, 1.0, lin_t.size)
    lin_w = Weights.from_sigma(np.where(lin_t < 5e3, 0.5, 2.0))
    lin_p = lm_fit(LinearModel(), lin_t, lin_y, lin_w, np.array([1.0, 0.0])).params
    two_t = np.linspace(0.0, 6.0, 40)
    two_y = TwoParamExpModel().predict(two_t, np.array([5.0, 0.8]))
    runs = [  # (model, t, y, weights, p0, max_iter), converged, moved
        ((ExponentialStepModel(), exp_t, exp_y, None, [28.0, 20.0, 0.02], 200),
         "grad", True),
        ((LinearModel(), lin_t, lin_y, lin_w, lin_p, 200), "step", False),
        ((TwoParamExpModel(), two_t, two_y, None, [4.0, 1.0], 1), "max_iter", True),
        ((LinearModel(), lin_t, lin_y, lin_w, lin_p, 1), "max_iter", False),
    ]
    for (model, t, y, weights, p0, max_iter), converged, moved in runs:
        res = lm_fit(model, t, y, weights, np.array(p0), LMConfig(max_iter=max_iter))
        assert (res.converged, res.accepted_steps > 0) == (converged, moved)
        j = model.jacobian_row(t, res.params)
        w = np.ones(t.size) if weights is None else weights.values
        np.testing.assert_allclose(
            res.normal_matrix, j.T @ (w[:, None] * j), rtol=1e-13, atol=0
        )


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


@pytest.mark.parametrize("seed, smoothing", [(0, None), (7, SGConfig(3, 901))],
                         ids=["raw-seed0", "sg901-seed7"])
def test_noisy_fit_stops_on_the_gradient_or_step_test(seed, smoothing):
    # both runs pass an accepted step that lowers the cost by less than
    # 1e-12 of its value on the way; only the gradient and step tests end a run
    ts = generate(SynthSpec(FitParams(30.0, 25.0, 0.01), 100.0, 300.0, 0.5, seed))
    assert fit_series(ts, smoothing).result.converged in ("grad", "step")


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
    with pytest.raises(DataLengthError):  # fewer points than parameters
        lm_fit(LinearModel(), T_LIN[:1], Y_LIN[:1], None, np.zeros(2))
    with pytest.raises(DataLengthError, match="1-d"):  # t and y of one (n, 1) shape
        lm_fit(LinearModel(), T_LIN[:, None], Y_LIN[:, None], None, np.zeros(2))


def test_result_arrays_are_frozen():
    res = lm_fit(LinearModel(), T_LIN, Y_LIN, None, np.zeros(2))
    with pytest.raises(ValueError):
        res.params[0] = 99.0
    with pytest.raises(ValueError):
        res.normal_matrix[0, 0] = 99.0


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


def test_validate_jacobian_input_validation():
    model = ExponentialStepModel()
    with pytest.raises(DataLengthError, match="non-empty"):
        validate_jacobian(model, np.array([]), np.array([30.0, 25.0, 0.01]))
    with pytest.raises(DataLengthError, match="1-d"):
        validate_jacobian(model, np.array([[0.0], [1.0]]), np.array([30.0, 25.0, 0.01]))
    for bad in (np.nan, np.inf):
        with pytest.raises(InvalidParameterError, match="finite"):
            validate_jacobian(model, np.array([0.0, 1.0]), np.array([30.0, 25.0, bad]))
    # the validator's own message: FitParams would say "a must be finite"
    with pytest.raises(InvalidParameterError, match="^p must be finite$"):
        validate_jacobian(model, np.array([0.0, 1.0]), np.array([np.nan, 25.0, 0.1]))
