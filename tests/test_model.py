"""Core thermal model: the energy-balance ODE, parameter maps, step
response, discretization and the two simulators.

Proves, among others:
 - ODE values by direct substitution of its lamp-heat and wall-loss terms,
   including the below-ambient sign and both equilibria;
 - parameter lumping (gain = lamp/(area*U), tau = rho*cp/(area*U)) and its
   scaling law, plus exact round trips between process and fit parameters;
 - fit parameters reject NaN and infinite a, b and c, process parameters
   NaN and infinity in each of their four fields, and physical parameters
   NaN and infinity in each of their six fields and an ``area * U`` or
   ``rho * cp`` that leaves float64; as a property over 1e-300..1e300,
   physical parameters either raise the typed error or lump to a finite
   process, and ``ode_rhs`` never raises;
 - step response boundary values, closed-form point checks, monotonicity
   and boundedness, and a Python ``float`` for a scalar time;
 - the three discrete realizations (poles and input gains), their unit DC
   gain, the unstable-forward rejection, the rejection of a pole that
   rounds to 1 or a gain or delay that overflows, a dead time rounded to
   whole samples with ties to even (2.5 -> 2, 3.5 -> 4), and first/second-order
   convergence of their step responses toward the continuous one;
 - as a property, every method's pole and input taps against the exact
   theta-method coefficients in rational arithmetic, for tau and Ts
   anywhere in 1e-300..1e300 and at tau = Ts = 1e308;
 - ``DiscreteModel`` itself rejects what is not a first-order realization:
   another shape, a NaN tap, an infinite ``den[1]`` or sample time, a pole
   of exactly 1, a DC gain that overflows and a delay that is negative,
   NaN, infinite or fractional;
 - the difference-equation simulator against a hand-iterated recurrence,
   the delay-equals-shift identity (for a delay given as an int, a whole
   float and a NumPy integer), and a delay longer than the input;
 - both simulators against their per-sample recurrences (the difference
   equation, and RK4's four stages of the ODE), and their rejection of an
   empty or 2-d input;
 - RK4 against the closed-form solution of the linear ODE, and its
   rejection of a step past the real-axis stability limit (about 2.785 tau);
 - RK4 finite and within 1e-12 of tustin on a box whose ``K * u``
   overflows while ``K * u * Ts / tau`` does not;
 - the recurrence both simulators share, evaluated in 64-sample blocks,
   against the per-sample loop kept as ``helpers.sequential_recurrence``:
   within 1e-13 of the output scale for poles in (-1, 1) (0 and within
   1e-8 of either end included) and 0 to 300 samples, no less accurate
   than the loop against extended precision at tau/Ts = 1e6 over 2e5
   samples, and, for hand-built poles 1.5, -1.5, 0, -1 and 1e6, finite
   where the loop is, exactly 0 from zero input and free of NumPy warnings;
 - that recurrence bit for bit (shape, and NaN in the same places) against
   ``helpers.concatenated_recurrence``, the blocked form that concatenated
   its output and forms its products in the same chunks of at most 128
   blocks, for poles 0, 0.5, 1 - 1e-8, -1 + 1e-8, -1, 1.5, -1.5 and 1e6
   and 0 to 99,999 samples (8,192, 8,193, 8,256 and 16,449 at chunk edges),
   and the four simulators on a 100,000-sample square wave against outputs
   built through it;
 - the four simulators' output bytes are the same with one and two BLAS
   threads under OpenBLAS's Haswell kernels (skipped without AVX2 or a
   second CPU);
 - both simulators return a new writeable array of the input's length from
   a read-only or a writeable input, with and without a delay, and leave
   the input as it was;
 - each of the four simulators holds one full-length array at a time (two
   with a delay): the peak of traced allocations over a 100,000-sample call
   is at most 1.5x the input's bytes (2.5x with a 3-sample delay), and so
   within the older two-array bound of 2.5x (3.5x).
"""

import dataclasses
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from thermofit import (
    DISCRETIZATION_METHODS,
    DiscreteModel,
    FitParams,
    InvalidParameterError,
    PhysicalParams,
    ProcessParams,
    UnstableDiscretizationError,
    derive_process_params,
    discretize,
    fit_to_process,
    ode_rhs,
    process_to_fit,
    simulate_continuous,
    simulate_discrete,
    step_response,
)
from thermofit.errors import DataLengthError
from thermofit.model import _recurrence

from helpers import concatenated_recurrence, sequential_recurrence

BOX = PhysicalParams(
    lamp_constant=2.0,
    area=0.1,
    heat_transfer_coeff=4.0,
    rho=1.2,
    cp=1005.0,
    t_ambient=25.0,
)


# ---------------------------------------------------------------- heat rates


def test_heat_rates_substitution():
    # lamp heat 2 * 3 = 6 W less wall loss 0.1 * 4 * (30 - 25) = 2 W, over rho cp
    assert ode_rhs(BOX, temp=30.0, volts=3.0) == pytest.approx(4.0 / 1206.0, rel=1e-12)


def test_heat_rates_below_ambient_is_negative_loss():
    # 5 degC below ambient the wall loss is -2 W: the box warms with the lamp off
    assert ode_rhs(BOX, temp=20.0, volts=0.0) == pytest.approx(2.0 / 1206.0, rel=1e-12)


def test_physical_params_reject_nonpositive():
    with pytest.raises(InvalidParameterError):
        PhysicalParams(0.0, 0.1, 4.0, 1.2, 1005.0, 25.0)
    with pytest.raises(InvalidParameterError):
        PhysicalParams(2.0, 0.1, 4.0, -1.2, 1005.0, 25.0)
    fields = (2.0, 0.1, 4.0, 1.2, 1005.0, 25.0)
    for i in range(len(fields)):
        for bad in (np.nan, np.inf):
            with pytest.raises(InvalidParameterError, match="finite"):
                PhysicalParams(*fields[:i], bad, *fields[i + 1 :])
    # each field is fine, but A*U or rho*cp, a divisor of derive_process_params
    # and ode_rhs, underflows to 0
    for fields, product in (((1.0, 1e-200, 1e-200, 1.0, 1.0, 20.0),
                             "area \\* heat_transfer_coeff"),
                            ((1.0, 1.0, 1.0, 1e-200, 1e-200, 20.0), "rho \\* cp")):
        with pytest.raises(InvalidParameterError, match=product):
            derive_process_params(PhysicalParams(*fields))
        with pytest.raises(InvalidParameterError, match=product):
            ode_rhs(PhysicalParams(*fields), temp=21.0, volts=1.0)


log_uniform = st.floats(min_value=-300.0, max_value=300.0).map(lambda e: 10.0**e)


@given(fields=st.tuples(*[log_uniform] * 6))
@example(fields=(1.0, 1e-200, 1e-200, 1.0, 1.0, 20.0))
@example(fields=(1.0, 1.0, 1.0, 1e-200, 1e-200, 20.0))
@example(fields=(1e300, 1e-10, 1e-10, 1e300, 1e300, 20.0))
@example(fields=(1e300, 1e-10, 1e-10, 1.0, 1.0, 20.0))
@example(fields=(1.0, 1e150, 1e150, 1e-300, 1.0, 20.0))
def test_physical_params_either_raise_or_lump_to_finite_process(fields):
    # over 1e-300..1e300 in every field, the type and derive_process_params
    # raise the typed error or give a finite process, and ode_rhs never raises
    try:
        p = PhysicalParams(*fields)
    except InvalidParameterError:
        return
    ode_rhs(p, temp=p.t_ambient + 1.0, volts=1.0)
    try:
        proc = derive_process_params(p)
    except InvalidParameterError:
        return
    assert np.isfinite(dataclasses.astuple(proc)).all() and proc.tau > 0


# ----------------------------------------------------------------------- ODE


def test_ode_rhs_rest_state():
    assert ode_rhs(BOX, temp=25.0, volts=0.0) == 0.0


def test_ode_rhs_substitution():
    assert ode_rhs(BOX, temp=25.0, volts=3.0) == pytest.approx(6.0 / 1206.0, rel=1e-12)


def test_ode_rhs_steady_state():
    proc = derive_process_params(BOX)
    volts = 3.0
    t_steady = BOX.t_ambient + proc.gain * volts
    assert ode_rhs(BOX, temp=t_steady, volts=volts) == pytest.approx(0.0, abs=1e-15)


# ------------------------------------------------------------ parameter maps


def test_derive_process_params_substitution():
    proc = derive_process_params(BOX)
    assert proc.gain == pytest.approx(5.0, rel=1e-12)
    assert proc.tau == pytest.approx(3015.0, rel=1e-12)
    assert proc.t_ambient == 25.0
    assert proc.dead_time == 0.0


def test_derive_process_params_identity_case():
    p = PhysicalParams(1.0, 1.0, 1.0, 1.0, 1.0, 0.0)
    proc = derive_process_params(p)
    assert (proc.gain, proc.tau, proc.t_ambient) == (1.0, 1.0, 0.0)


def test_derive_process_params_scaling_law():
    doubled = PhysicalParams(2.0, 0.2, 8.0, 1.2, 1005.0, 25.0)
    proc = derive_process_params(doubled)
    assert proc.gain == pytest.approx(1.25, rel=1e-12)
    assert proc.tau == pytest.approx(753.75, rel=1e-12)


def test_process_to_fit_substitution():
    f = process_to_fit(ProcessParams(gain=25.0, tau=100.0, t_ambient=25.0))
    assert (f.a, f.b, f.c) == pytest.approx((0.25, 25.0, 0.01), rel=1e-12)
    f = process_to_fit(ProcessParams(gain=1.0, tau=1.0, t_ambient=0.0))
    assert (f.a, f.b, f.c) == (0.0, 1.0, 1.0)


def test_fit_process_round_trip_is_exact():
    proc = ProcessParams(gain=25.0, tau=100.0, t_ambient=25.0, dead_time=0.0)
    back = fit_to_process(process_to_fit(proc))
    assert back == proc


def test_process_fit_round_trip_from_fit_side():
    # double reciprocals cost at most an ulp, so compare at 1e-14
    for f in (FitParams(0.25, 25.0, 0.01), FitParams(34.43, 43.65, 0.0415)):
        back = process_to_fit(fit_to_process(f))
        assert back.a == pytest.approx(f.a, rel=1e-14)
        assert back.b == f.b
        assert back.c == pytest.approx(f.c, rel=1e-14)


def test_fit_to_process_inverse_substitution():
    proc = fit_to_process(FitParams(a=0.25, b=25.0, c=0.01))
    assert (proc.gain, proc.tau, proc.t_ambient) == pytest.approx(
        (25.0, 100.0, 25.0), rel=1e-12
    )
    assert proc.dead_time == 0.0


def test_fit_to_process_reference_regime():
    # fitted values from a fast closed-box heating run; the implied
    # ambient is far above any lab temperature, which the a/c mapping
    # reports verbatim rather than hiding
    proc = fit_to_process(FitParams(a=34.43, b=43.65, c=0.0415))
    assert proc.gain == 43.65
    assert proc.tau == pytest.approx(24.096, abs=1e-3)
    assert proc.t_ambient == pytest.approx(829.64, abs=1e-2)


def test_fit_to_process_rejects_nonpositive_rate():
    with pytest.raises(InvalidParameterError):
        fit_to_process(FitParams(a=1.0, b=1.0, c=0.0))
    with pytest.raises(InvalidParameterError):
        fit_to_process(FitParams(a=1.0, b=1.0, c=-0.5))


def test_process_params_invariants():
    with pytest.raises(InvalidParameterError):
        ProcessParams(gain=1.0, tau=0.0, t_ambient=0.0)
    with pytest.raises(InvalidParameterError):
        ProcessParams(gain=1.0, tau=1.0, t_ambient=0.0, dead_time=-1.0)
    valid = {"gain": 1.0, "tau": 1.0, "t_ambient": 0.0, "dead_time": 0.0}
    for name in valid:
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(InvalidParameterError, match=f"{name} must be finite"):
                ProcessParams(**{**valid, name: bad})
    # fit_to_process is held to the same rule: a / c overflows for a tiny c
    with pytest.raises(InvalidParameterError, match="t_ambient must be finite"):
        fit_to_process(FitParams(a=30.0, b=25.0, c=1e-307))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", ["a", "b", "c"])
def test_fit_params_must_be_finite(name, bad):
    values = {"a": 30.0, "b": 25.0, "c": 0.01, name: bad}
    with pytest.raises(InvalidParameterError, match=f"{name} must be finite"):
        FitParams(**values)


# ------------------------------------------------------------- step response


def test_step_response_initial_value():
    assert step_response(FitParams(30.0, 25.0, 0.01), 0.0) == 30.0


def test_step_response_asymptote():
    assert step_response(FitParams(30.0, 25.0, 0.01), 1e7) == pytest.approx(
        25.0, abs=1e-12
    )


def test_step_response_at_one_time_constant():
    val = step_response(FitParams(30.0, 25.0, 0.01), 100.0)
    assert type(val) is float
    assert val == pytest.approx(5.0 * np.exp(-1.0) + 25.0, rel=1e-14)
    assert val == pytest.approx(26.83940, abs=5e-6)


def test_step_response_rejects_negative_time():
    with pytest.raises(InvalidParameterError):
        step_response(FitParams(30.0, 25.0, 0.01), -1.0)
    with pytest.raises(InvalidParameterError):
        step_response(FitParams(30.0, 25.0, 0.01), np.array([0.0, -0.5]))


def test_step_response_monotone_and_bounded():
    rng = np.random.Generator(np.random.Philox(3))
    t = np.linspace(0.0, 2000.0, 400)
    for _ in range(25):
        a, b = rng.uniform(0.0, 100.0, size=2)
        if a == b:
            continue
        c = rng.uniform(1e-4, 1.0)
        y = step_response(FitParams(a, b, c), t)
        diffs = np.diff(y)
        if a < b:
            assert np.all(diffs >= 0.0)
        else:
            assert np.all(diffs <= 0.0)
        assert np.all(y >= min(a, b) - 1e-12)
        assert np.all(y <= max(a, b) + 1e-12)


# ------------------------------------------------------------- discretization


def test_discretize_forward_coefficients():
    m = discretize(ProcessParams(1.0, 10.0, 0.0), "forward", 1.0)
    assert m.pole == pytest.approx(0.9, rel=1e-15)
    assert m.num == (0.0, pytest.approx(0.1, rel=1e-15))
    assert m.den[0] == 1.0


def test_discretize_backward_coefficients():
    m = discretize(ProcessParams(1.0, 10.0, 0.0), "backward", 1.0)
    assert m.pole == pytest.approx(10.0 / 11.0, rel=1e-15)
    assert m.num == (pytest.approx(1.0 / 11.0, rel=1e-15),)


def test_discretize_tustin_coefficients():
    m = discretize(ProcessParams(1.0, 10.0, 0.0), "tustin", 1.0)
    assert m.pole == pytest.approx(19.0 / 21.0, rel=1e-15)
    assert m.num == (
        pytest.approx(1.0 / 21.0, rel=1e-15),
        pytest.approx(1.0 / 21.0, rel=1e-15),
    )


def test_discretize_rejects_bad_inputs():
    proc = ProcessParams(1.0, 10.0, 0.0)
    with pytest.raises(InvalidParameterError):
        discretize(proc, "forward", 0.0)
    with pytest.raises(UnstableDiscretizationError):
        discretize(proc, "forward", 20.0)
    with pytest.raises(UnstableDiscretizationError):
        discretize(proc, "forward", 25.0)
    with pytest.raises(InvalidParameterError):
        discretize(proc, "trapezoid", 1.0)
    # backward and tustin stay stable at any positive sample time
    discretize(proc, "backward", 25.0)
    discretize(proc, "tustin", 25.0)
    # results float64 cannot hold: a pole that rounds to 1 (sum(den) == 0),
    # an overflowing dc_gain and an overflowing delay in samples
    unrepresentable = [
        (ProcessParams(1.0, 10.0, 0.0), "tustin", 1e-15),
        (ProcessParams(1e308, 1e-308, 0.0), "tustin", 1.0),
        (ProcessParams(1.0, 10.0, 0.0, dead_time=1e300), "tustin", 1e-300),
    ] + [(ProcessParams(1.0, 1e10, 0.0), m, 1e-300) for m in DISCRETIZATION_METHODS]
    for bad, method, ts in unrepresentable:
        with pytest.raises(InvalidParameterError, match="float64"):
            discretize(bad, method, ts)


EPS = Fraction(2) ** -52
THETA = {"tustin": Fraction(1, 2), "forward": Fraction(0), "backward": Fraction(1)}
log_uniform = st.floats(min_value=-300.0, max_value=300.0).map(lambda e: 10.0**e)
moderate_gains = st.tuples(
    st.floats(min_value=-3.0, max_value=3.0), st.sampled_from((1.0, -1.0))
).map(lambda es: es[1] * 10.0 ** es[0])


@given(method=st.sampled_from(DISCRETIZATION_METHODS), tau=log_uniform,
       ts=log_uniform, gain=moderate_gains)
@example(method="backward", tau=1e308, ts=1e308, gain=1.0)
@example(method="tustin", tau=1e308, ts=1e308, gain=1.0)
@example(method="forward", tau=1e308, ts=1e308, gain=1.0)
def test_discretize_matches_exact_theta_method(method, tau, ts, gain):
    # s -> (z - 1) / (Ts (theta z + 1 - theta)) in exact rationals
    theta, rho = THETA[method], Fraction(tau) / Fraction(ts)
    pole = (rho - (1 - theta)) / (rho + theta)
    g = Fraction(gain) / (rho + theta)
    num = [theta * g, (1 - theta) * g][: 1 if theta == 1 else 2]
    try:
        m = discretize(ProcessParams(gain, tau, 0.0), method, ts)
    except UnstableDiscretizationError:
        assert method == "forward" and rho <= Fraction(1, 2) * (1 + EPS)
        return
    except InvalidParameterError:
        assert 1 - pole <= 4 * EPS, (float(rho), float(pole))
        return
    assert method != "forward" or rho > Fraction(1, 2)
    assert abs(Fraction(m.pole) - pole) <= 4 * EPS, (m.pole, float(pole))
    assert len(m.num) == len(num)
    for got, want in zip(m.num, num):
        assert abs(Fraction(got) - want) <= 4 * EPS * abs(want), (got, float(want))


def test_discretize_rejects_a_pole_within_an_ulp_of_1_for_every_method():
    # tau / Ts = 1e16: every method's pole rounds to 1 in rho form
    for method in DISCRETIZATION_METHODS:
        with pytest.raises(InvalidParameterError, match="float64"):
            discretize(ProcessParams(1.0, 10.0, 0.0), method, 1e-15)


def test_discretize_dead_time_rounds_to_samples():
    proc = ProcessParams(1.0, 10.0, 0.0, dead_time=2.6)
    assert discretize(proc, "backward", 1.0).delay_samples == 3
    assert discretize(proc, "backward", 2.0).delay_samples == 1
    # a tie rounds to the even count
    for dead_time, samples in ((2.5, 2), (3.5, 4)):
        proc = ProcessParams(1.0, 10.0, 0.0, dead_time=dead_time)
        assert discretize(proc, "tustin", 1.0).delay_samples == samples


def test_dc_gain_equals_static_gain():
    # rounding the monic pole costs ~eps * tau/Ts in the den sum, so the
    # 1e-12 check applies where tau/Ts stays below a few thousand
    for gain in (1.0, 5.0, 43.65):
        for tau, ts in (
            (10.0, 0.01),
            (10.0, 1.0),
            (100.0, 1.0),
            (100.0, 4.0),
            (3015.0, 4.0),
        ):
            for method in ("forward", "backward", "tustin"):
                m = discretize(ProcessParams(gain, tau, 0.0), method, ts)
                assert abs(m.dc_gain - gain) <= 1e-12 * gain, (method, tau, ts)


def test_discrete_model_invariants():
    with pytest.raises(InvalidParameterError):
        DiscreteModel(num=(0.1,), den=(2.0, -0.9), sample_time=1.0)
    with pytest.raises(InvalidParameterError):
        DiscreteModel(num=(0.1,), den=(1.0, -0.9), sample_time=0.0)
    # a delay is a non-negative whole number of samples
    for delay in (-1, np.nan, np.inf, 1.5):
        with pytest.raises(InvalidParameterError, match="^delay_samples must be"):
            DiscreteModel(num=(0.1,), den=(1.0, -0.9), sample_time=1.0,
                          delay_samples=delay)
    # only first order: two den and one or two num coefficients
    for num, den in (
        ((0.1,), (1.0,)),
        ((0.1,), (1.0, -0.9, 0.1)),
        ((), (1.0, -0.9)),
        ((0.1, 0.1, 0.1), (1.0, -0.9)),
    ):
        with pytest.raises(InvalidParameterError):
            DiscreteModel(num=num, den=den, sample_time=1.0)
    # a realization: finite taps, den[1] and sample time, a pole other than
    # exactly 1 (dc_gain divides by 1 - pole) and a dc_gain finite in float64
    for num, den, ts in (
        ((np.nan,), (1.0, -0.9), 1.0),
        ((0.1,), (1.0, np.inf), 1.0),
        ((0.1,), (1.0, -0.9), np.inf),
        ((0.1,), (1.0, -1.0), 1.0),
        ((1e308, 1e308), (1.0, -0.5), 1.0),
    ):
        with pytest.raises(InvalidParameterError, match="^pole rounds to 1 or a ratio"):
            DiscreteModel(num=num, den=den, sample_time=ts)


# ------------------------------------------------------- discrete simulation


def test_simulate_discrete_unit_step_hand_iterated():
    # y[n] = 0.9 y[n-1] + 0.1 u[n-1] from 0:
    # y1 = 0.1, y2 = 0.9*0.1 + 0.1 = 0.19, y3 = 0.9*0.19 + 0.1 = 0.271
    m = discretize(ProcessParams(1.0, 10.0, 0.0), "forward", 1.0)
    y = simulate_discrete(m, np.ones(4), 0.0)
    np.testing.assert_allclose(y, [0.0, 0.1, 0.19, 0.271], rtol=1e-14)


def test_simulate_discrete_zero_input_decays_geometrically():
    m = discretize(ProcessParams(1.0, 10.0, 0.0), "forward", 1.0)
    y = simulate_discrete(m, np.zeros(30), 4.0)
    expected = 4.0 * 0.9 ** np.arange(30)
    np.testing.assert_allclose(y, expected, rtol=1e-12)


def test_simulate_discrete_delay_equals_input_shift():
    rng = np.random.Generator(np.random.Philox(11))
    u = rng.normal(0.0, 1.0, 60)
    base = discretize(ProcessParams(2.0, 8.0, 0.0), "tustin", 0.5)
    # a whole number of samples given as a float or a NumPy integer works too
    for delay, k in ((5, 5), (2.0, 2), (np.int64(2), 2)):
        delayed = dataclasses.replace(base, delay_samples=delay)
        shifted = np.zeros_like(u)
        shifted[k:] = u[:-k]
        np.testing.assert_array_equal(
            simulate_discrete(delayed, u, 1.0), simulate_discrete(base, shifted, 1.0)
        )


def test_simulate_discrete_delay_longer_than_the_input():
    # the whole input arrives after the record ends: the output only decays
    m = discretize(ProcessParams(2.0, 10.0, 0.0, dead_time=7.0), "tustin", 1.0)
    for n in (1, 5, 7):
        np.testing.assert_array_equal(
            simulate_discrete(m, np.ones(n), 3.0),
            simulate_discrete(m, np.zeros(n), 3.0),
        )
    # a huge delay costs no more memory than the input
    huge = dataclasses.replace(m, delay_samples=10**12)
    np.testing.assert_array_equal(
        simulate_discrete(huge, np.ones(5), 3.0),
        simulate_discrete(m, np.zeros(5), 3.0),
    )


def test_simulate_discrete_matches_difference_equation():
    # y[n] = num[0] u[n] + num[1] u[n-1] + pole y[n-1], written out per
    # sample; the simulator rounds differently, within 1e-13 of the scale
    u = np.random.Generator(np.random.Philox(5)).uniform(0.0, 5.0, 3000)
    for method in ("forward", "backward", "tustin"):
        m = discretize(ProcessParams(2.0, 8.0, 0.0), method, 0.5)
        y = [1.0]
        for n in range(1, u.size):
            taps = m.num[0] * u[n] + (m.num[1] * u[n - 1] if len(m.num) == 2 else 0.0)
            y.append(taps + m.pole * y[-1])
        out = simulate_discrete(m, u, 1.0)
        assert np.max(np.abs(out - y)) <= 1e-13 * np.max(np.abs(y)), method


def test_simulate_discrete_output_length_and_empty_input():
    m = discretize(ProcessParams(1.0, 10.0, 0.0), "backward", 1.0)
    assert simulate_discrete(m, np.ones(17), 0.0).size == 17
    for bad in ([], np.ones((17, 1))):
        with pytest.raises(DataLengthError, match="non-empty 1-d"):
            simulate_discrete(m, bad, 0.0)


def test_discrete_step_converges_to_continuous():
    # forward/backward are first-order accurate (error halves with Ts),
    # tustin is second-order (error quarters)
    proc = ProcessParams(1.0, 10.0, 0.0)
    clean = FitParams(0.0, 1.0, 0.1)
    for method, lo, hi in (
        ("forward", 1.7, 2.3),
        ("backward", 1.7, 2.3),
        ("tustin", 3.6, 4.4),
    ):
        errs = []
        for ts in (1.0, 0.5, 0.25):
            n = int(round(5 * proc.tau / ts)) + 1
            t = np.arange(n) * ts
            y = simulate_discrete(discretize(proc, method, ts), np.ones(n), 0.0)
            errs.append(np.max(np.abs(y - step_response(clean, t))))
        assert lo < errs[0] / errs[1] < hi, (method, errs)
        assert lo < errs[1] / errs[2] < hi, (method, errs)


# ----------------------------------------------------- continuous simulation


def test_simulate_continuous_equilibrium():
    y = simulate_continuous(BOX, np.zeros(50), BOX.t_ambient, 10.0)
    np.testing.assert_allclose(y, BOX.t_ambient, rtol=0, atol=1e-12)


def test_simulate_continuous_reaches_steady_state():
    proc = derive_process_params(BOX)
    volts = 3.0
    ts = proc.tau / 100.0
    n = 1001  # 10 time constants
    y = simulate_continuous(BOX, np.full(n, volts), BOX.t_ambient, ts)
    assert y[-1] == pytest.approx(BOX.t_ambient + proc.gain * volts, rel=1e-4)


def test_simulate_continuous_matches_closed_form():
    # linear ODE from ambient start: T(t) = Ta + K*V*(1 - exp(-t/tau))
    proc = derive_process_params(BOX)
    ts = proc.tau / 100.0
    n = 501
    volts = 3.0
    y = simulate_continuous(BOX, np.full(n, volts), BOX.t_ambient, ts)
    t = np.arange(n) * ts
    exact = BOX.t_ambient + proc.gain * volts * (1.0 - np.exp(-t / proc.tau))
    assert np.max(np.abs(y - exact) / np.abs(exact)) < 1e-8


def test_simulate_continuous_agrees_with_step_response():
    # with zero ambient the ODE response to a unit step from f(0)=a is the
    # fitted exponential itself
    phys = PhysicalParams(2.0, 0.1, 4.0, 1.2, 1005.0, t_ambient=0.0)
    f = process_to_fit(derive_process_params(phys))
    ts = derive_process_params(phys).tau / 100.0
    n = 501
    y = simulate_continuous(phys, np.ones(n), f.a, ts)
    exact = step_response(f, np.arange(n) * ts)
    assert np.max(np.abs(y - exact) / np.maximum(np.abs(exact), 1.0)) < 1e-6


def test_simulate_continuous_matches_rk4_stages():
    # the four RK4 stages of ode_rhs, evaluated per sample, against the
    # simulator's affine map; they round differently, within 1e-13 of the scale
    u = np.random.Generator(np.random.Philox(5)).uniform(0.0, 5.0, 3000)
    for h in (derive_process_params(BOX).tau / 100.0, 7.0):
        y = [20.0]
        for v in u[:-1]:
            k1 = ode_rhs(BOX, y[-1], v)
            k2 = ode_rhs(BOX, y[-1] + 0.5 * h * k1, v)
            k3 = ode_rhs(BOX, y[-1] + 0.5 * h * k2, v)
            k4 = ode_rhs(BOX, y[-1] + h * k3, v)
            y.append(y[-1] + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
        out = simulate_continuous(BOX, u, 20.0, h)
        assert np.max(np.abs(out - y)) <= 1e-13 * np.max(np.abs(y)), h


def test_simulate_continuous_rejects_steps_past_rk4_stability():
    # tau = 60.3 s; RK4's step factor 1 + d reaches 1 at h = 2.785 tau
    box = PhysicalParams(2.0, 1.0, 20.0, 1.2, 1005.0, t_ambient=20.0)
    tau = derive_process_params(box).tau
    for h in (200.0, 1e300, np.inf, 2.79 * tau):
        with pytest.raises(UnstableDiscretizationError, match="RK4"):
            simulate_continuous(box, np.ones(5), 20.0, h)
    y = simulate_continuous(box, np.ones(2000), 20.0, 2.78 * tau)
    assert np.all(np.isfinite(y)) and abs(y[-1] - 20.1) < 1e-6
    # a step so short that h / tau underflows to 0 holds the start level
    y = simulate_continuous(box, np.ones(3), 20.0, 5e-324)
    np.testing.assert_array_equal(y, 20.0)


def test_simulate_continuous_rejects_bad_inputs():
    with pytest.raises(InvalidParameterError):
        simulate_continuous(BOX, np.ones(5), 25.0, 0.0)
    for bad in ([], np.ones((5, 1))):
        with pytest.raises(DataLengthError, match="non-empty 1-d"):
            simulate_continuous(BOX, bad, 25.0, 1.0)
    # rho*cp overflows, so tau would be inf and the output NaN
    with pytest.raises(InvalidParameterError, match="rho \\* cp"):
        simulate_continuous(PhysicalParams(1e300, 1e-10, 1e-10, 1e300, 1e300, 20.0),
                            np.ones(5), 20.0, 1.0)


def test_simulate_continuous_where_gain_times_input_overflows():
    # K = 1e306 and tau = 1e6 s: K * u = 1e309 overflows, K * u * Ts / tau
    # does not, and the output stays finite (no NumPy warning either)
    box = PhysicalParams(1e300, 1e-3, 1e-3, 1.0, 1.0, 20.0)
    u = np.full(50, 1000.0)
    tustin = discretize(derive_process_params(box), "tustin", 1.0)
    np.testing.assert_allclose(simulate_continuous(box, u, 20.0, 1.0),
                               20.0 + simulate_discrete(tustin, u, 0.0), rtol=1e-12)


# ------------------------------------------------------- blocked recurrence

EXTENDED = np.finfo(np.longdouble).nmant > np.finfo(float).nmant
poles = st.one_of(
    st.just(0.0),
    st.floats(min_value=-1.0, max_value=1.0, exclude_min=True, exclude_max=True),
    st.floats(min_value=1e-16, max_value=1e-8).flatmap(
        lambda e: st.sampled_from([1.0 - e, -1.0 + e])
    ),
)
finite_values = st.floats(min_value=-1e100, max_value=1e100)


def extended_recurrence(d, q, y0):
    """``y[i+1] = (1 + d) y[i] + q[i]`` in ``np.longdouble``, whose pole
    ``1 + d`` is exact for every ``d`` the simulators pass."""
    pole = np.longdouble(1.0) + np.longdouble(d)
    y = [np.longdouble(y0)]
    for qi in q.astype(np.longdouble):
        y.append(pole * y[-1] + qi)
    return np.array(y, dtype=np.longdouble)


@given(pole=poles, q=arrays(np.float64, st.integers(0, 300), elements=finite_values),
       y0=finite_values)
@example(pole=1.0 - 1e-8, q=np.linspace(-1.0, 1.0, 63), y0=1.0)
@example(pole=-1.0 + 1e-8, q=np.linspace(-1.0, 1.0, 64), y0=1.0)
@example(pole=0.0, q=np.linspace(-1.0, 1.0, 65), y0=1.0)
@example(pole=0.5, q=np.linspace(-1.0, 1.0, 128), y0=-3.0)
@example(pole=-0.5, q=np.linspace(-1.0, 1.0, 129), y0=2.0)
@example(pole=0.9999999932336573, q=np.zeros(2), y0=2.2250738585e-313)
def test_blocked_recurrence_matches_sequential_loop(pole, q, y0):
    # 64-sample blocks, one matrix product and a carry per block, against
    # the per-sample loop; they round differently, within 1e-13 of the
    # scale, which is taken as at least the smallest normal float: below it
    # float64 resolves only absolute steps of 5e-324
    want = sequential_recurrence(pole - 1.0, q, y0)
    got = _recurrence(pole - 1.0, np.concatenate([[y0], q]), q.size)
    assert got.shape == want.shape == (q.size + 1,)
    scale = max(np.max(np.abs(want)), np.finfo(float).tiny)
    assert np.max(np.abs(got - want)) <= 1e-13 * scale


@pytest.mark.skipif(not EXTENDED, reason="np.longdouble is no wider than float64")
def test_blocked_recurrence_is_as_accurate_as_the_loop_near_pole_1():
    # tau/Ts = 1e6, a lamp switched every 10,000 samples, 2e5 samples: the
    # blocks carry the state through pole powers in the increment form
    # expm1(k log1p(d)), so they round no worse than the per-sample loop
    m = discretize(ProcessParams(0.1, 1e6, 0.0), "tustin", 1.0)
    u = np.repeat(np.tile([100.0, 0.0, 100.0, 0.0, 100.0], 4), 10_000)
    q = np.convolve(u, m.num)[1 : u.size]
    ref = extended_recurrence(m.pole - 1.0, q, 0.0)
    scale = np.max(np.abs(ref))
    blocked = np.max(np.abs(simulate_discrete(m, u, 0.0) - ref)) / scale
    loop = np.max(np.abs(sequential_recurrence(m.pole - 1.0, q, 0.0) - ref)) / scale
    assert blocked <= loop, (float(blocked), float(loop))


@pytest.mark.parametrize("pole", [1.5, -1.5, 0.0, -1.0, 1e6])
def test_blocked_recurrence_on_unstable_and_degenerate_poles(pole):
    # hand-built models discretize never returns: the output is finite where
    # the loop's is and matches it there (within 1e-13 of the largest output
    # so far, as it grows), zero input from zero stays exactly 0, and the
    # suite's warnings-as-errors shows that no NumPy warning is raised
    m = DiscreteModel(num=(0.5, 0.5), den=(1.0, -pole), sample_time=1.0)
    u = np.random.Generator(np.random.Philox(7)).uniform(0.0, 1.0, 3000)
    q = np.convolve(u, m.num)[1 : u.size]
    got = simulate_discrete(m, u, 1.0)
    want = sequential_recurrence(m.pole - 1.0, q, 1.0)
    ok = np.isfinite(want)
    assert np.isfinite(got[ok]).all()
    scale = np.maximum.accumulate(np.abs(want[ok]))
    assert np.all(np.abs(got[ok] - want[ok]) <= 1e-13 * scale)
    np.testing.assert_array_equal(simulate_discrete(m, np.zeros(3000), 0.0), 0.0)
    # where only the blocks stay finite, the loop's increment d*y[i]
    # overflowed before the sum did; the blocks hold the exact value there
    extra = np.isfinite(got) & ~ok
    if extra.any():
        if not EXTENDED:
            pytest.skip("np.longdouble is no wider than float64")
        ref = extended_recurrence(m.pole - 1.0, q, 1.0)[extra]
        assert np.all(np.abs(got[extra] - ref) <= 1e-13 * np.abs(ref))


@pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 4097, 8192, 8193, 8256, 16449, 99_999])
@pytest.mark.parametrize("pole", [0.0, 0.5, 1 - 1e-8, -1 + 1e-8, -1.0, 1.5, -1.5, 1e6])
def test_blocked_recurrence_is_bit_identical_to_its_concatenated_form(pole, n):
    # the products of chunks of 128 blocks (at 8192 samples and past it; a
    # last chunk of one block takes the 8 before it) and the starts added in
    # place round exactly as the form that concatenated its output: every
    # bit, overflow to inf and NaN included
    q = np.random.Generator(np.random.Philox(n)).uniform(-1.0, 1.0, n)
    want = concatenated_recurrence(pole - 1.0, q, 0.7)
    got = _recurrence(pole - 1.0, np.concatenate([[0.7], q]), n)
    assert np.array_equal(got, want, equal_nan=True)


@pytest.mark.parametrize("method", ["tustin", "forward", "backward", "rk4"])
def test_simulators_are_bit_identical_through_the_concatenated_form(method):
    # a lamp switched every 1000 samples, 100,000 samples at Ts = 0.1 s:
    # each simulator's output against its input steps as written out here
    # (a 3-sample delay on tustin), fed to the concatenated recurrence
    u = np.repeat(np.tile([100.0, 0.0], 50), 1000)
    proc = derive_process_params(BOX)
    if method == "rk4":
        x = -0.1 / proc.tau
        d = x * (1.0 + x / 2.0 * (1.0 + x / 3.0 * (1.0 + x / 4.0)))
        q = -d * BOX.t_ambient - (d * proc.gain) * u[:-1]
        got = simulate_continuous(BOX, u, 20.0, 0.1)
    else:
        delay = 0.3 if method == "tustin" else 0.0
        m = discretize(dataclasses.replace(proc, dead_time=delay), method, 0.1)
        k = m.delay_samples
        shifted = np.concatenate([np.zeros(k), u[: u.size - k]])
        d, q = m.pole - 1.0, np.convolve(shifted, m.num)[1 : u.size]
        got = simulate_discrete(m, u, 20.0)
    assert np.array_equal(got, concatenated_recurrence(d, q, 20.0))


def simulate_case(case, u):
    """Run the simulator that ``case`` names on ``u``; the output must be a
    new writeable array of ``u``'s length and ``u`` must keep every bit."""
    before = u.tobytes()
    if case == "continuous":
        y = simulate_continuous(BOX, u, 20.0, 1.0)
    else:
        delay = 3 if case.endswith("3") else 0
        m = DiscreteModel(num=(0.5, 0.5), den=(1.0, -0.9), sample_time=1.0,
                          delay_samples=delay)
        y = simulate_discrete(m, u, 20.0)
    assert y.shape == u.shape and y.flags.writeable
    assert not np.shares_memory(y, u)
    assert u.tobytes() == before


@pytest.mark.parametrize("case", ["discrete", "discrete-delay-3", "continuous"])
def test_simulators_leave_a_read_only_input_as_it_was(case):
    # without a delay the caller's array goes to np.convolve uncopied; the
    # output is still a new writeable array and the input keeps every bit
    u = np.random.Generator(np.random.Philox(11)).uniform(0.0, 100.0, 1000)
    u.flags.writeable = False
    simulate_case(case, u)


@pytest.mark.parametrize("case", ["discrete", "discrete-delay-3", "continuous"])
def test_simulators_leave_a_writeable_input_as_it_was(case):
    # _recurrence overwrites the array it is given, so the caller's must
    # never reach it
    u = np.random.Generator(np.random.Philox(11)).uniform(0.0, 100.0, 1000)
    assert u.flags.writeable and u.flags.owndata
    simulate_case(case, u)


def traced_peak(method, delay):
    """The peak of traced allocations over one call of ``method`` (with a
    ``delay``-sample dead time) on a 100,000-sample square wave, and the
    input's bytes."""
    u = np.repeat(np.tile([100.0, 0.0], 50), 1000)
    proc = dataclasses.replace(derive_process_params(BOX), dead_time=0.1 * delay)
    if method == "rk4":
        simulate, args = simulate_continuous, (BOX, u, 20.0, 0.1)
    else:
        m = discretize(proc, method, 0.1)
        assert m.delay_samples == delay
        simulate, args = simulate_discrete, (m, u, 20.0)
    tracemalloc.start()
    try:
        simulate(*args)
        return tracemalloc.get_traced_memory()[1], u.nbytes
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("method, delay, ratio", [
    ("tustin", 0, 2.5), ("forward", 0, 2.5), ("backward", 0, 2.5), ("rk4", 0, 2.5),
    ("tustin", 3, 3.5),
])
def test_simulators_hold_two_full_length_arrays(method, delay, ratio):
    # at most the output and one more full-length array: 2.5x the input's
    # bytes, 3.5x with a delay, which adds the shifted input
    peak, nbytes = traced_peak(method, delay)
    assert peak <= ratio * nbytes, peak / nbytes


@pytest.mark.parametrize("method, delay, ratio", [
    ("tustin", 0, 1.5), ("forward", 0, 1.5), ("backward", 0, 1.5), ("rk4", 0, 1.5),
    ("tustin", 3, 2.5),
])
def test_simulators_hold_one_full_length_array(method, delay, ratio):
    # the output, which comes in holding the forcing, and a 64 KB scratch for
    # the block products: the peak is about 1.4x the input's bytes, 2.4x with
    # a delay, which adds the shifted input
    peak, nbytes = traced_peak(method, delay)
    assert peak <= ratio * nbytes, peak / nbytes


SIMULATE_FOUR = """
import hashlib
import numpy as np
from thermofit import PhysicalParams, derive_process_params, discretize
from thermofit import simulate_continuous, simulate_discrete
box = PhysicalParams(2.0, 1.0, 20.0, 1.2, 1005.0, 20.0)  # tau = 60.3 s
u = np.repeat(np.tile([100.0, 0.0], 50), 1000)
outs = [simulate_discrete(discretize(derive_process_params(box), m, 0.1), u, 0.0)
        for m in ("tustin", "forward", "backward")]
outs.append(simulate_continuous(box, u, 20.0, 0.1))
print(*(hashlib.sha256(y.tobytes()).hexdigest() for y in outs))
"""


def _has_avx2():
    try:
        with open("/proc/cpuinfo") as f:
            return "avx2" in f.read().split()
    except OSError:
        return False


@pytest.mark.skipif(not _has_avx2(), reason="OpenBLAS's Haswell kernels need AVX2")
@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="a second BLAS thread needs 2 CPUs")
def test_simulators_bits_do_not_depend_on_the_blas_thread_count():
    # OpenBLAS's Haswell kernels split a product of more than 128 rows of
    # blocks between threads, and the split moves the bits of a row; the
    # simulators' products of at most 128 blocks run on one thread
    def run(threads):
        env = dict(os.environ, OPENBLAS_CORETYPE="Haswell", OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(sys.path))
        return subprocess.run([sys.executable, "-c", SIMULATE_FOUR], env=env, check=True,
                              capture_output=True, text=True).stdout.split()
    assert run("1") == run("2")
