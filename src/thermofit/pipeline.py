"""End-to-end identification of a measured step response.

Binds the exponential step-response model to the solver: optional
smoothing, data-driven starting values, the analytic Jacobian, fit
statistics and the conversion back to process parameters.

When smoothing is requested the smoothed series is the fitting target and
the reference for R-squared, mirroring how slow thermal runs are analyzed
in practice (the raw series stays available to callers for overlays).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DataLengthError,
    FlatSeriesError,
    InvalidParameterError,
    NonUniformSamplingError,
    SingularEquationsError,
)
from .model import FitParams, ProcessParams, fit_to_process, step_response
from .sgolay import SGConfig, sg_smooth
from .solver import FitResult, LMConfig, ResidualModel, Weights, lm_fit

__all__ = [
    "TimeSeries",
    "FitReport",
    "ExponentialStepModel",
    "step_response_jacobian",
    "initial_guess",
    "r_squared",
    "fit_series",
]

# Fraction of a step completed after one time constant: 1 - exp(-1).
_STEP_FRACTION = 0.6321


@dataclass(frozen=True)
class TimeSeries:
    """Uniformly sampled temperature record.

    ``t`` in seconds (strictly increasing, with a span finite in float64),
    ``y`` in degC, both finite; ``rate`` the nominal sampling rate in Hz
    (positive, finite).  Spacing must match ``1/rate`` within 1e-6 relative
    or four float spacings of max ``|t|`` (epoch timestamps), whichever is
    coarser.  Arrays are copied and frozen.
    """

    t: np.ndarray
    y: np.ndarray
    rate: float

    def __post_init__(self):
        t = np.array(self.t, dtype=float)
        y = np.array(self.y, dtype=float)
        if t.ndim != 1 or y.ndim != 1 or t.size != y.size:
            raise DataLengthError("t and y must be 1-d arrays of equal length")
        if t.size < 2:
            raise DataLengthError("a series needs at least 2 samples")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(y))):
            raise InvalidParameterError("t and y must be finite")
        lo, hi = float(t.min()), float(t.max())
        if not math.isfinite(hi - lo):  # Python floats overflow without a warning
            raise InvalidParameterError(f"time span {lo!r} to {hi!r} overflows float64")
        if not 0 < self.rate < math.inf:
            raise InvalidParameterError("rate must be positive and finite")
        dt = np.diff(t)
        if np.any(dt <= 0):
            raise InvalidParameterError("time must be strictly increasing")
        nominal = 1.0 / self.rate
        worst = float(np.max(np.abs(dt - nominal))) / nominal
        tol = max(1e-6, 4.0 * float(np.spacing(np.max(np.abs(t)))) / nominal)
        if worst > tol:
            raise NonUniformSamplingError(
                f"sample spacing deviates from 1/rate by {worst:.3e} relative "
                f"(tolerance {tol:.3g})"
            )
        t.flags.writeable = False
        y.flags.writeable = False
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.t.size


class ExponentialStepModel(ResidualModel):
    """Three-parameter step response ``(a - b) exp(-c t) + b``, p = (a, b, c),
    at elapsed times t >= 0: ``step_response`` and ``step_response_jacobian``."""

    def predict(self, t, p):
        return step_response(FitParams(*p), t)

    def jacobian_row(self, t, p):
        return step_response_jacobian(t, p)


def step_response_jacobian(t, p):
    """Partial derivatives of the step-response model with respect to
    (a, b, c): ``(exp(-ct), 1 - exp(-ct), -t (a - b) exp(-ct))``.

    ``t`` (>= 0, seconds) may be a scalar or array; returns shape (..., 3).
    """
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0):
        raise InvalidParameterError("step_response_jacobian requires t >= 0")
    a, b, c = np.asarray(p, dtype=float)
    e = np.exp(-c * t_arr)
    return np.stack([e, 1.0 - e, -t_arr * (a - b) * e], axis=-1)


def initial_guess(ts: TimeSeries) -> FitParams:
    """Data-driven starting values for the exponential fit.

    ``a0`` is the mean of the first 1% of samples (at least 5), ``b0`` the
    mean of the last 5%.  ``c0 = 1 / t63`` where ``t63`` is the elapsed
    time at which the series first crosses 63.21% of the (b0 - a0) span;
    when no crossing exists, a third of the record length stands in for
    the time constant.  Rejects flat series, which carry no step to fit.
    """
    if ts.n < 10:
        raise DataLengthError("initial_guess needs at least 10 samples")
    head = max(5, ts.n // 100)
    tail = max(1, ts.n // 20)
    a0 = float(np.mean(ts.y[:head]))
    b0 = float(np.mean(ts.y[-tail:]))
    if abs(b0 - a0) <= 1e-9:
        raise FlatSeriesError(
            "series start and end levels coincide; nothing to fit"
        )
    threshold = a0 + _STEP_FRACTION * (b0 - a0)
    direction = 1.0 if b0 > a0 else -1.0
    crossed = direction * (ts.y - threshold) >= 0
    idx = int(np.argmax(crossed))
    if crossed[idx] and idx > 0:
        c0 = 1.0 / float(ts.t[idx] - ts.t[0])
    else:
        c0 = 3.0 / float(ts.t[-1] - ts.t[0])
    return FitParams(a=a0, b=b0, c=c0)


def r_squared(y, yhat) -> float:
    """Coefficient of determination 1 - SS_res / SS_tot.

    Rejects constant ``y``, whose total sum of squares is zero.
    """
    y = np.asarray(y, dtype=float)
    yhat = np.asarray(yhat, dtype=float)
    if y.ndim != 1 or y.shape != yhat.shape or y.size < 2:
        raise DataLengthError("y and yhat must be 1-d arrays of equal length >= 2")
    if np.ptp(y) == 0:
        raise FlatSeriesError("constant series has zero total sum of squares")
    ss_res = float(np.sum((y - yhat) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    return 1.0 - ss_res / ss_tot


@dataclass(frozen=True)
class FitReport:
    """Everything a fit run produced.

    ``process`` is None when the fitted rate constant is non-positive (no
    stable first-order process exists); the condition is also flagged in
    ``warnings``.  ``r_squared`` is measured against the fitting target
    (the smoothed series when smoothing was applied) and may be negative
    for fits worse than the mean predictor, which is flagged too.
    ``target`` is the series that was fitted: the smoothed series when
    smoothing was applied, the raw one otherwise (read-only); ``fitted`` is
    the fit at each sample, ``step_response(fit, t - t[0])`` (read-only).
    """

    fit: FitParams
    process: ProcessParams | None
    r_squared: float
    result: FitResult
    smoothing: SGConfig | None
    warnings: tuple[str, ...]
    target: np.ndarray = field(repr=False)
    fitted: np.ndarray = field(repr=False)


def fit_series(
    ts: TimeSeries,
    smoothing: SGConfig | None = None,
    cfg: LMConfig = LMConfig(),
    weights: Weights | None = None,
    p0: FitParams | None = None,
) -> FitReport:
    """Smooth (optionally), pick starting values, fit, and report.

    The fit runs on elapsed time ``ts.t - ts.t[0]``, so ``a`` is the value
    at the first sample whatever the clock's origin.  ``p0`` overrides the
    data-driven starting values.  Warnings flag a window larger than half
    the series, a non-positive fitted rate, an iteration-capped solver run,
    a negative R-squared and a fitted curve that leaves the range of the
    raw data; none of them aborts the run.  Raises SingularEquationsError
    when the fit is not finite in float64, which values near 1e154 (whose
    squares overflow) bring about.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        report = _fit_series(ts, smoothing, cfg, weights, p0)
    # lm_fit itself raises on a cost that overflows
    if not (np.isfinite(report.r_squared) and np.isfinite(report.fitted).all()):
        raise SingularEquationsError(
            "fit overflows float64: R^2 or fitted values are not finite"
        )
    return report


def _fit_series(ts, smoothing, cfg, weights, p0) -> FitReport:
    warnings: list[str] = []
    t = ts.t - ts.t[0]
    y_target = ts.y
    if smoothing is not None:
        if smoothing.window > ts.n // 2:
            warnings.append(
                f"smoothing window {smoothing.window} exceeds half the series "
                f"length ({ts.n}); expect edge-dominated output"
            )
        y_target = sg_smooth(ts.y, smoothing)
        y_target.flags.writeable = False

    if p0 is None:
        p0 = initial_guess(TimeSeries(ts.t, y_target, ts.rate))
    result = lm_fit(
        ExponentialStepModel(), t, y_target, weights, np.array([p0.a, p0.b, p0.c]), cfg
    )
    a, b, c = (float(v) for v in result.params)
    fit = FitParams(a=a, b=b, c=c)

    process = None
    if c > 0:
        process = fit_to_process(fit)
    else:
        warnings.append(
            f"fitted rate constant c={c:.6g} is not positive; no process "
            "parameters derived"
        )
    if result.converged == "max_iter":
        warnings.append(
            f"solver stopped at the iteration cap ({cfg.max_iter}) before "
            "meeting any tolerance"
        )

    fitted = step_response(fit, t)
    fitted.flags.writeable = False
    r2 = r_squared(y_target, fitted)
    if r2 < 0:
        warnings.append("fit is worse than the mean predictor (negative R^2)")
    warnings.extend(_range_warnings(ts.y, fitted))

    return FitReport(
        fit=fit,
        process=process,
        r_squared=r2,
        result=result,
        smoothing=smoothing,
        warnings=tuple(warnings),
        target=y_target,
        fitted=fitted,
    )


def _range_warnings(y, fitted) -> list[str]:
    """Flag a fitted curve that leaves ``[min(y), max(y)]`` of the raw record
    by more than 1e-6 of that span (rounding of a noise-free fit stays inside).

    The curve is monotone, so its ends decide: ``a`` at the first sample and
    the value at the last.  ``b`` itself is not checked, because a record
    that stops short of the asymptote puts a correct ``b`` outside the data.
    """
    lo, hi = float(np.min(y)), float(np.max(y))
    slack = 1e-6 * (hi - lo)
    ends = (("first sample (a)", fitted[0]), ("last sample", fitted[-1]))
    return [
        f"fitted value at the {name} {float(v):.6g} lies outside the data range "
        f"[{lo:.6g}, {hi:.6g}]"
        for name, v in ends
        if not lo - slack <= v <= hi + slack
    ]
