"""End-to-end identification of a measured step response.

Fits the exponential step-response model (``ExponentialStepModel``) to a
``model.TimeSeries`` record: optional smoothing, data-driven starting values,
the solver run, fit statistics and the conversion back to process parameters.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (DataLengthError, FlatSeriesError, InvalidParameterError,
                     SingularEquationsError)
from .model import (FitParams, ProcessParams, TimeSeries, _readonly, fit_to_process,
                    step_response)
from .sgolay import SGConfig, sg_smooth
from .solver import FitResult, LMConfig, ResidualModel, Weights, lm_fit

__all__ = [
    "FitReport",
    "ExponentialStepModel",
    "initial_guess",
    "r_squared",
    "fit_series",
]

# Fraction of a step completed after one time constant: 1 - exp(-1).
_STEP_FRACTION = 0.6321


@np.errstate(over="ignore")  # an overflowing mean is raised below
def initial_guess(ts: TimeSeries) -> FitParams:
    """Data-driven starting values for the exponential fit.

    ``a0`` is the mean of the first 1% of samples (at least 5), ``b0`` the
    mean of the last 5%.  ``c0 = 1 / (t[k] - t[0])`` where ``k`` counts the
    samples short of 63.21% of the (b0 - a0) step, clamped to [1, n - 1]; on
    a monotone record that is the first crossing, and noise cannot pull it
    to the first samples.  Rejects flat series, which carry no step to fit,
    and raises SingularEquationsError when the step overflows float64.
    """
    if ts.n < 10:
        raise DataLengthError("initial_guess needs at least 10 samples")
    head = max(5, ts.n // 100)
    tail = max(1, ts.n // 20)
    a0 = float(np.mean(ts.y[:head]))
    b0 = float(np.mean(ts.y[-tail:]))
    if not math.isfinite(b0 - a0):
        raise SingularEquationsError("start or end level overflows float64")
    if abs(b0 - a0) <= 1e-9:
        raise FlatSeriesError(
            "series start and end levels coincide; nothing to fit"
        )
    threshold = a0 + _STEP_FRACTION * (b0 - a0)
    direction = 1.0 if b0 > a0 else -1.0
    k = int(np.count_nonzero(direction * (ts.y - threshold) < 0))
    k = min(max(k, 1), ts.n - 1)  # rounding in a mean can put every sample on one side
    return FitParams(a=a0, b=b0, c=1.0 / float(ts.t[k] - ts.t[0]))


def r_squared(y, yhat) -> float:
    """Coefficient of determination 1 - SS_res / SS_tot.

    Rejects a zero total sum of squares: constant ``y``, or one whose
    squared spread underflows float64.
    """
    y = np.asarray(y, dtype=float)
    yhat = np.asarray(yhat, dtype=float)
    if y.ndim != 1 or y.shape != yhat.shape or y.size < 2:
        raise DataLengthError("y and yhat must be 1-d arrays of equal length >= 2")
    if np.ptp(y) == 0:
        raise FlatSeriesError("constant series has zero total sum of squares")
    ss_res = float(np.sum((y - yhat) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    if ss_tot == 0:
        raise FlatSeriesError("total sum of squares underflows float64")
    return 1.0 - ss_res / ss_tot


@dataclass(frozen=True)
class FitReport:
    """Everything a fit run produced.

    ``smoothing`` is the ``SGConfig`` applied, or None; ``process`` is None
    whenever ``fit_to_process`` rejects the fit.
    ``target`` is the series that was fitted and the reference of ``r_squared``:
    the smoothed series when smoothing was applied, as slow thermal runs are
    analyzed in practice, the raw one otherwise (read-only; the raw series stays
    with the caller for overlays).  ``r_squared`` may be negative for fits worse
    than the mean predictor.  ``fitted`` is the fit at each sample,
    ``step_response(fit, t - t[0])`` (read-only).  ``stats`` holds ``dfe``
    (n - 3), ``sse`` and ``rmse = sqrt(sse / dfe)`` of the raw record, weighted
    as the fit, and the standard errors ``se`` of ``(a, b, c)`` with their
    ``correlation``, from ``sse / dfe * D pinv(D J^T W J D) D`` with
    ``D = diag(J^T W J)^(-1/2)`` under white noise (so they do not depend on the
    time unit), and the ``resolution``, the smallest gap between distinct raw values.
    Each is None where it is undefined or not finite: ``rmse`` at ``dfe == 0``,
    ``se`` and ``correlation`` unless every standard error is positive.
    """

    fit: FitParams
    process: ProcessParams | None
    r_squared: float
    result: FitResult
    smoothing: SGConfig | None
    warnings: tuple[str, ...]
    target: np.ndarray = field(repr=False)
    fitted: np.ndarray = field(repr=False)
    stats: dict = field(repr=False)


class ExponentialStepModel(ResidualModel):
    """The solver binding of :func:`step_response` and its Jacobian, p = (a, b, c)."""

    def predict(self, t, p):
        return step_response(FitParams(*p), t)

    @np.errstate(over="ignore")
    def jacobian_row(self, t, p):
        """Partials in (a, b, c) from :func:`step_response`: ``df/da = f(t; 1, 0, c)``,
        ``df/db = 1 - df/da`` and ``df/dc = -t (a - b) df/da``.

        ``t`` may be a scalar or array; returns shape (..., 3).
        """
        t_arr = np.asarray(t, dtype=float)
        a, b, c = np.asarray(p, dtype=float)
        e = step_response(FitParams(1.0, 0.0, c), t_arr)
        return np.stack([e, 1.0 - e, -t_arr * (a - b) * e], axis=-1)


@np.errstate(over="ignore", invalid="ignore")  # a non-finite fit is raised below
def fit_series(
    ts: TimeSeries,
    smoothing: SGConfig | None = None,
    cfg: LMConfig = LMConfig(),
    weights: Weights | None = None,
    p0: FitParams | None = None,
) -> FitReport:
    """Smooth (optionally), pick starting values, fit, and report.

    The fit runs on elapsed time ``ts.t - ts.t[0]``, on any spacing, so ``a`` is the
    value at the first sample whatever the clock's origin.  ``p0`` overrides the
    data-driven starting values.  Warnings flag a window larger than half the
    series, a fit that ``fit_to_process`` rejects, an iteration-capped solver run, a
    negative R-squared, a fitted curve that leaves the range of the raw data and a
    standard error of ``c`` over 10% of ``|c|``; none of them aborts the run.
    Raises NonUniformSamplingError when asked to smooth a series that
    ``ts.require_uniform()`` rejects, and SingularEquationsError when the fit is not
    finite in float64, which values near 1e154 (whose squares overflow) bring about.
    """
    warnings: list[str] = []
    t = ts.t - ts.t[0]
    target = ts
    if smoothing is not None:
        if smoothing.window > ts.n // 2:
            warnings.append(
                f"smoothing window {smoothing.window} exceeds half the series "
                f"length ({ts.n}); expect edge-dominated output"
            )
        target = TimeSeries(ts.t, sg_smooth(ts.require_uniform().y, smoothing), ts.rate)

    if p0 is None:
        p0 = initial_guess(target)
    result = lm_fit(
        ExponentialStepModel(), t, target.y, weights, np.array([p0.a, p0.b, p0.c]), cfg
    )
    fit = FitParams(*(float(v) for v in result.params))

    try:
        process = fit_to_process(fit)
    except InvalidParameterError as exc:
        process = None
        warnings.append(f"{exc}; no process parameters derived")
    if result.converged == "max_iter":
        warnings.append(
            f"solver stopped at the iteration cap ({cfg.max_iter}) before "
            "meeting any tolerance"
        )

    fitted = _readonly(step_response(fit, t))
    r2 = r_squared(target.y, fitted)
    # lm_fit itself raises on a cost that overflows
    if not np.isfinite(r2):
        raise SingularEquationsError(
            "fit overflows float64: R^2 or fitted values are not finite"
        )
    if r2 < 0:
        warnings.append("fit is worse than the mean predictor (negative R^2)")
    gaps = np.diff(np.sort(ts.y))  # np.unique would import numpy.ma; all 0 for one value
    dfe, r = ts.n - result.params.size, ts.y - fitted  # raw, smoothed or not
    sse = float(np.sum((1.0 if weights is None else weights.values) * r * r))
    stats = {"dfe": dfe, "sse": None, "rmse": None, "se": None, "correlation": None,
             "resolution": float(gaps[gaps > 0].min()) if gaps.any() else None}
    warnings.extend(_range_warnings(ts.y, fitted, stats["resolution"]))
    if math.isfinite(sse):  # a raw residual past 1e154 that smoothing hid squares to inf
        stats.update(sse=sse, rmse=math.sqrt(sse / dfe) if dfe else None)
    with np.errstate(divide="ignore"):  # scaled: pinv's cut-off ignores the time unit
        d = 1.0 / np.sqrt(np.diag(result.normal_matrix))
    scaled = d[:, None] * result.normal_matrix * d  # not finite on a zero or inf diagonal
    if dfe and np.isfinite(scaled).all():  # else pinv raises
        cov = sse / dfe * np.outer(d, d) * np.linalg.pinv(scaled)
        cov = np.triu(cov) + np.triu(cov, 1).T  # pinv is symmetric only to rounding
        se = np.sqrt(np.diag(cov))
        if np.all(np.isfinite(se) & (se > 0)):
            corr = np.clip(cov / np.outer(se, se), -1.0, 1.0)  # rounding passes 1
            np.fill_diagonal(corr, 1.0)
            stats.update(se=se.tolist(), correlation=corr.tolist())
            if se[2] > 0.1 * abs(fit.c):
                warnings.append(f"standard error of c {se[2]:.3g} exceeds 10% of "
                                f"|c| = {abs(fit.c):.3g}; the rate is poorly determined")

    return FitReport(
        fit=fit,
        process=process,
        r_squared=r2,
        result=result,
        smoothing=smoothing,
        warnings=tuple(warnings),
        target=target.y,
        fitted=fitted,
        stats=stats,
    )


def _range_warnings(y, fitted, q) -> list[str]:
    """Flag a fitted curve that leaves ``[min(y), max(y)]`` of the raw record by
    more than rounding (1e-6 of that span, 1e-12 of its magnitude) plus ``q / 2``
    (a record printed to resolution ``q`` may stop that short of its ends).

    The curve is monotone, so its ends decide: ``a`` at the first sample and
    the value at the last.  ``b`` itself is not checked, because a record
    that stops short of the asymptote puts a correct ``b`` outside the data.
    """
    lo, hi = float(np.min(y)), float(np.max(y))
    slack = 1e-6 * (hi - lo) + (q or 0.0) / 2 + 1e-12 * max(abs(lo), abs(hi))
    ends = (("first sample (a)", fitted[0]), ("last sample", fitted[-1]))
    return [
        f"fitted value at the {name} {float(v):.6g} lies outside the data range "
        f"[{lo:.6g}, {hi:.6g}]"
        for name, v in ends
        if not lo - slack <= v <= hi + slack
    ]
