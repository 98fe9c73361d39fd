"""Shared test models for exercising the solver, the profile reference
for where the exponential fit stops, the standard errors of a fit, the
per-sample reference of the simulators' recurrence, and the
projection-matrix reference of the Savitzky-Golay smoother."""

import numpy as np

from thermofit import ResidualModel, SGConfig, sg_projection


class LinearModel(ResidualModel):
    """yhat = p0 * t + p1; its Jacobian is parameter-free."""

    def predict(self, t, p):
        return p[0] * np.asarray(t, dtype=float) + p[1]

    def jacobian_row(self, t, p):
        t = np.asarray(t, dtype=float)
        return np.stack([t, np.ones_like(t)], axis=-1)


class TwoParamExpModel(ResidualModel):
    """yhat = p0 * exp(-p1 * t)."""

    def predict(self, t, p):
        return p[0] * np.exp(-p[1] * np.asarray(t, dtype=float))

    def jacobian_row(self, t, p):
        t = np.asarray(t, dtype=float)
        e = np.exp(-p[1] * t)
        return np.stack([e, -p[0] * t * e], axis=-1)


class ScaledModel(ResidualModel):
    """Wraps another model, multiplying its output (and Jacobian) by gamma."""

    def __init__(self, inner, gamma):
        self.inner = inner
        self.gamma = gamma

    def predict(self, t, p):
        return self.gamma * self.inner.predict(t, p)

    def jacobian_row(self, t, p):
        return self.gamma * self.inner.jacobian_row(t, p)


class FlippedJacobianModel(ResidualModel):
    """Deliberately wrong Jacobian: flips the sign of one column."""

    def __init__(self, inner, column):
        self.inner = inner
        self.column = column

    def predict(self, t, p):
        return self.inner.predict(t, p)

    def jacobian_row(self, t, p):
        j = np.array(self.inner.jacobian_row(t, p))
        j[..., self.column] *= -1.0
        return j


class DeadParameterModel(ResidualModel):
    """yhat = p0 * t; p1 has no effect, so its Jacobian column is zero."""

    def predict(self, t, p):
        return p[0] * np.asarray(t, dtype=float)

    def jacobian_row(self, t, p):
        t = np.asarray(t, dtype=float)
        return np.stack([t, np.zeros_like(t)], axis=-1)


def stationary_rate(t, y, lo: float, hi: float) -> float:
    """The rate ``c`` at which the least-squares fit of
    ``(a - b) exp(-c t) + b`` to ``(t, y)`` is stationary, bracketed by
    ``[lo, hi]``: the reference for where ``lm_fit`` stops.

    Given ``c`` the model is linear in ``(a, b)``, so each ``c`` takes one
    2x2 least-squares solve.  The derivative of the profile cost
    ``sum(r^2) / 2`` over ``c`` is then ``sum(r t (a - b) exp(-c t))``
    (the ``(a, b)`` terms vanish at their optimum); its sign is bisected
    until the bracket holds no float between its ends."""
    t, y = np.asarray(t, dtype=float), np.asarray(y, dtype=float)

    def slope(c):
        e = np.exp(-c * t)
        basis = np.stack([e, 1.0 - e], axis=1)
        (a, b), *_ = np.linalg.lstsq(basis, y, rcond=None)
        return float(np.sum((y - basis @ [a, b]) * t * (a - b) * e))

    below = slope(lo) < 0
    assert below != (slope(hi) < 0), "the bracket must change sign"
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if (slope(mid) < 0) == below:
            lo = mid
        else:
            hi = mid
    return mid


def residual_variance(ts, rep) -> float:
    """``s^2 = sum((ts.y - rep.fitted)^2) / (n - 3)``: the variance of the
    raw residuals of fit report ``rep`` of record ``ts``, smoothed or not."""
    return float(np.sum((ts.y - rep.fitted) ** 2) / (ts.n - 3))


def standard_errors(ts, rep) -> np.ndarray:
    """Standard errors of the fitted ``(a, b, c)``: the square roots of the
    diagonal of ``s^2 (J^T W J)^-1``, with ``s^2`` from
    ``residual_variance``."""
    cov = residual_variance(ts, rep) * np.linalg.inv(rep.result.normal_matrix)
    return np.sqrt(np.diag(cov))


def sequential_recurrence(d: float, q: np.ndarray, y0: float) -> np.ndarray:
    """``y[0] = y0``, ``y[i+1] = y[i] + (d*y[i] + q[i])``, one sample at a time:
    the reference for the simulators' blocked ``model._recurrence``.

    This increment form rounds less than ``(1 + d)*y[i] + q[i]`` when the
    pole ``1 + d`` is near 1."""
    y = [float(y0)]
    yi = y[0]
    for qi in q.tolist():
        yi += d * yi + qi
        y.append(yi)
    return np.array(y)


def projection_smooth(data, cfg: SGConfig) -> np.ndarray:
    """Savitzky-Golay smoothing through the full window x window projection
    ``B = sg_projection(cfg)``: the reference for ``sg_smooth``, which
    applies the basis of ``B`` without forming it.

    Interior samples are correlated with the central row of ``B``; the
    first and last ``window // 2`` apply the other rows of ``B`` to the
    first/last full window."""
    y = np.asarray(data, dtype=float)
    b = sg_projection(cfg)
    n, w, m = y.size, cfg.window, cfg.window // 2
    out = np.empty(n)
    out[m : n - m] = np.correlate(y, b[m], mode="valid")
    out[:m] = b[:m] @ y[:w]
    out[n - m :] = b[m + 1 :] @ y[n - w :]
    return out
