"""Shared test models for exercising the solver, the profile reference
for where the exponential fit stops, the standard errors of a fit, the
per-sample reference of the simulators' recurrence and the blocked form
that concatenates its output (the bit-for-bit reference), the
projection-matrix reference of the Savitzky-Golay smoother, and a corpus
of records as temperature loggers write them."""

from itertools import accumulate

import numpy as np

from thermofit import (
    FitParams,
    ResidualModel,
    SGConfig,
    SynthSpec,
    generate,
    sg_projection,
    step_response,
)
from thermofit.model import _BLOCK, _CHUNK


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


@np.errstate(over="ignore", invalid="ignore")  # an unstable pole overflows
def concatenated_recurrence(d: float, q: np.ndarray, y0: float) -> np.ndarray:
    """The simulators' blocked recurrence with its output assembled by
    ``np.concatenate`` from ``z + (s + pm1[k]*s)``: the bit-for-bit
    reference for ``model._recurrence``, which writes the same sums into
    one output array in place.  The block product is formed in the same
    chunks of at most ``_CHUNK`` blocks (a last chunk of one block takes the
    8 before it), which keep its bits off the BLAS thread count."""
    pole, b = 1.0 + d, _BLOCK
    if abs(pole) > 1:
        b = int(np.clip(np.log(np.finfo(float).max) / np.log(abs(pole)), 1, b))
    k = np.arange(b + 1)
    # for d <= -1, log1p(d) is not finite but 1 + d is exact
    pm1 = np.expm1(k * np.log1p(d)) if d > -1 else pole**k - 1.0
    blocks = np.concatenate([q, np.zeros(-q.size % b)]).reshape(-1, b)
    toeplitz = np.triu((1.0 + pm1)[np.abs(k[:b, None] - k[:b])])
    nb = len(blocks)
    ends = [end - 8 * (end == nb - 1) for end in range(_CHUNK, nb, _CHUNK)]
    bounds = zip([0, *ends], [*ends, nb])
    z = np.concatenate([blocks[lo:hi] @ toeplitz for lo, hi in bounds])
    grow = float(pm1[b])  # a block moves its start s to s + (grow*s + z[B-1])
    starts = accumulate(z[:-1, -1].tolist(), lambda s, z_end: s + (grow * s + z_end),
                        initial=float(y0))
    s = np.fromiter(starts, float)[:, None]
    return np.concatenate([[float(y0)], (z + (s + pm1[1:] * s)).ravel()[: q.size]])


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


# ------------------------------------------------------------ logger records

LOGGER_TRUTH = FitParams(30.0, 25.0, 0.01)


def _csv(t, y) -> str:
    rows = (f"{ti!r},{yi!r}\n" for ti, yi in zip(t.tolist(), y.tolist()))
    return "time_s,temp_c\n" + "".join(rows)


def _one_sample(y, value):
    y = y.copy()
    y[y.size // 2] = value
    return y


def _ar1(t, y, rho):
    """The record's white noise turned into AR(1) noise of the same spread:
    ``e[i+1] = rho e[i] + sqrt(1 - rho^2) w[i]``, started at ``e[0] = w[0]``."""
    clean = step_response(LOGGER_TRUTH, t)
    w = y - clean
    return clean + sequential_recurrence(rho - 1.0, np.sqrt(1 - rho**2) * w[1:], w[0])


def _dead_time(t, y, delay):
    """The step moved ``delay`` seconds later, the record holding ``a`` until then."""
    return y - step_response(LOGGER_TRUTH, t) + step_response(
        LOGGER_TRUTH, np.maximum(t - delay, 0.0))


# Each takes the times and temperatures of the base record and returns CSV text.
_LOGGER_EDITS = {
    "clean": _csv,
    "epoch-times": lambda t, y: _csv(t + 1.7e9, y),
    "crlf-bom": lambda t, y: "\ufeff" + _csv(t, y).replace("\n", "\r\n"),
    "7hz-ms-times": lambda t, y: _csv(np.round(t, 3), y),
    "missing-row": lambda t, y: _csv(*(np.delete(v, v.size // 2) for v in (t, y))),
    "nan": lambda t, y: _csv(t, _one_sample(y, np.nan)),
    "printed-0.1": lambda t, y: _csv(t, np.round(y, 1)),
    "printed-0.0625": lambda t, y: _csv(t, np.round(y / 0.0625) * 0.0625),
    "spike-1e3": lambda t, y: _csv(t, _one_sample(y, 1e3)),
    "cut-at-half-tau": lambda t, y: _csv(t[t <= 50.0], y[t <= 50.0]),
    "dead-time-20s": lambda t, y: _csv(t, _dead_time(t, y, 20.0)),
    "ar1-0.9": lambda t, y: _csv(t, _ar1(t, y, 0.9)),
}
LOGGER_RECORDS = (*_LOGGER_EDITS, "seed-64")


def logger_record(kind: str, seed: int = 0) -> str:
    """CSV text of the logger record ``kind`` (one of ``LOGGER_RECORDS``).

    Each is ``generate`` of ``LOGGER_TRUTH`` (tau = 100 s) at 10 Hz for 300 s
    with noise sigma 0.05 and ``seed``, with one defect a logger brings: epoch
    times, CRLF line ends after a byte-order mark, 7 Hz (generated at that rate)
    with times printed to 1 ms, a missing row, a ``nan`` or a 1e3 degC sample in
    the middle, temperatures printed to 0.1 or 0.0625 degC, a record cut at
    half a time constant, 20 s of dead time, or AR(1) noise at rho 0.9.
    ``seed-64`` is the record ``thermofit simulate --rate 10 --duration 100
    --sigma 2 --seed 64`` writes, and takes no seed."""
    if kind == "seed-64":
        ts = generate(SynthSpec(LOGGER_TRUTH, 10.0, 100.0, 2.0, 64))
        return _csv(ts.t, ts.y)
    rate = 7.0 if kind == "7hz-ms-times" else 10.0
    ts = generate(SynthSpec(LOGGER_TRUTH, rate, 300.0, 0.05, seed))
    return _LOGGER_EDITS[kind](ts.t, ts.y)
