"""Savitzky-Golay smoothing, built from the projection matrix up.

Each output sample is the value, at the sample's own position, of the
least-squares polynomial of the configured degree fitted over a sliding
window.  For a window of ``2m + 1`` samples this is the linear projection

    B = V (V^T V)^{-1} V^T

onto polynomials of degree <= order, where ``V`` is the Vandermonde matrix
of the centred integer abscissas ``-m .. m``.  Interior samples use the
central row of ``B`` as a correlation kernel; the first and last ``m``
samples reuse the remaining rows of ``B`` applied to the first/last full
window, so no samples are dropped and the output has the input's length.

``B`` is computed from a QR factorization of ``V`` (``B = Q Q^T``) rather
than by inverting the normal equations, which keeps the construction well
conditioned at the large windows used for slow thermal data (order 3,
window 901).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataLengthError, FilterConfigError

__all__ = ["SGConfig", "sg_projection", "sg_smooth"]


@dataclass(frozen=True)
class SGConfig:
    """Polynomial degree and odd window length (in samples) of the filter."""

    order: int
    window: int

    def __post_init__(self):
        if self.window < 3 or self.window % 2 == 0:
            raise FilterConfigError(
                f"window must be an odd integer >= 3, got {self.window}"
            )
        if not 0 <= self.order < self.window:
            raise FilterConfigError(
                f"order must satisfy 0 <= order < window, got order={self.order}, "
                f"window={self.window}"
            )

    @property
    def half(self) -> int:
        return self.window // 2


def sg_projection(cfg: SGConfig) -> np.ndarray:
    """Projection matrix (window x window) onto degree-<=order polynomials.

    Symmetric and idempotent.  Raises FilterConfigError when the design
    matrix is numerically rank-deficient or overflows float64, which
    signals an order too high for the window to support.
    """
    x = np.arange(-cfg.half, cfg.half + 1, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # NaN fails the test below
        q, r = np.linalg.qr(np.vander(x, cfg.order + 1, increasing=True))
    diag = np.abs(np.diag(r))
    if not diag.min() > cfg.window * np.finfo(float).eps * diag.max():
        raise FilterConfigError(
            f"design matrix numerically singular for order={cfg.order}, "
            f"window={cfg.window}; reduce the order"
        )
    return q @ q.T


def sg_smooth(data, cfg: SGConfig) -> np.ndarray:
    """Smooth a 1-d sequence; output length equals input length.

    Interior samples are the correlation of the data with the central row
    of the projection; the first and last ``half`` samples apply the other
    projection rows to the first/last full window (polynomial edge
    treatment).  Requires at least ``window`` samples.
    """
    y = np.asarray(data, dtype=float)
    if y.ndim != 1:
        raise DataLengthError("data must be a 1-d sequence")
    n = y.size
    if n < cfg.window:
        raise DataLengthError(
            f"need at least window={cfg.window} samples, got {n}"
        )
    b = sg_projection(cfg)
    m = cfg.half
    out = np.empty(n)
    out[m : n - m] = np.correlate(y, b[m], mode="valid")
    out[:m] = b[:m] @ y[: cfg.window]
    out[n - m :] = b[m + 1 :] @ y[n - cfg.window :]
    return out
