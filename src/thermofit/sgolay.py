"""Savitzky-Golay smoothing, applied through an orthonormal polynomial basis.

Each output sample is the value, at the sample's own position, of the
least-squares polynomial of the configured degree fitted over a sliding
window of ``2m + 1`` samples: the projection ``B = V (V^T V)^{-1} V^T``
onto polynomials of degree <= order, where ``V`` is the Vandermonde matrix
of the centred abscissas ``-m .. m``.  ``B = Q Q^T`` with ``Q`` (window x
(order + 1)) from a QR factorization of ``V``, which stays well
conditioned at the large windows used for slow thermal data (order 3,
window 901).  ``sg_smooth`` states how interior and edge samples are made.
"""

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


def _basis(cfg: SGConfig) -> np.ndarray:
    """Orthonormal basis (window x (order + 1)) of degree-<=order polynomials,
    checked as ``sg_projection`` documents."""
    m = cfg.window // 2
    x = np.arange(-m, m + 1, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # NaN fails the test below
        q, r = np.linalg.qr(np.vander(x, cfg.order + 1, increasing=True))
    diag = np.abs(np.diag(r))
    if not diag.min() > cfg.window * np.finfo(float).eps * diag.max():
        raise FilterConfigError(
            f"design matrix numerically singular for order={cfg.order}, "
            f"window={cfg.window}; reduce the order"
        )
    return q


def sg_projection(cfg: SGConfig) -> np.ndarray:
    """Projection matrix (window x window) onto degree-<=order polynomials.

    Symmetric and idempotent.  Raises FilterConfigError when the design
    matrix is numerically rank-deficient or overflows float64, which
    signals an order too high for the window to support; so does
    ``sg_smooth``.
    """
    q = _basis(cfg)
    return q @ q.T


@np.errstate(over="ignore", invalid="ignore")
def sg_smooth(data, cfg: SGConfig) -> np.ndarray:
    """Smooth a 1-d sequence; output length equals input length.

    Interior samples are the correlation of the data with the central row
    ``Q Q[m]`` of the projection, which is never formed, so memory grows
    linearly with the window; the first and last ``m = window // 2`` samples
    evaluate the polynomial fitted to the first/last full window (polynomial
    edge treatment).  Requires at least ``window`` samples.  An output beyond
    float64 comes back non-finite, without a warning; ``TimeSeries``
    rejects it.
    """
    y = np.asarray(data, dtype=float)
    if y.ndim != 1:
        raise DataLengthError("data must be a 1-d sequence")
    n, w = y.size, cfg.window
    if n < w:
        raise DataLengthError(f"need at least window={w} samples, got {n}")
    q = _basis(cfg)
    m = w // 2
    out = np.empty(n)
    out[m : n - m] = np.correlate(y, q @ q[m], mode="valid")
    out[:m] = q[:m] @ (q.T @ y[:w])
    out[n - m :] = q[m + 1 :] @ (q.T @ y[n - w :])
    return out
