"""Weighted Levenberg-Marquardt nonlinear least squares.

Minimizes the weighted sum of squared residuals

    F(p) = sum_i w_i * (y_i - yhat(t_i; p))^2

by iterating the diagonally scaled damped update

    (J^T W J + lam * diag(J^T W J)) h = J^T W (y - yhat)

where ``J`` is the model Jacobian ``d yhat / d p`` and ``W = diag(w)``.
A candidate step is accepted only if it strictly decreases ``F``; ``lam``
is divided by 10 on acceptance and multiplied by 10 on rejection, so the
damping interpolates between Gauss-Newton (lam -> 0) and scaled gradient
descent (lam large).  The diagonal scaling makes the step invariant to a
uniform rescaling of the outputs.

The solver works on bare parameter vectors and enforces no bounds; callers
validate domain invariants on the final result.
"""

import abc
from dataclasses import dataclass, field

import numpy as np

from .errors import DataLengthError, InvalidParameterError, SingularEquationsError
from .model import _readonly

__all__ = [
    "ResidualModel",
    "Weights",
    "LMConfig",
    "FitResult",
    "JacobianCheck",
    "lm_fit",
    "validate_jacobian",
]

_DAMPING = 10.0  # the damping schedule's factor, see the module docstring
_TOL_STEP = 1e-10  # relative parameter step that stops a run


class ResidualModel(abc.ABC):
    """Fit-model interface: prediction and Jacobian row per abscissa.

    Both methods must broadcast: given an ndarray of abscissas ``t`` of
    shape (m,), ``predict`` returns shape (m,) and ``jacobian_row`` returns
    shape (m, n_params); scalars map to a scalar / length-n vector.  The
    Jacobian must agree with central finite differences of ``predict``
    (checked by :func:`validate_jacobian`, not at runtime).
    """

    @abc.abstractmethod
    def predict(self, t, p):
        """Model output yhat(t; p)."""

    @abc.abstractmethod
    def jacobian_row(self, t, p):
        """Partial derivatives d yhat / d p at (t, p)."""


@dataclass(frozen=True)
class Weights:
    """Diagonal weights w_i = 1 / sigma_i^2, one per data point."""

    values: np.ndarray

    def __post_init__(self):
        arr = _readonly(self.values)
        if arr.ndim != 1 or arr.size == 0:
            raise InvalidParameterError("weights must be a non-empty 1-d array")
        if not np.all(np.isfinite(arr)) or np.any(arr <= 0):
            raise InvalidParameterError("all weights must be finite and positive")
        object.__setattr__(self, "values", arr)

    @classmethod
    def unit(cls, m: int) -> "Weights":
        return cls(np.ones(m))

    @classmethod
    def from_sigma(cls, sigma) -> "Weights":
        """Weights from per-point measurement standard deviations, all > 0; a
        sigma whose square leaves float64 gives a weight that is rejected."""
        sigma = np.asarray(sigma, dtype=float)
        if not np.all(sigma > 0):
            raise InvalidParameterError("all sigma values must be positive")
        with np.errstate(divide="ignore", over="ignore"):
            return cls(1.0 / np.square(sigma))


@dataclass(frozen=True)
class LMConfig:
    """The solver settings the CLI exposes; :func:`lm_fit` fixes the rest.

    ``lambda0 = 0`` starts undamped; a rejected step turns damping on at the default.
    """

    lambda0: float = 1e-3
    max_iter: int = 200
    tol_grad: float = 1e-8

    def __post_init__(self):
        # a range test `not lo <= x < hi` rejects NaN as well
        if not 0 <= self.lambda0 < np.inf:
            raise InvalidParameterError("lambda0 must be non-negative and finite")
        if not self.max_iter >= 1:
            raise InvalidParameterError("max_iter must be at least 1")
        if not 0 < self.tol_grad < np.inf:
            raise InvalidParameterError("tol_grad must be positive and finite")


@dataclass(frozen=True)
class FitResult:
    """Outcome of an :func:`lm_fit` run.

    ``iterations`` counts candidate-step computations (accepted plus
    rejected); ``accepted_steps`` counts actual parameter updates.
    ``converged`` names the test that stopped the run: ``"grad"`` (max-norm
    of J^T W r below tol_grad), ``"step"`` (relative parameter step below
    1e-10) or ``"max_iter"``.  ``normal_matrix`` is J^T W J and ``cost`` is F, both
    at ``params`` against the ``y`` that :func:`lm_fit` was given.
    """

    params: np.ndarray
    cost: float
    iterations: int
    accepted_steps: int
    converged: str
    lambda_final: float
    normal_matrix: np.ndarray = field(repr=False)


def _jacobian(model: ResidualModel, t: np.ndarray, p) -> np.ndarray:
    """The model Jacobian at ``p`` as an (m, n_params) array."""
    return np.asarray(model.jacobian_row(t, p), dtype=float).reshape(t.size, -1)


def _system(model: ResidualModel, t, w, p, r):
    """J^T W J and J^T W r at the current point."""
    j = _jacobian(model, t, p)
    a = j.T @ (w[:, None] * j)
    g = j.T @ (w * r)
    return a, g


def _solve_damped(a: np.ndarray, g: np.ndarray, lam: float) -> np.ndarray:
    """Solve (A + lam*diag(A)) h = g through a Cholesky factorization."""
    m = a + lam * np.diag(np.diag(a))
    try:
        c = np.linalg.cholesky(m)
        h = np.linalg.solve(c.T, np.linalg.solve(c, g))
    except np.linalg.LinAlgError as exc:
        raise SingularEquationsError(
            f"damped normal equations singular or indefinite: {exc}"
        ) from exc
    if not np.all(np.isfinite(h)):
        raise SingularEquationsError("non-finite step from damped normal equations")
    return h


@np.errstate(over="ignore", invalid="ignore")  # overflow is raised or rejected
def lm_fit(
    model: ResidualModel,
    t,
    y,
    weights: Weights | None,
    p0,
    cfg: LMConfig = LMConfig(),
    callback=None,
) -> FitResult:
    """Iterate damped steps from ``p0`` until a tolerance or the cap fires.

    Steps are accepted and damped as the module docstring states; the damping
    stops at the largest finite float, and a rejected step is re-solved at the
    same point from the already-computed J, J^T W J and J^T W r.  The run
    stops on the tests that ``FitResult.converged`` names, as in Madsen,
    Nielsen & Tingleff (2004, Alg. 3.16); the step test applies to rejected
    steps too, so a run whose every step is rejected at the floating-point
    floor still stops.  Non-convergence is reported through ``converged``,
    never raised.  Data whose cost or normal matrix overflows float64 raise
    SingularEquationsError.

    ``callback``, when given, is invoked as ``callback(k, p, cost, lam)``
    after each accepted step ``k`` (1-based).
    """
    p = np.asarray(p0, dtype=float)
    if not np.all(np.isfinite(p)):
        raise InvalidParameterError("initial parameters must be finite")
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    if t.ndim != 1 or y.shape != t.shape:
        raise DataLengthError("t and y must be 1-d arrays of equal length")
    if t.size < p.size:
        raise DataLengthError(
            f"need at least as many points ({t.size}) as parameters ({p.size})"
        )
    w = np.ones(t.size) if weights is None else weights.values
    if w.size != t.size:
        raise DataLengthError("weights length must match the data")

    r = y - np.asarray(model.predict(t, p), dtype=float)
    cost = float(np.sum(w * r * r))
    if not np.isfinite(cost):
        raise SingularEquationsError("starting cost is not finite in float64")
    lam = cfg.lambda0
    iterations = 0
    accepted = 0
    a, g = _system(model, t, w, p, r)
    stop = None

    while iterations < cfg.max_iter:
        # the gradient test sees the point an accepted step produced, so it
        # outranks the step test that step raised
        if np.max(np.abs(g)) < cfg.tol_grad:
            stop = "grad"
        if stop is not None:
            break
        iterations += 1
        h = _solve_damped(a, g, lam)
        p_new = p + h
        # a trial cost that overflows to inf or nan is rejected like an uphill one
        r_new = y - np.asarray(model.predict(t, p_new), dtype=float)
        cost_new = float(np.sum(w * r_new * r_new))
        if cost_new < cost:
            accepted += 1
            p, r = p_new, r_new
            cost = cost_new
            lam = lam / _DAMPING
            a, g = _system(model, t, w, p, r)
            if callback is not None:
                callback(accepted, p.copy(), cost, lam)
        else:  # an undamped run damps from the default; the cap keeps a JSON number
            lam = min(lam * _DAMPING or LMConfig.lambda0, np.finfo(float).max)
        if np.linalg.norm(h) <= _TOL_STEP * (np.linalg.norm(p) + _TOL_STEP):
            stop = "step"
    else:
        stop = "max_iter"  # the cap outranks a test its last iteration raised

    return FitResult(
        params=_readonly(p),
        cost=cost,
        iterations=iterations,
        accepted_steps=accepted,
        converged=stop,
        lambda_final=lam,
        normal_matrix=_readonly(a),
    )


@dataclass(frozen=True)
class JacobianCheck:
    """Worst disagreement between an analytic Jacobian and finite differences.

    ``max_deviation`` is relative to the larger entry magnitude, floored at
    1 so near-zero entries compare absolutely; ``t_index``/``param_index``
    locate the worst entry; ``passed`` means ``max_deviation < 1e-6``.
    """

    max_deviation: float
    t_index: int
    param_index: int
    passed: bool


def validate_jacobian(model: ResidualModel, t_samples, p) -> JacobianCheck:
    """Compare ``jacobian_row`` against central finite differences of
    ``predict`` with per-parameter step ``h_j = max(1e-6, 1e-6 * |p_j|)``."""
    t = np.asarray(t_samples, dtype=float)
    if t.ndim != 1 or t.size == 0:
        raise DataLengthError("t_samples must be a non-empty 1-d array")
    p = np.asarray(p, dtype=float)
    if not np.all(np.isfinite(p)):
        raise InvalidParameterError("p must be finite")
    analytic = _jacobian(model, t, p)
    fd = np.empty_like(analytic)
    for j, step in enumerate(np.diag(np.maximum(1e-6, 1e-6 * np.abs(p)))):
        fd[:, j] = (
            np.asarray(model.predict(t, p + step), dtype=float)
            - np.asarray(model.predict(t, p - step), dtype=float)
        ) / (2.0 * step[j])
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), 1.0)
    dev = np.abs(analytic - fd) / denom
    i, j = np.unravel_index(int(np.argmax(dev)), dev.shape)
    worst = float(dev[i, j])
    return JacobianCheck(max_deviation=worst, t_index=int(i), param_index=int(j),
                         passed=worst < 1e-6)
