"""Weighted Levenberg-Marquardt nonlinear least squares.

Minimizes the weighted sum of squared residuals

    F(p) = sum_i w_i * (y_i - yhat(t_i; p))^2

by iterating the diagonally scaled damped update

    (J^T W J + lam * diag(J^T W J)) h = J^T W (y - yhat)

where ``J`` is the model Jacobian ``d yhat / d p`` and ``W = diag(w)``.
A candidate step is accepted only if it strictly decreases ``F``; ``lam``
is divided by ``lambda_down`` on acceptance and multiplied by ``lambda_up``
on rejection, so the damping interpolates between Gauss-Newton (lam -> 0)
and scaled gradient descent (lam large).  The diagonal scaling makes the
step invariant to a uniform rescaling of the outputs.

The solver works on bare parameter vectors and enforces no bounds; callers
validate domain invariants on the final result.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

import numpy as np

from .errors import DataLengthError, InvalidParameterError, SingularEquationsError

__all__ = [
    "ResidualModel",
    "Weights",
    "LMConfig",
    "FitResult",
    "JacobianCheck",
    "lm_step",
    "lm_fit",
    "validate_jacobian",
]


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


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


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
        """Weights from per-point measurement standard deviations."""
        return cls(1.0 / np.square(np.asarray(sigma, dtype=float)))


@dataclass(frozen=True)
class LMConfig:
    """Damping schedule and termination tolerances.

    ``lambda0 = 0`` runs undamped Gauss-Newton; the multiplicative schedule
    then keeps the damping pinned at zero for the whole run.
    """

    lambda0: float = 1e-3
    lambda_up: float = 10.0
    lambda_down: float = 10.0
    max_iter: int = 200
    tol_grad: float = 1e-8
    tol_step: float = 1e-10
    tol_cost: float = 1e-12

    def __post_init__(self):
        if self.lambda0 < 0:
            raise InvalidParameterError("lambda0 must be non-negative")
        if self.lambda_up <= 1 or self.lambda_down <= 1:
            raise InvalidParameterError("lambda_up and lambda_down must exceed 1")
        if self.max_iter < 1:
            raise InvalidParameterError("max_iter must be at least 1")
        if min(self.tol_grad, self.tol_step, self.tol_cost) <= 0:
            raise InvalidParameterError("all tolerances must be positive")


@dataclass(frozen=True)
class FitResult:
    """Outcome of an :func:`lm_fit` run.

    ``iterations`` counts candidate-step computations (accepted plus
    rejected); ``accepted_steps`` counts actual parameter updates.
    ``converged`` names the criterion that stopped the run: ``"grad"``
    (max-norm of J^T W r below tol_grad), ``"step"`` (relative parameter
    step below tol_step), ``"cost"`` (relative cost decrease below
    tol_cost) or ``"max_iter"``.  ``normal_matrix`` is J^T W J at the
    solution.
    """

    params: np.ndarray
    cost: float
    iterations: int
    accepted_steps: int
    converged: str
    residuals: np.ndarray
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


def _validate_data(t, y, weights, n_params):
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    if t.ndim != 1 or y.shape != t.shape:
        raise DataLengthError("t and y must be 1-d arrays of equal length")
    if t.size < n_params:
        raise DataLengthError(
            f"need at least as many points ({t.size}) as parameters ({n_params})"
        )
    w = np.ones(t.size) if weights is None else weights.values
    if w.size != t.size:
        raise DataLengthError("weights length must match the data")
    return t, y, w


@np.errstate(over="ignore", invalid="ignore")  # overflow is raised or rejected
def lm_step(model: ResidualModel, t, y, weights: Weights | None, p, lam: float):
    """One candidate update: solve the damped normal equations at ``p``.

    Returns the step ``h``; the caller decides acceptance.  ``lam >= 0``.
    """
    if lam < 0:
        raise InvalidParameterError("lam must be non-negative")
    p = np.asarray(p, dtype=float)
    t, y, w = _validate_data(t, y, weights, p.size)
    r = y - np.asarray(model.predict(t, p), dtype=float)
    a, g = _system(model, t, w, p, r)
    return _solve_damped(a, g, lam)


@np.errstate(over="ignore", invalid="ignore")
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

    A step is accepted only when it strictly decreases the weighted cost;
    on rejection the damping grows and the step is re-solved at the same
    point, reusing the already-computed J, J^T W J and J^T W r.  The
    sequence of accepted costs is therefore strictly decreasing.  The step
    test applies to rejected steps too, so a run whose every step is
    rejected at the floating-point floor still stops (Madsen, Nielsen &
    Tingleff 2004, Alg. 3.16).
    Non-convergence is reported through ``converged``, never raised.  Data
    whose cost or normal matrix overflows float64 raise SingularEquationsError.

    ``callback``, when given, is invoked as ``callback(k, p, cost, lam)``
    after each accepted step ``k`` (1-based).
    """
    p = np.asarray(p0, dtype=float).copy()
    if not np.all(np.isfinite(p)):
        raise InvalidParameterError("initial parameters must be finite")
    t, y, w = _validate_data(t, y, weights, p.size)

    r = y - np.asarray(model.predict(t, p), dtype=float)
    cost = float(np.sum(w * r * r))
    if not np.isfinite(cost):
        raise SingularEquationsError("starting cost is not finite in float64")
    lam = cfg.lambda0
    iterations = 0
    accepted = 0
    converged = "max_iter"
    a = g = None
    step_small = cost_stalled = False

    while iterations < cfg.max_iter:
        if a is None:
            a, g = _system(model, t, w, p, r)
        # the gradient test sees the point an accepted step produced, so it
        # outranks the step/cost tests that step raised
        if np.max(np.abs(g)) < cfg.tol_grad:
            converged = "grad"
            break
        if step_small:
            converged = "step"
            break
        if cost_stalled:
            converged = "cost"
            break
        iterations += 1
        h = _solve_damped(a, g, lam)
        p_new = p + h
        # a trial cost that overflows to inf or nan is rejected like an uphill one
        r_new = y - np.asarray(model.predict(t, p_new), dtype=float)
        cost_new = float(np.sum(w * r_new * r_new))
        if cost_new < cost:
            accepted += 1
            rel_decrease = (cost - cost_new) / cost if cost > 0 else 0.0
            p, r = p_new, r_new
            cost = cost_new
            lam = lam / cfg.lambda_down
            a = g = None
            if callback is not None:
                callback(accepted, p.copy(), cost, lam)
            cost_stalled = rel_decrease < cfg.tol_cost
        else:
            lam = lam * cfg.lambda_up
        step_small = float(np.linalg.norm(h)) <= cfg.tol_step * (
            float(np.linalg.norm(p)) + cfg.tol_step
        )

    if a is None:
        a, g = _system(model, t, w, p, r)
    return FitResult(
        params=_readonly(p),
        cost=cost,
        iterations=iterations,
        accepted_steps=accepted,
        converged=converged,
        residuals=_readonly(r),
        lambda_final=lam,
        normal_matrix=_readonly(a),
    )


@dataclass(frozen=True)
class JacobianCheck:
    """Worst disagreement between an analytic Jacobian and finite differences.

    ``max_deviation`` is relative to the larger entry magnitude, floored at
    1 so near-zero entries compare absolutely; ``t_index``/``param_index``
    locate the worst entry; ``per_param`` holds the worst deviation per
    parameter column.
    """

    max_deviation: float
    t_index: int
    param_index: int
    passed: bool
    per_param: np.ndarray


def validate_jacobian(
    model: ResidualModel, t_samples, p, rel_tol: float = 1e-6
) -> JacobianCheck:
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
    for j in range(p.size):
        h = max(1e-6, 1e-6 * abs(p[j]))
        p_plus = p.copy()
        p_plus[j] += h
        p_minus = p.copy()
        p_minus[j] -= h
        fd[:, j] = (
            np.asarray(model.predict(t, p_plus), dtype=float)
            - np.asarray(model.predict(t, p_minus), dtype=float)
        ) / (2.0 * h)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), 1.0)
    dev = np.abs(analytic - fd) / denom
    i, j = np.unravel_index(int(np.argmax(dev)), dev.shape)
    worst = float(dev[i, j])
    return JacobianCheck(
        max_deviation=worst,
        t_index=int(i),
        param_index=int(j),
        passed=worst < rel_tol,
        per_param=_readonly(dev.max(axis=0)),
    )
