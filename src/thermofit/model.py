"""First-order thermal process models.

A lamp injects heat into a closed box at a rate proportional to its drive
voltage, while the box loses heat to the surroundings in proportion to the
temperature difference; the enclosed air stores the balance.  Lumping the
constants turns this energy balance into a first-order process with static
gain ``K = k / (A * U)`` and time constant ``tau = rho * cp / (A * U)``
whose unit-step response is the three-parameter exponential

    f(t) = (a - b) * exp(-c * t) + b

with ``a = f(0)``, ``b = f(infinity)`` and ``c = 1 / tau``.

``TimeSeries`` holds a measured record; units are degrees Celsius and seconds throughout.
"""

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import (DataLengthError, InvalidParameterError, NonUniformSamplingError,
                     UnstableDiscretizationError)

__all__ = [
    "PhysicalParams",
    "ProcessParams",
    "FitParams",
    "DiscreteModel",
    "TimeSeries",
    "ode_rhs",
    "derive_process_params",
    "process_to_fit",
    "fit_to_process",
    "step_response",
    "discretize",
    "simulate_discrete",
    "simulate_continuous",
    "DISCRETIZATION_METHODS",
]

_THETA = {"tustin": 0.5, "forward": 0.0, "backward": 1.0}  # see discretize
DISCRETIZATION_METHODS = tuple(_THETA)
_BLOCK = 64  # samples per block of _recurrence


def _require_finite(obj, *names: str) -> None:
    for name in names:
        if not np.isfinite(getattr(obj, name)):
            raise InvalidParameterError(f"{name} must be finite")


@dataclass(frozen=True)
class PhysicalParams:
    """Raw physical constants of the heated box.  All are finite and all but
    ``t_ambient`` positive; so are, in float64, the lumped divisors
    ``area * heat_transfer_coeff`` and ``rho * cp``.

    Attributes
    ----------
    lamp_constant : float
        Heat generated per volt of lamp drive, W/V.
    area : float
        Surface area through which heat escapes, m^2.
    heat_transfer_coeff : float
        Overall heat-transfer coefficient of the wall material, W/(m^2 K).
    rho : float
        Density of the enclosed air, kg/m^3.
    cp : float
        Specific heat capacity of the enclosed air, J/(kg K).
    t_ambient : float
        Ambient temperature outside the box, degC.
    """

    lamp_constant: float
    area: float
    heat_transfer_coeff: float
    rho: float
    cp: float
    t_ambient: float

    def __post_init__(self):
        for name in ("lamp_constant", "area", "heat_transfer_coeff", "rho", "cp"):
            if not 0 < getattr(self, name) < np.inf:
                raise InvalidParameterError(f"{name} must be positive and finite")
        _require_finite(self, "t_ambient")
        for x, y in (("area", "heat_transfer_coeff"), ("rho", "cp")):
            if not 0 < float(getattr(self, x)) * float(getattr(self, y)) < np.inf:
                raise InvalidParameterError(
                    f"{x} * {y} must be positive and finite in float64")


@dataclass(frozen=True)
class ProcessParams:
    """Lumped first-order process: gain K (degC/V), time constant tau (s),
    ambient level (degC) and pure transport dead time (s).  All four are
    finite, ``tau > 0`` and ``dead_time >= 0``."""

    gain: float
    tau: float
    t_ambient: float
    dead_time: float = 0.0

    def __post_init__(self):
        _require_finite(self, "gain", "tau", "t_ambient", "dead_time")
        if not self.tau > 0:
            raise InvalidParameterError("tau must be positive")
        if self.dead_time < 0:
            raise InvalidParameterError("dead_time must be non-negative")


@dataclass(frozen=True)
class FitParams:
    """The three unknowns of the exponential step-response fit.

    ``a`` is the initial value f(0) in degC, ``b`` the asymptote f(inf) in
    degC, and ``c`` the rate constant in 1/s.  Any physically meaningful fit
    has ``c > 0``; the container itself stays permissive because the solver
    may pass through (and occasionally settle on) non-positive rates, which
    the fitting layer flags rather than hides.  Operations that genuinely
    require ``c > 0`` (``fit_to_process``) enforce it themselves.
    """

    a: float
    b: float
    c: float

    def __post_init__(self):
        _require_finite(self, "a", "b", "c")


@dataclass(frozen=True)
class DiscreteModel:
    """Monic first-order difference equation.

    ``num`` holds one or two input coefficients and ``den == (1, den[1])``:

        y[n] = num[0] * u[n] + num[1] * u[n-1] - den[1] * y[n-1]

    :func:`discretize` gives the coefficients.  The input is additionally
    delayed by ``delay_samples`` whole samples.
    The model is a pure transfer-function realization: there is no ambient
    offset inside it, the caller supplies the initial output level.
    A realization needs ``0 < sample_time < inf``, finite ``num`` and
    ``den[1]``, a pole other than exactly 1 and a finite ``dc_gain``.
    """

    num: tuple[float, ...]
    den: tuple[float, ...]
    sample_time: float
    delay_samples: int = 0

    def __post_init__(self):
        if not self.sample_time > 0:
            raise InvalidParameterError("sample_time must be positive")
        if len(self.den) != 2 or self.den[0] != 1.0 or not 1 <= len(self.num) <= 2:
            raise InvalidParameterError(
                "first order only: den = (1, den[1]) and one or two num coefficients"
            )
        if not (self.delay_samples >= 0 and float(self.delay_samples).is_integer()):
            raise InvalidParameterError("delay_samples must be a non-negative integer")
        # dc_gain divides by 1 - pole, so the pole is tested first
        finite = [self.sample_time, *self.num, self.den[1]]
        if self.pole == 1 or not np.isfinite([*finite, self.dc_gain]).all():
            raise InvalidParameterError("pole rounds to 1 or a ratio overflows float64")

    @property
    def pole(self) -> float:
        """Pole of the model (negated feedback coefficient)."""
        return -self.den[1]

    @property
    def dc_gain(self) -> float:
        """Steady-state output per unit input of the stored coefficients,
        sum(num)/sum(den): the level :func:`simulate_discrete` settles to.  As
        the pole is stored rounded to float64, for ``tau / Ts >> 1`` this
        differs from K by up to about ``eps * tau / Ts`` relative."""
        return sum(self.num) / sum(self.den)


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class TimeSeries:
    """Temperature record, on any spacing (:meth:`require_uniform` tests it).

    ``t`` in seconds (strictly increasing, with a span finite in float64),
    ``y`` in degC, both finite; ``rate`` the nominal sampling rate in Hz
    (positive, with ``rate`` and ``1/rate`` finite).  Arrays are copied and frozen.
    """

    t: np.ndarray
    y: np.ndarray
    rate: float

    def __post_init__(self):
        t, y = _readonly(self.t), _readonly(self.y)
        if t.ndim != 1 or y.ndim != 1 or t.size != y.size:
            raise DataLengthError("t and y must be 1-d arrays of equal length")
        if t.size < 2:
            raise DataLengthError("a series needs at least 2 samples")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(y))):
            raise InvalidParameterError("t and y must be finite")
        lo, hi = float(t.min()), float(t.max())
        if not math.isfinite(hi - lo):  # Python floats overflow without a warning
            raise InvalidParameterError(f"time span {lo!r} to {hi!r} overflows float64")
        if not (0 < self.rate < math.inf and 1 / float(self.rate) < math.inf):
            raise InvalidParameterError("rate and 1/rate must be positive and finite")
        if np.any(np.diff(t) <= 0):
            raise InvalidParameterError("time must be strictly increasing")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.t.size

    def require_uniform(self) -> "TimeSeries":
        """This series if each spacing is within 1% of ``1/rate`` (logger jitter) or
        four float spacings of max ``|t|`` (epoch times); else NonUniformSamplingError."""
        t, nominal = self.t, 1.0 / self.rate
        dt = np.diff(t)
        i = int(np.argmax(np.abs(dt - nominal)))
        worst = abs(float(dt[i]) - nominal) / nominal
        tol = max(1e-2, 4.0 * float(np.spacing(max(-t[0], t[-1]))) / nominal)
        if worst > tol:
            raise NonUniformSamplingError(
                f"sample spacing deviates from 1/rate by {worst:.3e} relative (tolerance"
                f" {tol:.3g}) between t = {float(t[i])!r} and t = {float(t[i + 1])!r}"
            )
        return self


def ode_rhs(p: PhysicalParams, temp: float, volts: float) -> float:
    """Temperature rate of change in degC/s, the box's energy balance: lamp
    heat ``lamp_constant * volts`` less wall loss
    ``area * heat_transfer_coeff * (temp - t_ambient)`` (negative below
    ambient), both in watts, over ``rho * cp``."""
    q_gen = p.lamp_constant * volts
    q_loss = p.area * p.heat_transfer_coeff * (temp - p.t_ambient)
    return (q_gen - q_loss) / (p.rho * p.cp)


def derive_process_params(p: PhysicalParams) -> ProcessParams:
    """Collapse the physical constants into the lumped first-order form; the
    energy balance has no transport delay, so ``dead_time`` is 0."""
    au = p.area * p.heat_transfer_coeff
    return ProcessParams(gain=p.lamp_constant / au, tau=p.rho * p.cp / au,
                         t_ambient=p.t_ambient)


def process_to_fit(p: ProcessParams) -> FitParams:
    """Map the lumped process onto the exponential fit parameters.

    ``a = t_ambient / tau``, ``b = gain``, ``c = 1 / tau``.  Dead time has
    no slot in the three-parameter form and is dropped.
    """
    return FitParams(a=p.t_ambient / p.tau, b=p.gain, c=1.0 / p.tau)


def fit_to_process(f: FitParams) -> ProcessParams:
    """Invert :func:`process_to_fit`: tau = 1/c, gain = b, ambient = a/c.

    Dead time is not recoverable and comes back as 0.  Rejects ``c <= 0``
    (no stable first-order process) and a ``1/c`` or ``a/c`` beyond float64.
    """
    if not f.c > 0:
        raise InvalidParameterError(f"fitted rate constant c={f.c:.6g} is not positive")
    return ProcessParams(gain=f.b, tau=1.0 / f.c, t_ambient=f.a / f.c, dead_time=0.0)


@np.errstate(over="ignore")  # where c t overflows, exp(-c t) is 0 or inf anyway
def step_response(f: FitParams, t):
    """Evaluate ``(a - b) * exp(-c*t) + b`` at time(s) ``t >= 0`` (seconds).

    Accepts a scalar or array of times; returns the matching shape.
    """
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0):
        raise InvalidParameterError("step_response requires t >= 0")
    y = (f.a - f.b) * np.exp(-f.c * t_arr) + f.b
    return float(y) if y.ndim == 0 else y


def discretize(p: ProcessParams, method: str, sample_time: float) -> DiscreteModel:
    """Convert the continuous first-order process into a difference equation.

    ``K / (tau*s + 1)`` is mapped through the theta-method substitution
    ``s -> (z - 1) / (Ts (theta z + 1 - theta))`` with theta 0.5 (tustin),
    0 (forward) or 1 (backward).  Every coefficient is computed through
    ``rho = tau / Ts``, the samples per time constant:

        y[n] = pole y[n-1] + g (theta u[n] + (1 - theta) u[n-1])
        g = K / (rho + theta),  pole = (rho - (1 - theta)) / (rho + theta)

    and backward drops its zero ``u[n-1]`` tap.  Dead time becomes an integer
    input delay of ``round(dead_time / Ts)`` samples, ties to even, rejected
    when it overflows float64.  Forward is rejected when ``rho <= 0.5``
    (``Ts >= 2 tau``), where its pole leaves the unit circle; ``DiscreteModel``
    states what else a realization needs.
    """
    if not 0 < sample_time < np.inf:
        raise InvalidParameterError("sample_time must be finite and positive")
    if method not in _THETA:
        raise InvalidParameterError(
            f"unknown method {method!r}; expected one of {DISCRETIZATION_METHODS}"
        )
    theta, rho = _THETA[method], p.tau / sample_time
    if method == "forward" and rho <= 0.5:
        raise UnstableDiscretizationError(
            f"forward method unstable: sample_time={sample_time} >= 2*tau={2.0 * p.tau}"
        )
    g = p.gain / (rho + theta)
    num = (theta * g, (1.0 - theta) * g)[: 2 - int(theta)]  # backward: one tap
    den = (1.0, -((rho - (1.0 - theta)) / (rho + theta)))
    ratio = p.dead_time / sample_time
    if not np.isfinite(ratio):
        raise InvalidParameterError("pole rounds to 1 or a ratio overflows float64")
    delay = int(round(ratio))
    return DiscreteModel(num=num, den=den, sample_time=sample_time, delay_samples=delay)


@np.errstate(over="ignore", invalid="ignore")  # an unstable pole overflows
def _recurrence(d: float, q: np.ndarray, y0: float) -> np.ndarray:
    """``y[0] = y0``, ``y[i+1] = y[i] + (d*y[i] + q[i])``, in blocks of B = 64.

    A block's response from a zero start, ``z``, is one product with the
    Toeplitz matrix of pole powers, written into the output array; a scan
    carries the blocks' start ``s``, added in place as ``s + pm1[k]*s`` with
    ``pm1[k] = expm1(k log1p(d))`` (the sums of ``z + (s + pm1[k]*s)``, in
    their order): this increment form keeps the digits that rounding ``1 + d``
    loses near pole 1.  B shrinks so that ``|1 + d|**B`` stays finite."""
    pole, b = 1.0 + d, _BLOCK
    if abs(pole) > 1:
        b = int(np.clip(np.log(np.finfo(float).max) / np.log(abs(pole)), 1, b))
    k = np.arange(b + 1)
    # for d <= -1, log1p(d) is not finite but 1 + d is exact
    pm1 = np.expm1(k * np.log1p(d)) if d > -1 else pole**k - 1.0
    blocks = np.concatenate([q, np.zeros(-q.size % b)]).reshape(-1, b)
    toeplitz = np.triu((1.0 + pm1)[np.abs(k[:b, None] - k[:b])])
    y = np.empty(blocks.size + 1)
    y[0] = y0
    z = np.matmul(blocks, toeplitz, out=y[1:].reshape(blocks.shape))
    grow = float(pm1[b])  # a block moves its start s to s + (grow*s + z[B-1])
    starts = accumulate(z[:-1, -1].tolist(), lambda s, z_end: s + (grow * s + z_end),
                        initial=float(y0))
    s = np.fromiter(starts, float)[:, None]
    w = pm1[1:] * s
    z += np.add(w, s, out=w)
    return y[: q.size + 1]


def simulate_discrete(m: DiscreteModel, inputs, initial_temp: float) -> np.ndarray:
    """Run the difference equation over an input sequence.

    The first output sample is pinned to ``initial_temp``; the recursion
    produces the rest.  Input samples before the start (and before the
    delay) are treated as zero.  Output length equals input length.
    """
    u = np.asarray(inputs, dtype=float)
    if u.ndim != 1 or u.size == 0:
        raise DataLengthError("input must be a non-empty 1-d sequence")
    if d := min(int(m.delay_samples), u.size):
        u = np.concatenate([np.zeros(d), u[: u.size - d]])
    return _recurrence(m.pole - 1.0, np.convolve(u, m.num)[1 : u.size], initial_temp)


def simulate_continuous(
    p: PhysicalParams, inputs, initial_temp: float, sample_time: float
) -> np.ndarray:
    """Integrate the energy-balance ODE with classical fixed-step RK4.

    ``inputs`` holds the lamp voltage on each interval ``[t_i, t_{i+1})``
    (zero-order hold), so the voltage is exactly constant within every
    integration step.  Output sample ``i`` is the temperature at ``t_i``,
    starting from ``initial_temp``; output length equals input length.
    On this linear ODE one RK4 step is exactly the affine map
    ``y[i+1] = y[i] + d*(y[i] - t_ambient - K*u[i])`` with
    ``d = x + x^2/2 + x^3/6 + x^4/24`` and ``x = -sample_time / tau``.
    Beyond RK4's real-axis stability limit, ``sample_time`` about 2.785 tau,
    ``1 + d`` exceeds 1 (or ``d`` is not finite): UnstableDiscretizationError.
    """
    if not sample_time > 0:
        raise InvalidParameterError("sample_time must be positive")
    u = np.asarray(inputs, dtype=float)
    if u.ndim != 1 or u.size == 0:
        raise DataLengthError("input must be a non-empty 1-d sequence")
    proc = derive_process_params(p)
    x = -sample_time / proc.tau
    d = x * (1.0 + x / 2.0 * (1.0 + x / 3.0 * (1.0 + x / 4.0)))
    if not -np.inf < d <= 0.0:  # d == 0 when sample_time / tau underflows
        raise UnstableDiscretizationError(
            f"RK4 unstable: sample_time={sample_time} is beyond about 2.785*tau "
            f"(tau={proc.tau})"
        )
    q = (d * proc.gain) * u[:-1]  # the forcing -d*t_ambient - d*K*u, built in q
    return _recurrence(d, np.subtract(-d * p.t_ambient, q, out=q), initial_temp)
