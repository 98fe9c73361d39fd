"""Inputs the benchmark makes for itself, and the references it checks against.

Everything here depends on NumPy only, never on ``thermofit``: the program
receives the generated records and signals, and its outputs are compared
with references computed independently of it.  Every random draw comes
from ``np.random.default_rng(key)`` with an integer tuple ``key`` that
starts with the workload seed, so the same seed gives byte-identical
inputs.
"""

from __future__ import annotations

import hashlib

import numpy as np

# (a, b, c) acceptance regimes: fast, slow, slowest.  At 100 Hz for 3/c
# seconds they give 7,229, 61,225 and 75,001 samples.
REGIMES = ((34.43, 43.65, 0.0415), (29.18, 26.01, 0.0049), (29.07, 25.68, 0.004))
RATE = 100.0
SIGMA = 0.5
SG_ORDER, SG_WINDOW = 3, 901

# Relative bound on |c_fit / c_true - 1| for one noisy record.  The
# largest per-regime standard error of c at sigma = 0.5 is about 0.86 %,
# so 5 % sits near six standard errors: a correct fit stays inside it.
C_BOUND = 0.05

# `thermofit pipeline --c0 0.004 --duration 750` truth (CLI defaults for
# a0, b0, rate and sigma).
PIPELINE_TRUTH = (30.0, 25.0, 0.004)
PIPELINE_DURATION = 750.0

# Keys of the fixed accuracy panel; they do not depend on the run seed.
PANEL_KEY = 20161115
PANEL_SEEDS = 5

# Closed box for the simulators: K = k / (A U) = 0.1 degC/V,
# tau = rho cp / (A U) = 60.3 s, sampled every 0.1 s.
BOX = dict(
    lamp_constant=2.0, area=1.0, heat_transfer_coeff=20.0, rho=1.2, cp=1005.0,
    t_ambient=20.0,
)
BOX_K = BOX["lamp_constant"] / (BOX["area"] * BOX["heat_transfer_coeff"])
BOX_TAU = BOX["rho"] * BOX["cp"] / (BOX["area"] * BOX["heat_transfer_coeff"])
SIM_TS = 0.1
SIM_SAMPLES = 100_000
LAMP_VOLTS = 100.0
# simulate op kinds, in cycle order; "rk4" is simulate_continuous
SIM_KINDS = ("tustin", "forward", "backward", "rk4")
# Each simulator must match the recurrence of its own method, evaluated in
# extended precision, to this fraction of its output scale.
SIM_RTOL = 1e-8


def rng(*key: int) -> np.random.Generator:
    return np.random.default_rng([int(k) for k in key])


def n_samples(c: float) -> int:
    return int(np.floor(3.0 / c * RATE)) + 1


def record(regime, key) -> tuple[np.ndarray, np.ndarray]:
    """Noisy step response of ``regime`` at 100 Hz for 3/c seconds."""
    a, b, c = regime
    n = n_samples(c)
    t = np.arange(n, dtype=float) / RATE
    y = (a - b) * np.exp(-c * t) + b + rng(*key).normal(0.0, SIGMA, n)
    return t, y


def csv_bytes(t: np.ndarray, y: np.ndarray) -> bytes:
    """``time_s,temp_c`` CSV with shortest round-trip float fields."""
    rows = "\n".join(f"{ti!r},{yi!r}" for ti, yi in zip(t.tolist(), y.tolist()))
    return ("time_s,temp_c\n" + rows + "\n").encode("utf-8")


def parse_series(text: str) -> tuple[np.ndarray, np.ndarray]:
    """Exact parse of a two-column CSV body (Python floats round correctly)."""
    body = text.split("\n", 1)[1]
    vals = np.array([float(v) for v in body.replace("\n", ",").split(",") if v])
    return vals[0::2], vals[1::2]


def square_wave(key, n: int = SIM_SAMPLES) -> np.ndarray:
    """Lamp voltage alternating 0 / LAMP_VOLTS, each level held 5-15 tau."""
    g = rng(*key)
    per_tau = BOX_TAU / SIM_TS
    u = np.empty(n)
    i, level = 0, LAMP_VOLTS * g.integers(0, 2)
    while i < n:
        hold = int(g.uniform(5.0, 15.0) * per_tau)
        u[i : i + hold] = level
        i += hold
        level = LAMP_VOLTS - level
    return u


def recurrence(p, q: np.ndarray, y0) -> np.ndarray:
    """``y[0] = y0``, ``y[i+1] = p y[i] + q[i]`` in ``np.longdouble``;
    returns len(q) + 1 values."""
    y = np.empty(q.size + 1, dtype=np.longdouble)
    y[0] = acc = np.longdouble(y0)
    for i, qi in enumerate(q):
        acc = p * acc + qi
        y[i + 1] = acc
    return y


def sim_reference(kind: str, u: np.ndarray) -> np.ndarray:
    """Output of simulator ``kind`` on lamp voltage ``u``, from the box at
    ambient (``rk4``) or from zero deviation (discrete methods, which carry
    no ambient offset).

    This is the recurrence the method itself defines, with its
    coefficients and every step evaluated in extended precision from the
    same float64 parameters the simulator gets, so what separates a
    simulator's output from it is the simulator's own round-off.
    """
    if np.finfo(np.longdouble).nmant <= np.finfo(float).nmant:
        raise RuntimeError("np.longdouble is no wider than float64 on this platform")
    L = np.longdouble
    h = L(SIM_TS)
    u = u.astype(L)
    if kind == "rk4":
        # classical RK4 on this linear ODE is y[i+1] = r y[i] + (1 - r)
        # (ambient + K u[i]) with r the quartic Taylor sum of exp(-h / tau)
        box = {key: L(v) for key, v in BOX.items()}
        ua = box["area"] * box["heat_transfer_coeff"]
        k, tau = box["lamp_constant"] / ua, box["rho"] * box["cp"] / ua
        x = -h / tau
        r = 1 + x + x * x / 2 + x**3 / 6 + x**4 / 24
        return recurrence(r, (1 - r) * (box["t_ambient"] + k * u[:-1]), box["t_ambient"])
    k, tau = L(BOX_K), L(BOX_TAU)
    if kind == "forward":
        return recurrence(1 - h / tau, k * h / tau * u[:-1], 0)
    if kind == "backward":
        return recurrence(tau / (tau + h), k * h / (tau + h) * u[1:], 0)
    if kind == "tustin":
        g = k * h / (2 * tau + h)
        return recurrence((2 * tau - h) / (2 * tau + h), g * (u[1:] + u[:-1]), 0)
    raise ValueError(f"unknown simulator kind {kind!r}")


def digest(*parts) -> str:
    """SHA-256 over byte strings and arrays, in order."""
    h = hashlib.sha256()
    for p in parts:
        h.update(p.tobytes() if isinstance(p, np.ndarray) else p)
    return h.hexdigest()
