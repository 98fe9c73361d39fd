"""Deterministic synthetic step-response generator.

Stands in for a physical temperature rig: evaluates the exponential step
response on a uniform grid and adds seeded Gaussian noise.  The noise
stream comes from a counter-based generator (Philox) keyed only by the
seed, so identical specs produce bitwise-identical series on any platform
or thread layout.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError
from .model import FitParams, TimeSeries, step_response

__all__ = ["SynthSpec", "generate"]


@dataclass(frozen=True)
class SynthSpec:
    """Ground truth plus acquisition settings for one synthetic run."""

    truth: FitParams
    rate: float
    duration: float
    noise_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not self.rate > 0:
            raise InvalidParameterError("rate must be positive")
        if not self.duration > 0:
            raise InvalidParameterError("duration must be positive")
        if not 0 <= self.noise_sigma < np.inf:
            raise InvalidParameterError("noise_sigma must be non-negative and finite")
        if not self.duration * self.rate < 2**53:  # float64 holds the sample grid
            raise InvalidParameterError("duration * rate must be finite and < 2**53")
        if self.seed < 0:
            raise InvalidParameterError("seed must be non-negative")


def generate(spec: SynthSpec) -> TimeSeries:
    """Sample the clean step response and overlay seeded Gaussian noise.

    The grid is t = 0, 1/rate, ..., duration with
    ``floor(duration * rate) + 1`` samples.
    """
    n = int(np.floor(spec.duration * spec.rate)) + 1
    t = np.arange(n, dtype=float) / spec.rate
    y = step_response(spec.truth, t)
    if spec.noise_sigma > 0:
        rng = np.random.Generator(np.random.Philox(spec.seed))
        y = y + rng.normal(0.0, spec.noise_sigma, n)
    return TimeSeries(t=t, y=y, rate=spec.rate)
