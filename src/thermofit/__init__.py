"""Grey-box identification toolkit for first-order thermal processes.

Models heat flow in a closed box, generates or ingests noisy temperature
time series, smooths them with a Savitzky-Golay filter, and estimates
process parameters by weighted Levenberg-Marquardt least squares.

The package re-exports the ``__all__`` of each module below; each module
declares its own public names.
"""

from . import errors, io, model, pipeline, sgolay, solver, synth
from .errors import *
from .io import *
from .model import *
from .pipeline import *
from .sgolay import *
from .solver import *
from .synth import *

__version__ = "0.1.0"

__all__ = [
    name
    for module in (errors, io, model, pipeline, sgolay, solver, synth)
    for name in module.__all__
]
