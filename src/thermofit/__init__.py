"""Grey-box identification toolkit for first-order thermal processes.

Models heat flow in a closed box, generates or ingests noisy temperature
time series, smooths them with a Savitzky-Golay filter, and estimates
process parameters by weighted Levenberg-Marquardt least squares.

The package re-exports the ``__all__`` of each module in ``_MODULES``. The
first lookup of a name imports the modules and binds every name (PEP 562),
so ``import thermofit`` alone loads no NumPy.
"""

from importlib import import_module

_MODULES = ("errors", "io", "model", "pipeline", "sgolay", "solver", "synth")
__version__ = "0.1.0"


def __getattr__(name: str):
    modules = [import_module(f"{__name__}.{module}") for module in _MODULES]
    public = {n: getattr(module, n) for module in modules for n in module.__all__}
    globals().update(public, __all__=list(public))
    if name not in globals():
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return globals()[name]
