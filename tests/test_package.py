"""Public surface: each module declares its names once, in its ``__all__``.

Proves:
 - ``thermofit.__all__`` is the modules' ``__all__`` lists joined, without
   duplicates, and each name is the object its defining module binds;
 - every public class and function a module defines is in its ``__all__``;
 - the CLI's ``--lambda0``, ``--max-iter`` and ``--tol-grad`` defaults of
   ``fit`` and ``pipeline`` are ``LMConfig``'s.
"""

import inspect

import thermofit
from thermofit import LMConfig, errors, io, model, pipeline, sgolay, solver, synth
from thermofit.cli import build_parser

MODULES = (errors, io, model, pipeline, sgolay, solver, synth)


def test_package_all_joins_module_all_lists():
    joined = [name for module in MODULES for name in module.__all__]
    assert len(set(joined)) == len(joined)
    assert thermofit.__all__ == joined


def test_package_names_are_the_module_objects():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(thermofit, name) is getattr(module, name), name


def test_modules_declare_every_public_definition():
    for module in MODULES:
        defined = {
            name
            for name, obj in vars(module).items()
            if not name.startswith("_")
            and (inspect.isclass(obj) or inspect.isfunction(obj))
            and obj.__module__ == module.__name__
        }
        assert defined <= set(module.__all__), (module.__name__, defined)


def test_lm_option_defaults_are_lm_config_defaults():
    cfg = LMConfig()
    parser = build_parser()
    for argv in (["fit", "--input", "in.csv"], ["pipeline"]):
        args = parser.parse_args(argv)
        assert (args.lambda0, args.max_iter, args.tol_grad) == (
            cfg.lambda0, cfg.max_iter, cfg.tol_grad
        ), argv
