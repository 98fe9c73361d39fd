"""Public surface: each module declares its names once, in its ``__all__``.

Proves:
 - ``thermofit.__all__`` is the modules' ``__all__`` lists joined, without
   duplicates, and each name is the object its defining module binds; a
   name no module binds is an AttributeError, so ``hasattr`` is False;
 - ``import thermofit`` in a fresh interpreter loads neither NumPy nor a
   submodule; ``thermofit.io`` then resolves without an explicit import, and
   ``from thermofit import *`` binds exactly ``thermofit.__all__``;
 - in a fresh interpreter, ``import thermofit.model`` or ``thermofit.sgolay``
   loads no other module of the package than ``errors``, and ``solver``,
   ``io`` or ``synth`` none but ``errors`` and ``model``, so reading or
   generating a record loads neither the solver, the smoother nor the fit;
 - ``ExponentialStepModel``, the solver binding of the model, is the
   pipeline's, and ``thermofit.TimeSeries`` is ``model``'s;
 - ``np.exp`` is called in ``src/thermofit`` only inside
   ``model.step_response``, so the model is evaluated in one place;
 - ``NonUniformSamplingError`` is constructed only in
   ``TimeSeries.require_uniform``, which only ``io.parse_csv`` and
   ``pipeline.fit_series`` call, so the uniform grid is required in one place;
 - inside ``io`` only the row loop ``_parse_rows`` calls ``isfinite``: the
   record ``np.loadtxt`` reads is judged by ``TimeSeries`` alone;
 - perfbench's tracer installs on the modules ``thermofit.cli`` loads, so a
   refactor that unbinds a traced name fails here;
 - every public class and function a module defines is in its ``__all__``;
 - the CLI's ``--lambda0``, ``--max-iter`` and ``--tol-grad`` options of
   ``fit`` and ``pipeline`` are exactly ``LMConfig``'s fields, with its
   defaults;
 - ``pyproject.toml`` takes the version from ``thermofit.__version__``, and
   its ``thermofit`` script is ``thermofit.cli:run``;
 - every module parses with the grammar of the ``requires-python`` floor;
 - ``src/thermofit/*.py`` holds at most 1660 lines, ROADMAP's ceiling, and
   none of them is over 90 characters.
"""

import ast
import dataclasses
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_an_unknown_package_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        thermofit.no_such_name
    assert not hasattr(thermofit, "no_such_name")
    assert getattr(thermofit, "no_such_name", None) is None


def test_import_loads_the_modules_on_first_use():
    script = """if True:
        import sys
        import thermofit
        early = [m for m in sys.modules if m.startswith(("numpy", "thermofit."))]
        assert not early, early
        assert thermofit.io.parse_csv is sys.modules["thermofit.io"].parse_csv
        namespace = {}
        exec("from thermofit import *", namespace)
        names = thermofit.__all__
        assert sorted(namespace.keys() - {"__builtins__"}) == sorted(names), names
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    subprocess.run([sys.executable, "-c", script], env=env, check=True)


# the package modules one import of each module may load: the record and the
# model sit below the solver, and reading or generating a record loads neither
# the solver, the smoother nor the fit
LAYERS = {
    "model": {"errors"},
    "sgolay": {"errors"},
    "solver": {"errors", "model"},
    "io": {"errors", "model"},
    "synth": {"errors", "model"},
}


def test_the_model_module_imports_no_solver():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    for module, below in LAYERS.items():
        script = f"""if True:
            import sys
            import thermofit.{module}
            allowed = {{"thermofit." + m for m in {sorted(below)!r} + [{module!r}]}}
            extra = {{m for m in sys.modules if m.startswith("thermofit.")}} - allowed
            assert not extra, ({module!r}, sorted(extra))
        """
        subprocess.run([sys.executable, "-c", script], env=env, check=True)
    script = """if True:
        import sys
        import thermofit
        model = thermofit.ExponentialStepModel
        assert model is thermofit.pipeline.ExponentialStepModel
        assert model.__module__ == "thermofit.pipeline", model.__module__
        assert thermofit.TimeSeries is sys.modules["thermofit.model"].TimeSeries
    """
    subprocess.run([sys.executable, "-c", script], env=env, check=True)


def callers_in_source(matches) -> list[str]:
    """``module.Class.function`` of the innermost definition around each call in
    ``src/thermofit`` for which ``matches(call)`` holds, module by module."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                visit(child, f"{owner}.{child.name}")
                continue
            if isinstance(child, ast.Call) and matches(child):
                found.append(owner)
            visit(child, owner)

    src = Path(__file__).resolve().parents[1] / "src" / "thermofit"
    for path in sorted(src.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    return found


def test_the_step_model_exponential_is_evaluated_in_one_place():
    # the Jacobian takes its columns from step_response instead of its own np.exp
    callers = callers_in_source(
        lambda call: isinstance(call.func, ast.Attribute)
        and call.func.attr == "exp"
        and isinstance(call.func.value, ast.Name)
        and call.func.value.id in ("np", "numpy")
    )
    assert callers == ["model.step_response"]


def test_the_uniform_grid_is_required_in_one_place():
    # only the smoother works in sample index; a raw fit takes any increasing axis
    def named(name):
        return lambda call: name in (getattr(call.func, "id", None),
                                     getattr(call.func, "attr", None))

    owners = callers_in_source(named("NonUniformSamplingError"))
    assert owners == ["model.TimeSeries.require_uniform"]
    assert callers_in_source(named("require_uniform")) == ["io.parse_csv",
                                                           "pipeline.fit_series"]


def test_only_the_row_loop_restates_a_row_rule_in_io():
    # TimeSeries judges the record np.loadtxt reads; the row loop tests each value
    # only to name the line of a bad one
    callers = callers_in_source(lambda call: "isfinite" in (
        getattr(call.func, "id", None), getattr(call.func, "attr", None)))
    assert {owner for owner in callers if owner.startswith("io.")} == {"io._parse_rows"}


def test_the_benchmark_tracer_installs_on_the_cli_modules():
    tracer = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    if not tracer.is_file():
        pytest.skip("perfbench/tracer.py is not in this checkout")
    script = f"""if True:
        import importlib.util
        import thermofit.cli
        spec = importlib.util.spec_from_file_location("tracer", {str(tracer)!r})
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        tracer = module.Tracer()
        tracer.install()  # raises TracerError when a traced name is bound nowhere
        tracer.uninstall()
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    subprocess.run([sys.executable, "-B", "-c", script], env=env, check=True)


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
    names = [f.name for f in dataclasses.fields(LMConfig)]
    assert names == ["lambda0", "max_iter", "tol_grad"]
    parser = build_parser()
    for argv in (["fit", "--input", "in.csv"], ["pipeline"]):
        args = parser.parse_args(argv)
        assert [getattr(args, name) for name in names] == [
            getattr(cfg, name) for name in names
        ], argv


def pyproject():
    import tomllib

    with (Path(__file__).resolve().parents[1] / "pyproject.toml").open("rb") as f:
        return tomllib.load(f)


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in 3.11")
def test_version_is_stated_once():
    config = pyproject()
    assert "version" not in config["project"]
    assert config["project"]["dynamic"] == ["version"]
    dynamic = config["tool"]["setuptools"]["dynamic"]
    assert dynamic["version"] == {"attr": "thermofit.__version__"}


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in 3.11")
def test_the_script_ends_through_run():
    # run, not main: it exits without the interpreter's teardown
    assert pyproject()["project"]["scripts"] == {"thermofit": "thermofit.cli:run"}


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in 3.11")
def test_source_parses_at_the_declared_python_floor():
    # the tests run on a newer Python, which would accept syntax the floor
    # rejects, such as except* (3.11)
    floor = pyproject()["project"]["requires-python"]
    assert floor.startswith(">=")
    version = tuple(int(part) for part in floor[2:].split("."))
    src = Path(__file__).resolve().parents[1] / "src" / "thermofit"
    for path in sorted(src.glob("*.py")):
        ast.parse(path.read_text(encoding="utf-8"), path.name, feature_version=version)


def test_source_stays_under_the_line_ceiling():
    # counted as ``wc -l`` counts: newline characters
    src = Path(__file__).resolve().parents[1] / "src" / "thermofit"
    lines = sum(path.read_bytes().count(b"\n") for path in src.glob("*.py"))
    assert lines <= 1660, (
        f"src/thermofit has {lines} lines, over the 1660-line ceiling; see "
        "'Line discipline' in ROADMAP.md"
    )


def test_source_lines_stay_within_90_characters():
    # the line ceiling counts lines, so no line may grow to pay for it
    src = Path(__file__).resolve().parents[1] / "src" / "thermofit"
    long = [
        f"{path.name}:{number}"
        for path in sorted(src.glob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if len(line) > 90
    ]
    assert not long, f"lines over 90 characters: {long}"
