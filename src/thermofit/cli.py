"""Command-line front end.

Commands
--------
simulate    generate a synthetic noisy step-response CSV
smooth      Savitzky-Golay smooth a measured CSV
fit         identify (a, b, c) and process parameters from a CSV
discretize  print the discrete-time realization of a first-order process
pipeline    simulate -> write CSV -> re-read -> smooth -> fit, as a self-test

Exit codes: 0 success, 2 usage error, 3 input-file/CSV errors, 4 invalid
data or configuration, 5 numerical failure.  The environment variable
``THERMOFIT_SEED`` overrides ``--seed`` when set.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

from .errors import (
    CsvFormatError,
    InvalidParameterError,
    NonUniformSamplingError,
    SingularEquationsError,
    ThermofitError,
)
from .io import parse_csv, write_csv, write_overlay
from .model import FitParams, ProcessParams, DISCRETIZATION_METHODS, discretize
from .pipeline import FitReport, TimeSeries, fit_series
from .sgolay import SGConfig, sg_smooth
from .solver import LMConfig, Weights
from .synth import SynthSpec, generate

EXIT_OK = 0
EXIT_IO = 3
EXIT_DATA = 4
EXIT_NUMERIC = 5


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thermofit",
        description="Grey-box identification of first-order thermal step responses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate a synthetic measurement CSV")
    _add_truth_opts(sim)
    sim.add_argument("--output", required=True, help="CSV path to write")
    sim.set_defaults(handler=_cmd_simulate)

    smo = sub.add_parser("smooth", help="smooth a measured CSV")
    smo.add_argument("--input", required=True, help="CSV path to read")
    smo.add_argument("--output", required=True, help="CSV path to write")
    _add_sg_opts(smo, default_window=None, required_window=True)
    smo.set_defaults(handler=_cmd_smooth)

    fit = sub.add_parser("fit", help="fit a measured CSV")
    fit.add_argument("--input", required=True, help="CSV path to read")
    fit.add_argument("--output", help="overlay CSV path (t, raw, smoothed, fitted)")
    _add_sg_opts(fit, default_window=None)
    _add_lm_opts(fit)
    _add_guess_opts(fit)
    fit.add_argument(
        "--sigma",
        type=float,
        help="uniform per-point measurement std dev; sets weights 1/sigma^2",
    )
    _add_format_opt(fit)
    fit.set_defaults(handler=_cmd_fit)

    dis = sub.add_parser("discretize", help="print a discrete realization")
    dis.add_argument("--gain", type=float, required=True, help="static gain K, degC/V")
    dis.add_argument("--tau", type=float, required=True, help="time constant, s")
    dis.add_argument("--dead-time", type=float, default=0.0, help="transport delay, s")
    dis.add_argument(
        "--method", required=True, choices=DISCRETIZATION_METHODS, help="s->z mapping"
    )
    dis.add_argument("--ts", type=float, required=True, help="sample time, s")
    _add_format_opt(dis)
    dis.set_defaults(handler=_cmd_discretize)

    pipe = sub.add_parser("pipeline", help="simulate, smooth and fit end to end")
    _add_truth_opts(pipe)
    pipe.add_argument(
        "--output", help="directory for raw/smoothed/overlay CSVs and report.json"
    )
    _add_sg_opts(pipe, default_window=901)
    _add_lm_opts(pipe)
    _add_format_opt(pipe)
    pipe.set_defaults(handler=_cmd_pipeline)

    return parser


def _add_truth_opts(sp):
    sp.add_argument("--a0", type=float, default=30.0, help="initial value, degC")
    sp.add_argument("--b0", type=float, default=25.0, help="asymptote, degC")
    sp.add_argument("--c0", type=float, default=0.01, help="rate constant, 1/s")
    sp.add_argument("--rate", type=float, default=100.0, help="sampling rate, Hz")
    sp.add_argument("--duration", type=float, default=300.0, help="record length, s")
    sp.add_argument("--sigma", type=float, default=0.5, help="noise std dev, degC")
    sp.add_argument("--seed", type=int, default=0, help="noise seed")


def _add_sg_opts(sp, default_window, required_window=False):
    sp.add_argument("--order", type=int, default=3, help="smoothing polynomial degree")
    window_help = (
        "smoothing window (odd sample count)"
        if required_window
        else "smoothing window (odd sample count); 0 or omitted disables smoothing"
    )
    sp.add_argument(
        "--window",
        type=int,
        default=default_window,
        required=required_window,
        help=window_help,
    )


def _add_lm_opts(sp):
    lm = LMConfig()
    sp.add_argument("--lambda0", type=float, default=lm.lambda0, help="initial damping")
    sp.add_argument("--max-iter", type=int, default=lm.max_iter, help="iteration cap")
    sp.add_argument("--tol-grad", type=float, default=lm.tol_grad,
                    help="gradient max-norm tolerance")


def _add_guess_opts(sp):
    sp.add_argument(
        "--a0", type=float, help="starting value override (requires --b0 and --c0)"
    )
    sp.add_argument("--b0", type=float, help="starting asymptote override")
    sp.add_argument("--c0", type=float, help="starting rate override")


def _add_format_opt(sp):
    sp.add_argument(
        "--format", choices=("text", "json"), default="text", help="report format"
    )


def _resolve_seed(args) -> int:
    env = os.environ.get("THERMOFIT_SEED")
    if env is None:
        return args.seed
    try:
        return int(env)
    except ValueError:
        raise InvalidParameterError(
            f"THERMOFIT_SEED must be an integer, got {env!r}"
        ) from None


def _lm_config(args) -> LMConfig:
    return LMConfig(
        lambda0=args.lambda0, max_iter=args.max_iter, tol_grad=args.tol_grad
    )


def _smoothing(args) -> SGConfig | None:
    if args.window:
        return SGConfig(order=args.order, window=args.window)
    return None


def report_dict(report: FitReport) -> dict:
    proc = report.process
    return {
        "a": report.fit.a,
        "b": report.fit.b,
        "c": report.fit.c,
        "K": proc.gain if proc else None,
        "tau": proc.tau if proc else None,
        "t_ambient": proc.t_ambient if proc else None,
        "r_squared": report.r_squared,
        "iterations": report.result.iterations,
        "converged": report.result.converged,
        "lambda_final": report.result.lambda_final,
        "cost": report.result.cost,
        "accepted_steps": report.result.accepted_steps,
        "warnings": list(report.warnings),
    }


def _render(d: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(d, indent=2)
    lines = [f"{key} = {value}" for key, value in d.items() if key != "warnings"]
    lines.extend(f"warning: {w}" for w in d.get("warnings", ()))
    return "\n".join(lines)


def _synth_spec(args) -> SynthSpec:
    return SynthSpec(
        truth=FitParams(args.a0, args.b0, args.c0),
        rate=args.rate,
        duration=args.duration,
        noise_sigma=args.sigma,
        seed=_resolve_seed(args),
    )


def _cmd_simulate(args) -> int:
    write_csv(args.output, generate(_synth_spec(args)))
    return EXIT_OK


def _cmd_smooth(args) -> int:
    cfg = SGConfig(order=args.order, window=args.window)
    ts = parse_csv(args.input)
    write_csv(args.output, TimeSeries(ts.t, sg_smooth(ts.y, cfg), ts.rate))
    return EXIT_OK


def _fit_overrides(args) -> FitParams | None:
    given = [v is not None for v in (args.a0, args.b0, args.c0)]
    if not any(given):
        return None
    if not all(given):
        raise InvalidParameterError(
            "starting-value override needs all three of --a0, --b0, --c0"
        )
    return FitParams(args.a0, args.b0, args.c0)


def _cmd_fit(args) -> int:
    p0 = _fit_overrides(args)  # validate flags before touching the file
    smoothing = _smoothing(args)
    ts = parse_csv(args.input)
    weights = None
    if args.sigma is not None:
        if not args.sigma > 0:
            raise InvalidParameterError("--sigma must be positive")
        weights = Weights.from_sigma([args.sigma] * ts.n)
    report = fit_series(ts, smoothing=smoothing, cfg=_lm_config(args),
                        weights=weights, p0=p0)
    if args.output:
        write_overlay(args.output, ts.t, ts.y, report.target, report.fitted)
    print(_render(report_dict(report), args.format))
    return EXIT_OK


def _cmd_discretize(args) -> int:
    proc = ProcessParams(
        gain=args.gain, tau=args.tau, t_ambient=0.0, dead_time=args.dead_time
    )
    m = discretize(proc, args.method, args.ts)
    d = {
        "method": args.method,
        "sample_time": m.sample_time,
        "num": list(m.num),
        "den": list(m.den),
        "pole": m.pole,
        "dc_gain": m.dc_gain,
        "delay_samples": m.delay_samples,
    }
    print(_render(d, args.format))
    return EXIT_OK


def _cmd_pipeline(args) -> int:
    spec = _synth_spec(args)
    with tempfile.TemporaryDirectory(prefix="thermofit-") as tmp:
        outdir = Path(args.output or tmp)
        outdir.mkdir(parents=True, exist_ok=True)
        write_csv(outdir / "raw.csv", generate(spec))
        ts = parse_csv(outdir / "raw.csv")  # round trip through the file on purpose
        report = fit_series(ts, smoothing=_smoothing(args), cfg=_lm_config(args))
        write_csv(outdir / "smoothed.csv", TimeSeries(ts.t, report.target, ts.rate))
        write_overlay(outdir / "overlay.csv", ts.t, ts.y, report.target, report.fitted)
        d = report_dict(report)
        (outdir / "report.json").write_text(
            json.dumps(d, indent=2) + "\n", encoding="utf-8"
        )
    print(_render(d, args.format))
    return EXIT_OK


# The first match wins, so the subclasses of ThermofitError come before it.
_EXIT_CODES = (
    ((FileNotFoundError, IsADirectoryError, PermissionError), EXIT_IO),
    ((CsvFormatError, NonUniformSamplingError), EXIT_IO),
    ((SingularEquationsError,), EXIT_NUMERIC),
    ((ThermofitError,), EXIT_DATA),
)
_HANDLED = tuple(cls for classes, _ in _EXIT_CODES for cls in classes)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except _HANDLED as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for classes, code in _EXIT_CODES if isinstance(exc, classes))


if __name__ == "__main__":
    sys.exit(main())
