"""Command-line front end; ``build_parser`` declares the commands.

Exit codes: 0 success, 2 usage, 3 an ``OSError`` (a closed stdout included), and
a ``ThermofitError``'s ``exit_code`` (see ``errors``).
"""

import argparse
import json
import os
import re
import sys

if not {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"} & os.environ.keys():
    os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before NumPy loads; lets io's writer fork

from .errors import ThermofitError
from .io import parse_csv, write_csv, write_overlay, write_series_and_overlay
from .model import (FitParams, ProcessParams, TimeSeries, DISCRETIZATION_METHODS,
                    discretize)
from .pipeline import FitReport, fit_series
from .sgolay import SGConfig, sg_smooth
from .solver import LMConfig
from .synth import SynthSpec, generate


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
    _add_sg_opts(smo, required=True, help="smoothing window (odd sample count)")
    smo.set_defaults(handler=_cmd_smooth)

    fit = sub.add_parser("fit", help="fit a measured CSV")
    fit.add_argument("--input", required=True, help="CSV path to read")
    fit.add_argument("--output", help="overlay CSV path (t, raw, smoothed, fitted)")
    _add_fit_opts(fit)
    fit.add_argument("--p0", nargs=3, type=float, metavar=("A", "B", "C"),
                     help="starting (a, b, c) in place of the data-driven guess")
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
    _add_fit_opts(pipe, default=901, help="smoothing window (odd sample count, "
                  "default %(default)s); 0 disables smoothing")
    _add_format_opt(pipe)
    pipe.set_defaults(handler=_cmd_pipeline)

    # argparse reads "-1e-3" or "-inf" as an option; no option of ours looks like a number
    for p in (parser, *sub.choices.values()):
        p._negative_number_matcher = re.compile(r"^-(\.?\d|inf|nan)", re.IGNORECASE)
    return parser


def _add_truth_opts(sp):
    sp.add_argument("--a0", type=float, default=30.0, help="initial value, degC")
    sp.add_argument("--b0", type=float, default=25.0, help="asymptote, degC")
    sp.add_argument("--c0", type=float, default=0.01, help="rate constant, 1/s")
    sp.add_argument("--rate", type=float, default=100.0, help="sampling rate, Hz")
    sp.add_argument("--duration", type=float, default=300.0, help="record length, s")
    sp.add_argument("--sigma", type=float, default=0.5, help="noise std dev, degC")
    sp.add_argument("--seed", type=int, default=0, help="noise seed")


def _add_sg_opts(sp, **window):
    """``window`` overrides argparse's settings of ``--window``."""
    sp.add_argument("--order", type=int, default=3, help="smoothing polynomial degree")
    help_ = "smoothing window (odd sample count); 0 or omitted disables smoothing"
    sp.add_argument("--window", type=int, **{"help": help_, **window})


def _add_fit_opts(sp, **window):
    _add_sg_opts(sp, **window)
    lm = LMConfig()
    sp.add_argument("--lambda0", type=float, default=lm.lambda0, help="initial damping")
    sp.add_argument("--max-iter", type=int, default=lm.max_iter, help="iteration cap")
    sp.add_argument("--tol-grad", type=float, default=lm.tol_grad,
                    help="gradient max-norm tolerance")


def _add_format_opt(sp):
    sp.add_argument(
        "--format", choices=("text", "json"), default="text", help="report format"
    )


def _fit_settings(args) -> dict:
    smoothing = SGConfig(order=args.order, window=args.window) if args.window else None
    cfg = LMConfig(
        lambda0=args.lambda0, max_iter=args.max_iter, tol_grad=args.tol_grad
    )
    return {"smoothing": smoothing, "cfg": cfg}


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
        **report.stats,
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
        seed=args.seed,
    )


def _cmd_simulate(args) -> None:
    write_csv(args.output, generate(_synth_spec(args)))


def _cmd_smooth(args) -> None:
    cfg = SGConfig(order=args.order, window=args.window)
    ts = parse_csv(args.input)
    write_csv(args.output, TimeSeries(ts.t, sg_smooth(ts.y, cfg), ts.rate))


def _cmd_fit(args) -> dict:
    p0 = FitParams(*args.p0) if args.p0 else None  # validate before reading the file
    settings = _fit_settings(args)
    ts = parse_csv(args.input)
    report = fit_series(ts, **settings, p0=p0)
    if args.output:
        write_overlay(args.output, ts.t, ts.y, report.target, report.fitted)
    return report_dict(report)


def _cmd_discretize(args) -> dict:
    proc = ProcessParams(
        gain=args.gain, tau=args.tau, t_ambient=0.0, dead_time=args.dead_time
    )
    m = discretize(proc, args.method, args.ts)
    return {
        "method": args.method,
        "sample_time": m.sample_time,
        "num": list(m.num),
        "den": list(m.den),
        "pole": m.pole,
        "dc_gain": m.dc_gain,
        "delay_samples": m.delay_samples,
    }


def _cmd_pipeline(args) -> dict:
    spec, settings = _synth_spec(args), _fit_settings(args)
    ts = generate(spec)
    if args.output:  # a bad --output exits 3 before a fit
        os.makedirs(args.output, exist_ok=True)
    report = fit_series(ts, **settings)
    d = report_dict(report)
    if args.output:
        out = lambda name: os.path.join(args.output, name)
        write_series_and_overlay(out("raw.csv"), out("smoothed.csv"), out("overlay.csv"),
                                 ts.t, ts.y, report.target, report.fitted)
        with open(out("report.json"), "w", encoding="utf-8") as fh:
            fh.write(_render(d, "json") + "\n")
    return d


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        report = args.handler(args)  # None from the commands that only write files
        if report is not None:  # flushed here, so a closed stdout exits 3
            print(_render(report, args.format), flush=True)
    except (OSError, ThermofitError) as exc:
        print(f"error: {exc}", file=sys.stderr)  # line-buffered, so run() loses none
        return getattr(exc, "exit_code", 3)
    return 0


def run():
    """The ``thermofit`` command: exit with ``main``'s code, skipping teardown."""
    os._exit(main())


if __name__ == "__main__":
    run()
