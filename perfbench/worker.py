"""Child process of the benchmark: imports ``thermofit`` from the working tree.

Run by ``run.py`` as ``python perfbench/worker.py <mode> ...`` with
``PYTHONPATH=<checkout>/src``; prints one JSON object on its last stdout
line.  ``thermofit.cli`` is imported before anything else, so the
``t_imported`` clock reading (CLOCK_MONOTONIC, shared by every process on
Linux) minus the parent's spawn time is the cold set-up time.

modes
-----
import                          import only
loop     WORKLOAD SEED START COUNT
                                set-up, then ops START .. START + COUNT - 1
accuracy                        the fixed accuracy panel
trace    WORKLOAD SEED SECONDS WORKDIR SPANS
                                untraced and traced rounds of a fixed op list
"""

import time

import thermofit.cli

T_IMPORTED = time.perf_counter()

import contextlib  # noqa: E402  (after the timed import on purpose)
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import inputs  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import COUNT_METRICS, Tracer, summarize  # noqa: E402

# A loop session stops starting ops after this many seconds even short of
# its op count, and a traced run stops starting rounds, so that a run exits
# well within its 180 s limit.
SESSION_CAP_S = 20.0
TRACE_CAP_S = 100.0


def verify_source() -> None:
    src = Path(__file__).resolve().parents[1] / "src"
    here = Path(thermofit.__file__).resolve()
    if src not in here.parents:
        sys.exit(f"thermofit imported from {here}, not from {src}")


def first_op(workload: str, seed: int) -> float:
    t0 = time.perf_counter()
    wl.InProcOp.warmup(seed)
    return time.perf_counter() - t0


def loop(workload: str, seed: int, start: int, count: int) -> dict:
    """One session of the closed loop: ops ``start .. start + count - 1``,
    after the untimed first op.  Each op is bracketed by two host-speed
    probes, and ``probe`` holds their means."""
    out = {"t_imported": T_IMPORTED, "first_op_s": first_op(workload, seed)}
    lat, errs, reasons = [], [], Counter()
    samples, probes = [], []
    capped = 0
    begin = time.perf_counter()
    for i in range(start, start + count):
        if time.perf_counter() - begin >= SESSION_CAP_S:
            break
        op = wl.InProcOp(workload, seed, i)
        before = wl.probe()
        t0 = time.perf_counter()
        result = op.run()
        lat.append(time.perf_counter() - t0)
        probes.append((before + wl.probe()) / 2)
        samples.append(op.samples)
        check = op.check(result)
        if check.failure:
            reasons[check.failure] += 1
        errs += check.errs
        capped += check.capped
    out.update(
        lat=lat, probe=probes, samples=samples, reasons=dict(reasons), errs=errs,
        capped=capped,
        rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    )
    return out


def accuracy() -> dict:
    """Fixed panel, the same for every seed and workload: 5 noisy records
    of each regime fitted raw and smoothed, and one input through each
    simulator.  Fixed inputs make the numbers compare exactly across
    commits."""
    c_errs, capped = [], 0
    for k in range(inputs.PANEL_SEEDS):
        op = wl.InProcOp("fits", inputs.PANEL_KEY, 0, stream=k)
        check = op.check(op.run())
        if check.reason:
            sys.exit(f"accuracy panel fits {k} failed: {check.reason}")
        capped += check.capped
        c_errs += check.errs
    op = wl.InProcOp("simulate", inputs.PANEL_KEY, 0, stream=0)
    check = op.check(op.run())
    if check.reason:
        sys.exit(f"accuracy panel simulators failed: {check.reason}")
    sim_dev = dict(zip(inputs.SIM_KINDS, check.errs))
    # a correctly rounded float64 output is within half an ulp of the
    # reference, so the floor keeps the digit count finite
    worst = max(max(sim_dev.values()), sys.float_info.epsilon / 2)
    return {
        "c_rel_err_rms": math.sqrt(statistics.fmean(e * e for e in c_errs)),
        "sim_digits": -math.log10(worst),
        "panel_fits": len(c_errs),
        "panel_capped": capped,
        "panel_sim_dev": sim_dev,
    }


def _run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = thermofit.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, buf.getvalue()


def trace(workload: str, seed: int, seconds: float, workdir: Path, spans_path: Path):
    """Alternate untraced and traced passes over the same op list until
    ``seconds`` have passed (at least two rounds).  Counts come from the
    fixed op list, so they repeat exactly for a seed; times are medians
    over rounds, per op.  Every pass feeds the same inputs, so an op is
    attempted once however many passes ran, and fails if any pass of it
    failed its check."""
    n = wl.TRACE_OPS[workload]
    ops = [wl.make_op(workload, seed, i, workdir) for i in range(n)]
    cli = workload in wl.CLI_WORKLOADS
    tracer = Tracer()
    tracer.install()  # fail before any timing if a traced name is gone
    tracer.uninstall()
    passes = {False: [], True: []}
    rounds, failures, capped = [], {}, {}
    begin = time.perf_counter()
    r = -1  # round -1 warms caches and lazy imports and is not recorded
    while r < 2 or time.perf_counter() - begin < min(seconds, TRACE_CAP_S):
        # alternate which pass goes first, so drift cancels in the overhead
        for traced in ((False,) if r < 0 else (False, True) if r % 2 else (True, False)):
            lo = len(tracer.spans)
            total = 0.0
            for k, op in enumerate(ops):
                if cli:
                    op.prepare()
                tracer.op = f"{r}.{k}"
                if traced:
                    tracer.install()
                t0 = time.perf_counter()
                result = _run_cli(op.argv) if cli else op.run()
                total += time.perf_counter() - t0
                if traced:
                    tracer.uninstall()
                check = op.check(*result) if cli else op.check(result)
                failures[k] = failures.get(k) or check.failure
                capped.setdefault(k, check.capped)
            if r < 0:
                continue
            passes[traced].append(total / n)
            if traced:
                rounds.append(summarize(tracer.spans, lo))
        r += 1
    tracer.dump(spans_path)
    metrics, repeat = layer_metrics(rounds, n)
    untraced = statistics.median(passes[False])
    metrics["trace.overhead_s"] = statistics.median(passes[True]) - untraced
    metrics["trace.untraced_op_s"] = untraced
    return {
        "metrics": metrics,
        "attempted": n,
        "capped": sum(capped.values()),
        "reasons": dict(Counter(f for f in failures.values() if f)),
        "rounds": r,
        "counts_repeat": repeat,
        "digest": inputs.digest(*(op.input_bytes for op in ops)),
    }


def layer_metrics(rounds: list, n: int):
    """Per-op layer metrics: times are medians over traced rounds, counts
    come from the first round; ``repeat`` says whether every round gave
    the same counts."""

    def of(summary, name, field="s"):
        d = summary.get(name)
        if d is None:
            return 0.0
        return d["counts"].get(field, 0) if field not in d else d[field]

    def one(s):
        fits = of(s, "pipeline.fit_series", "calls")
        lm_calls = of(s, "solver.lm_fit", "calls")
        iters = of(s, "solver.lm_fit", "iterations")
        m = {
            "cli.main.s": of(s, "cli.main") / n,
            "cli.self_s": of(s, "cli.main", "self_s") / n,
            "synth.generate.s": of(s, "synth.generate") / n,
            "synth.generate.samples": of(s, "synth.generate", "samples") / n,
            "model.step_response.s": of(s, "model.step_response") / n,
            "sgolay.smooth_per_fit": of(s, "sgolay.sg_smooth", "calls") / fits if fits else 0.0,
            "pipeline.fit_series.self_s": of(s, "pipeline.fit_series", "self_s") / n,
            "pipeline.initial_guess.s": of(s, "pipeline.initial_guess") / n,
            "pipeline.r_squared.s": of(s, "pipeline.r_squared") / n,
            "solver.lm_fit.s": of(s, "solver.lm_fit") / n,
            "solver.iterations": iters / lm_calls if lm_calls else 0.0,
            "solver.accepted_steps": (
                of(s, "solver.lm_fit", "accepted_steps") / lm_calls if lm_calls else 0.0
            ),
            "solver.accept_ratio": (
                of(s, "solver.lm_fit", "accepted_steps") / iters if iters else 0.0
            ),
            "solver.capped_frac": of(s, "solver.lm_fit", "capped") / lm_calls if lm_calls else 0.0,
            "solver.s_per_iteration": of(s, "solver.lm_fit") / iters if iters else 0.0,
            "model.simulate_continuous.s": of(s, "model.simulate_continuous") / n,
            "model.simulate_discrete.s": of(s, "model.simulate_discrete") / n,
            "model.samples": (
                of(s, "model.simulate_continuous", "samples")
                + of(s, "model.simulate_discrete", "samples")
            ) / n,
            "trace.self_sum_s": sum(d["self_s"] for d in s.values()) / n,
        }
        for name in ("io.write_csv", "io.parse_csv", "io.write_overlay"):
            m[f"{name}.calls"] = of(s, name, "calls") / n
            m[f"{name}.s"] = of(s, name) / n
            m[f"{name}.bytes"] = of(s, name, "bytes") / n
        for name in ("sgolay.sg_smooth", "sgolay.sg_projection", "pipeline.fit_series"):
            m[f"{name}.calls"] = of(s, name, "calls") / n
            m[f"{name}.s"] = of(s, name) / n
        return m

    per_round = [one(s) for s in rounds]
    first = per_round[0]
    repeat = all(all(m[k] == first[k] for k in COUNT_METRICS) for m in per_round)
    out = {
        k: first[k] if k in COUNT_METRICS else statistics.median(m[k] for m in per_round)
        for k in first
    }
    return out, repeat


def main(argv) -> int:
    verify_source()
    mode = argv[0]
    if mode == "import":
        result = {"t_imported": T_IMPORTED}
    elif mode == "loop":
        result = loop(argv[1], int(argv[2]), int(argv[3]), int(argv[4]))
    elif mode == "accuracy":
        result = accuracy()
    elif mode == "trace":
        result = trace(argv[1], int(argv[2]), float(argv[3]), Path(argv[4]), Path(argv[5]))
    else:
        sys.exit(f"unknown mode {mode!r}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
