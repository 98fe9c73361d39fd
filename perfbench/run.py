"""thermofit benchmark: one command, two workloads, end-to-end or traced.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it measures the working tree under
``src/`` (children run as ``python -m thermofit.cli`` with
``PYTHONPATH=<checkout>/src``), never an installed copy.  A run does a
fixed number of ops, about what a 2-core box does in ``--seconds``, so the
seed fixes its inputs and its failure count.  The last stdout
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  The lines before it give every metric by name
with its unit, the environment and the failure reasons; the same record is
saved under ``perfbench/out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

# Every process, this one and the program's, runs OpenBLAS on one thread.
# With its default two threads on a 2-core box, the program's fits are
# slower and far less steady (six warm fits took 0.136 s with run medians
# of 0.11-0.14 s, against 0.125 s and 0.124-0.128 s pinned): the spinning
# second thread measures the scheduler and the other tenants of the host
# more than the program.  README.md gives the figures.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

import workloads as wl  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

SESSIONS = 11  # set-up samples per run
IMPORT_SAMPLES = 3
CHILD_TIMEOUT_S = 150.0  # one child; a run must end within 180 s
LOOP_CAP_S = 120.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "samples_per_s": "1/s",
    "peak_rss_mb": "MB",
    "c_rel_err_rms": "ratio",
    "sim_digits": "digits",
}


def child_env() -> dict:
    env = dict(os.environ)
    # THERMOFIT_SEED overrides --seed in the CLI and would put every op on
    # one seed
    env.pop("THERMOFIT_SEED", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv, env, stdout, stderr=subprocess.DEVNULL) -> tuple[int, float, float]:
    """Run a child to completion: (exit code, spawn time, exit time).

    The wait blocks in waitpid, which does not poll, so the exit time is
    exact; a watchdog kills a child that outlives CHILD_TIMEOUT_S.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=stdout, stderr=stderr)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        code = proc.wait()
    finally:
        watchdog.cancel()
    return code, t0, time.perf_counter()


def worker(env, workdir: Path, *args) -> tuple[dict, float]:
    """Run perfbench/worker.py; (its JSON result, its spawn time)."""
    out_path = workdir / "worker.out"
    err_path = workdir / "worker.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        code, t0, _ = spawn(
            [sys.executable, str(BENCH_DIR / "worker.py"), *map(str, args)], env, out, err
        )
    if code != 0:
        raise RuntimeError(
            f"worker {args[0]} exited {code}: "
            + err_path.read_text(encoding="utf-8", errors="replace")[-2000:]
        )
    lines = out_path.read_text(encoding="utf-8").strip().splitlines()
    return json.loads(lines[-1]), t0


def import_probe(env, workdir: Path) -> float:
    """Cold set-up of one fresh interpreter: spawn until ``import
    thermofit.cli`` returned."""
    res, t0 = worker(env, workdir, "import")
    return res["t_imported"] - t0


def cold_probe(env) -> float:
    """Wall time of a fresh interpreter that imports NumPy, isolated from
    PYTHONPATH so that it runs no thermofit code."""
    code, t0, t1 = spawn([sys.executable, *wl.COLD_PROBE_ARGV], env, subprocess.DEVNULL)
    if code != 0:
        raise RuntimeError(f"cold probe exited {code}")
    return t1 - t0


def cli_loop(workload: str, seed: int, n_ops: int, env, workdir: Path) -> dict:
    """Closed loop of ``n_ops`` cold CLI processes, one at a time.  The
    SESSIONS set-up probes and cold host-speed probes are spread over the
    loop, between ops; ``scale`` puts every op at the reference speed of
    the median cold probe."""
    sys.path.insert(0, str(SRC))  # for the pipeline round-trip check only
    import thermofit

    if SRC not in Path(thermofit.__file__).resolve().parents:
        raise RuntimeError(f"thermofit resolves to {thermofit.__file__}, not under {SRC}")
    lat, samples, errs, reasons, setups, devs, probes = [], [], [], {}, [], [], []
    capped = 0
    begin = time.perf_counter()
    out_path = workdir / "cli.out"
    for i in range(n_ops):
        if time.perf_counter() - begin >= LOOP_CAP_S:
            break
        if len(setups) < SESSIONS and i >= len(setups) * n_ops / SESSIONS:
            setups.append(import_probe(env, workdir))
            probes.append(cold_probe(env))
        op = wl.CliOp(seed, i, workdir)
        op.prepare()
        with open(out_path, "wb") as out:
            code, t0, t1 = spawn([sys.executable, "-m", "thermofit.cli", *op.argv], env, out)
        lat.append(t1 - t0)
        samples.append(op.samples)
        check = op.check(code, out_path.read_text(encoding="utf-8"))
        if check.failure:
            reasons[check.failure] = reasons.get(check.failure, 0) + 1
        errs += check.errs
        capped += check.capped
        if op.c_dev is not None:
            devs.append(op.c_dev)
    while len(setups) < SESSIONS:
        setups.append(import_probe(env, workdir))
        probes.append(cold_probe(env))
    probe = statistics.median(probes)
    # maximum over every child reaped so far: the import-only probes load a
    # subset of what an op loads, so the ops set it
    rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {"lat": lat, "scale": [wl.COLD_PROBE_REF_S / probe] * len(lat), "probe": probes,
            "samples": samples, "reasons": reasons, "errs": errs, "capped": capped,
            "rss_kb": rss_kb, "setups": setups, "c_dev_max": max(devs, default=None)}


def inproc_loop(workload: str, seed: int, n_ops: int, env, workdir: Path) -> dict:
    """The in-process closed loop of ``n_ops`` ops as SESSIONS consecutive
    worker processes.  Each contributes one cold set-up sample: spawn until
    ``import thermofit.cli`` returned, plus its untimed first op.  ``scale``
    puts each op at the reference speed of the probes around it."""
    runs = []
    begin = time.perf_counter()
    for k in range(SESSIONS):
        if time.perf_counter() - begin >= LOOP_CAP_S:
            break
        start, stop = k * n_ops // SESSIONS, (k + 1) * n_ops // SESSIONS
        res, t0 = worker(env, workdir, "loop", workload, seed, start, stop - start)
        res["setup"] = res["t_imported"] - t0 + res["first_op_s"]
        runs.append(res)
    reasons: dict = {}
    for r in runs:
        for k, v in r["reasons"].items():
            reasons[k] = reasons.get(k, 0) + v
    return {
        "lat": [x for r in runs for x in r["lat"]],
        "probe": [x for r in runs for x in r["probe"]],
        "scale": [wl.PROBE_REF_S / x for r in runs for x in r["probe"]],
        "samples": [x for r in runs for x in r["samples"]],
        "errs": [x for r in runs for x in r["errs"]],
        "capped": sum(r["capped"] for r in runs),
        "reasons": reasons,
        "rss_kb": max(r["rss_kb"] for r in runs),
        "setups": [r["setup"] for r in runs],
    }


def accuracy_panel(env, workdir: Path) -> dict:
    """The fixed accuracy panel.  Its inputs depend on neither the seed nor
    the workload and its result is deterministic, so it is computed once
    per program source, benchmark source and library versions, and later
    runs in the same checkout reuse it; ``cached`` says which."""
    key = hashlib.sha256(
        " ".join((sources_sha256(SRC / "thermofit", BENCH_DIR), sys.version,
                  np.__version__, str(version("scipy")))).encode()
    ).hexdigest()
    path = OUT / f"panel-{key[:16]}.json"
    if path.is_file():
        return {**json.loads(path.read_text(encoding="utf-8")), "cached": True}
    panel, _ = worker(env, workdir, "accuracy")
    path.write_text(json.dumps(panel), encoding="utf-8")
    return {**panel, "cached": False}


def timed_run(workload: str, seed: int, seconds: float, env, workdir: Path):
    loop_fn = cli_loop if workload in wl.CLI_WORKLOADS else inproc_loop
    loop = loop_fn(workload, seed, wl.op_count(workload, seconds), env, workdir)
    panel = accuracy_panel(env, workdir)
    raw, samples = loop["lat"], loop["samples"]
    # each op's time at the reference host speed (see workloads.PROBE_REF_S)
    lat = [x * s for x, s in zip(raw, loop["scale"])]
    q = wl.TAIL_PERCENTILE[workload]
    metrics = {
        "setup_s": statistics.median(loop["setups"]),
        "op_p50_s": statistics.median(lat),
        "op_tail_s": float(np.percentile(lat, q)),
        "samples_per_s": sum(samples) / sum(lat),
        "peak_rss_mb": loop["rss_kb"] / 1024.0,
        "c_rel_err_rms": panel["c_rel_err_rms"],
        "sim_digits": panel["sim_digits"],
    }
    failed = sum(loop["reasons"].values())
    errs = loop["errs"]
    extra = {
        "ops": len(lat),
        "tail_percentile": q,
        "failed_frac": failed / len(lat),
        "failure_reasons": loop["reasons"],
        # fits whose solver stopped at the iteration cap
        "capped_fits": loop["capped"],
        "setup_samples_s": loop["setups"],
        "latencies_s": raw,
        # as measured, before any calibration
        "raw_op_p50_s": statistics.median(raw),
        "raw_samples_per_s": sum(samples) / sum(raw),
        # median of the host-speed probes the run's times are scaled by
        "probe_p50_s": statistics.median(loop["probe"]),
        "panel": panel,
        # largest |c_cli / c_inproc - 1| over the CLI ops that got that far
        "cli_c_dev_max": loop.get("c_dev_max"),
        # accuracy on this run's own inputs, which spreads from seed to seed;
        # the metrics use the fixed panel instead
        "run_err": (
            max(errs) if workload == "simulate" else float(np.sqrt(np.mean(np.square(errs))))
        ),
    }
    return metrics, len(lat), loop["reasons"], extra


def import_times(env, workdir: Path) -> dict:
    """``-X importtime`` self times summed by top-level package; medians of
    IMPORT_SAMPLES cold imports.  ``scipy.linalg`` imported from
    ``thermofit.solver`` counts as scipy."""
    runs = []
    err_path = workdir / "importtime.err"
    for _ in range(IMPORT_SAMPLES):
        with open(err_path, "wb") as err:
            code, _, _ = spawn(
                [sys.executable, "-X", "importtime", "-c", "import thermofit.cli"],
                env, subprocess.DEVNULL, err,
            )
        if code != 0:
            raise RuntimeError("import thermofit.cli failed")
        by_pkg: dict[str, float] = {}
        for line in err_path.read_text(encoding="utf-8").splitlines():
            if not line.startswith("import time:") or "self [us]" in line:
                continue
            self_us, _, name = line[len("import time:"):].split("|")
            top = name.strip().split(".")[0]
            by_pkg[top] = by_pkg.get(top, 0.0) + int(self_us) * 1e-6
        runs.append(by_pkg)
    med = lambda f: statistics.median(f(r) for r in runs)  # noqa: E731
    return {
        "import.total_s": med(lambda r: sum(r.values())),
        "import.thermofit_s": med(lambda r: r.get("thermofit", 0.0)),
        "import.numpy_s": med(lambda r: r.get("numpy", 0.0)),
        "import.scipy_s": med(lambda r: r.get("scipy", 0.0)),
    }


def traced_run(workload: str, seed: int, seconds: float, env, workdir: Path):
    metrics = import_times(env, workdir)
    spans = OUT / f"spans-{workload}-seed{seed}.json"
    res, _ = worker(env, workdir, "trace", workload, seed, seconds, workdir, spans)
    metrics.update(res["metrics"])
    m = metrics
    extra = {
        "rounds": res["rounds"],
        "ops_per_round": wl.TRACE_OPS[workload],
        "counts_repeat": res["counts_repeat"],
        "inputs_sha256": res["digest"],
        "failure_reasons": res["reasons"],
        "capped_fits": res["capped"],
        "spans_file": str(spans.relative_to(ROOT)),
        # self times add up to the traced op; it exceeds the untraced op by
        # the tracing overhead
        "self_sum_minus_untraced_s": m["trace.self_sum_s"] - m["trace.untraced_op_s"],
    }
    return metrics, res["attempted"], res["reasons"], extra


def version(pkg: str) -> str | None:
    try:
        return importlib.metadata.version(pkg)
    except importlib.metadata.PackageNotFoundError:
        return None


def sources_sha256(*dirs: Path) -> str:
    """SHA-256 over the ``*.py`` files of ``dirs``, by name and content."""
    h = hashlib.sha256()
    for d in dirs:
        for path in sorted(d.glob("*.py")):
            h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "commit": commit,
        "src_sha256": sources_sha256(SRC / "thermofit"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "thermofit" / "cli.py").is_file():
        print(f"error: no thermofit sources under {SRC}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{tag}-{os.getpid()}"
    workdir.mkdir()
    env = child_env()
    try:
        run = traced_run if args.trace else timed_run
        metrics, attempted, reasons, extra = run(
            args.workload, args.seed, args.seconds, env, workdir
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(reasons.values())
    # An op that only hit the iteration cap returned a correct c; it counts
    # in `failed` but does not make the output incorrect.
    correct = all(r == wl.CAPPED for r in reasons) and extra.get("counts_repeat", True)
    unit = layer_unit if args.trace else END_TO_END_UNITS.__getitem__
    result = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": float(v), "unit": unit(k)} for k, v in metrics.items()},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(), **extra, "result": result,
    }
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    for k, v in result["metrics"].items():
        print(f"{k:32s} {v['value']:.6g} {v['unit']}")
    print(f"{'failed_frac':32s} {failed / attempted:.6g} ratio ({failed}/{attempted})")
    print(f"{'capped_fits':32s} {extra['capped_fits']} count")
    hidden = ("result", "latencies_s")
    print("info " + json.dumps({k: v for k, v in record.items() if k not in hidden}))
    print(json.dumps(result))
    return 0


def layer_unit(name: str) -> str:
    if name.endswith(("_s", ".s")) or ".s_per_" in name:
        return "s"
    if name.endswith(".bytes"):
        return "B"
    if name.endswith(("_ratio", "_frac", "per_fit")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
