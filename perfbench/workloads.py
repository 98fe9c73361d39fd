"""The two workloads: what one op is, its input, and how its output is checked.

An op is one cold CLI process (``pipeline-slow``) or one pass of the four
simulators over one input (``simulate``).  Every op of a workload does the
same work on fresh inputs, so op latencies form one population and their
median and tail are stable.  The accuracy panel runs a third kind of
in-process op, ``fits``: six ``fit_series`` calls, each regime raw and
then smoothed.  Op ``i`` of a run with seed ``s`` always gets the same
input.  Importing this module does not import ``thermofit``; the in-process
ops and the CLI output checks import it when they are built or run.
"""

from __future__ import annotations

import json
import shutil
import time
from pathlib import Path

import numpy as np

import inputs

WORKLOADS = ("pipeline-slow", "simulate")
CLI_WORKLOADS = ("pipeline-slow",)

# A run does a fixed number of ops, so that a seed fixes every input and
# every output check of the run, the failure count included: about the ops
# a 2-core box completes per second, times --seconds, and at least MIN_OPS.
OPS_PER_S = {"pipeline-slow": 0.5, "simulate": 1.0}

# op_tail_s percentile per workload: the highest that leaves at least ten
# ops beyond it at MIN_OPS, the op count of a run at --seconds 20.  A
# simulator pass takes about 1 s, so 20 s leave no tail above the median
# there.  A cold pipeline takes about 2 s: its 31 ops run for about 60 s,
# which also holds its median steady against the host's swings.
TAIL_PERCENTILE = {"pipeline-slow": 66, "simulate": 50}
MIN_OPS = {w: int(np.ceil(10 / (1 - q / 100))) + 1 for w, q in TAIL_PERCENTILE.items()}


def op_count(workload: str, seconds: float) -> int:
    return max(MIN_OPS[workload], round(seconds * OPS_PER_S[workload]))


# Op times are given at a reference host speed.  The shared host changes
# speed by up to 2x, for seconds at a time and in drifts over minutes, and
# by different amounts for different kinds of work, so each workload is
# scaled by a probe of its own kind that runs no thermofit code: simulate,
# pure-Python loops over NumPy scalars, by ``probe`` below, timed right
# before and after each op; pipeline-slow, a cold process, by a fresh
# interpreter that imports NumPy, timed at eleven points of the run.  Over
# ten seeds the run's op median spread 22 % of itself as measured and 3.8 %
# scaled on simulate, and 10.6 % and 9.1 % on pipeline-slow (its
# samples_per_s 12.8 % and 5.8 %).  README.md gives the other figures.
# probe times at the reference speed, about their medians on a 2-core Xeon VM
PROBE_REF_S = 0.012
COLD_PROBE_REF_S = 0.18
COLD_PROBE_ARGV = ("-I", "-c", "import numpy")
_PROBE_X = np.random.default_rng(0).normal(size=20_000)


def probe() -> float:
    """Time a fixed pure-Python recurrence over NumPy scalars.  It uses no
    thermofit code, so it times the host, not the program."""
    x = _PROBE_X
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(1, x.size):
        acc = 0.5 * x[i] + 0.25 * x[i - 1] - 0.1 * acc
    return time.perf_counter() - t0


# ops per round of the traced run
TRACE_OPS = {"pipeline-slow": 3, "simulate": 1}

# fit_series calls in one ``fits`` op: each regime raw, then smoothed
FITS_CYCLE = 2 * len(inputs.REGIMES)

# input streams under the workload seed
_PIPELINE_SEEDS, _SIM, _WARM = 3, 2, 5

REPORT_KEYS = frozenset(
    "a b c K tau t_ambient r_squared iterations converged lambda_final cost "
    "accepted_steps warnings".split()
)


CAPPED = "solver stopped at the iteration cap"

# Relative bound on |c_cli / c_inproc - 1|: the CLI reads the record back
# from its file and fits it with the same defaults as an in-process
# fit_series call on the exact arrays, so the two agree to round-off.
SAME_FIT_RTOL = 1e-12


class Check:
    """What the output check of one op found.

    ``reason`` is None when every output is correct; ``errs`` holds the
    accuracy of each output (``c_fit / c_true - 1``, or a simulator's
    deviation from its recurrence); ``capped`` counts fits whose solver
    stopped at the iteration cap.
    """

    def __init__(self):
        self.reason = None
        self.errs = []
        self.capped = 0

    @property
    def failure(self) -> str | None:
        """Why the op failed, or None.  A wrong output is named before a
        capped solver run, so an op that fails only with CAPPED returned
        correct outputs."""
        return self.reason or (CAPPED if self.capped else None)

    def fail(self, reason: str) -> "Check":
        self.reason = self.reason or reason
        return self

    def fit(self, converged: str, c_fit: float, c_true: float) -> "Check":
        err = c_fit / c_true - 1.0
        self.errs.append(err)
        self.capped += converged == "max_iter"
        if not abs(err) <= inputs.C_BOUND:
            self.fail(f"c off by {err:+.2%}")
        return self


def inproc_c(t: np.ndarray, y: np.ndarray) -> float:
    """c from an in-process smoothed ``fit_series`` call with the CLI's
    defaults, on the rate ``parse_csv`` infers (1 / median spacing)."""
    import thermofit as tf

    ts = tf.TimeSeries(t, y, 1.0 / float(np.median(np.diff(t))))
    return tf.fit_series(ts, smoothing=tf.SGConfig(inputs.SG_ORDER, inputs.SG_WINDOW)).fit.c


class CliOp:
    """One cold ``thermofit pipeline`` process: argv, input preparation and
    check.

    After ``check``, ``c_dev`` holds |c_cli / c_inproc - 1| (None when the
    check stopped before comparing).
    """

    def __init__(self, seed: int, i: int, workdir: Path):
        c = inputs.PIPELINE_TRUTH[2]
        self.c_dev = None
        self.cli_seed = int(inputs.rng(seed, _PIPELINE_SEEDS, i).integers(2**31))
        self.outdir = workdir / "pipeline"
        self.c_true = c
        self.samples = inputs.n_samples(c)
        self.argv = [
            "pipeline", "--c0", repr(c), "--duration", repr(inputs.PIPELINE_DURATION),
            "--seed", str(self.cli_seed), "--output", str(self.outdir), "--format", "json",
        ]
        self.input_bytes = " ".join(a for a in self.argv if a != str(self.outdir)).encode()

    def prepare(self) -> None:
        shutil.rmtree(self.outdir, ignore_errors=True)

    def check(self, code: int, stdout: str) -> Check:
        out = Check()
        if code != 0:
            return out.fail(f"exit code {code}")
        try:
            report = json.loads(stdout)
        except ValueError:
            return out.fail("report is not JSON")
        missing = REPORT_KEYS - set(report)
        if missing:
            return out.fail(f"report lacks {sorted(missing)}")
        reason, t, y = self._check_files()
        if reason:
            return out.fail(reason)
        self.c_dev = abs(report["c"] / inproc_c(t, y) - 1.0)
        out.fit(report["converged"], report["c"], self.c_true)
        if not self.c_dev <= SAME_FIT_RTOL:
            out.fail(f"CLI c is {self.c_dev:.3g} off the in-process fit of its record")
        return out

    def _check_files(self):
        """(failure reason or None, t, y of the generated record)."""
        from thermofit.model import FitParams
        from thermofit.synth import SynthSpec, generate

        a, b, c = inputs.PIPELINE_TRUTH
        want = generate(
            SynthSpec(FitParams(a, b, c), inputs.RATE, inputs.PIPELINE_DURATION, inputs.SIGMA,
                      self.cli_seed)
        )
        t, y = inputs.parse_series((self.outdir / "raw.csv").read_text(encoding="utf-8"))
        if not (np.array_equal(t, want.t) and np.array_equal(y, want.y)):
            return "raw.csv does not parse back to generate(spec)", None, None
        lines = (self.outdir / "overlay.csv").read_text(encoding="utf-8").splitlines()
        if len(lines) != want.n + 1 or any(ln.count(",") != 3 for ln in lines):
            return f"overlay.csv is not {want.n} rows of 4 columns", None, None
        return None, want.t, want.y


class InProcOp:
    """One in-process op: ``run()`` is timed, ``check(out)`` is not."""

    def __init__(self, workload: str, seed: int, i: int, stream: int = _SIM):
        import thermofit as tf

        self.workload = workload
        if workload == "fits":
            # call j of op i fits record (seed, stream, 6 i + j)
            calls, self.c_true, parts = [], [], []
            for j in range(FITS_CYCLE):
                regime = inputs.REGIMES[j % len(inputs.REGIMES)]
                smooth = j >= len(inputs.REGIMES)
                t, y = inputs.record(regime, (seed, stream, FITS_CYCLE * i + j))
                ts = tf.TimeSeries(t, y, inputs.RATE)
                sg = tf.SGConfig(inputs.SG_ORDER, inputs.SG_WINDOW) if smooth else None
                calls.append(lambda ts=ts, sg=sg: tf.fit_series(ts, smoothing=sg))
                self.c_true.append(regime[2])
                parts.append(y)
            self.samples = sum(p.size for p in parts)
            self.input_bytes = np.concatenate(parts)
        elif workload == "simulate":
            u = inputs.square_wave((seed, stream, i))
            box = tf.PhysicalParams(**inputs.BOX)
            proc = tf.ProcessParams(gain=inputs.BOX_K, tau=inputs.BOX_TAU, t_ambient=0.0)
            calls = []
            for kind in inputs.SIM_KINDS:
                if kind == "rk4":
                    ambient = inputs.BOX["t_ambient"]
                    calls.append(
                        lambda: tf.simulate_continuous(box, u, ambient, inputs.SIM_TS)
                    )
                else:
                    model = tf.discretize(proc, kind, inputs.SIM_TS)
                    calls.append(lambda model=model: tf.simulate_discrete(model, u, 0.0))
            self.u = u
            self.samples = len(calls) * u.size
            self.input_bytes = u
        else:
            raise ValueError(f"{workload} is not an in-process workload")
        # the calls look thermofit's functions up when they run, so that
        # the tracer's wrappers, installed later, see them
        self.run = lambda: [call() for call in calls]

    @staticmethod
    def warmup(seed: int) -> None:
        """The untimed first call of a ``simulate`` process: a tustin run
        on an input no timed op gets."""
        import thermofit as tf

        proc = tf.ProcessParams(gain=inputs.BOX_K, tau=inputs.BOX_TAU, t_ambient=0.0)
        model = tf.discretize(proc, "tustin", inputs.SIM_TS)
        tf.simulate_discrete(model, inputs.square_wave((seed, _WARM, 0)), 0.0)

    def check(self, outs) -> Check:
        """Fits: c against the truth.  Simulators: each one's largest
        deviation from its own method's recurrence, as a fraction of the
        output scale."""
        check = Check()
        if self.workload == "fits":
            for out, c_true in zip(outs, self.c_true):
                check.fit(out.result.converged, out.fit.c, c_true)
            return check
        for kind, out in zip(inputs.SIM_KINDS, outs):
            ref = inputs.sim_reference(kind, self.u)
            if out.shape != ref.shape:
                return check.fail(f"{kind} returned shape {out.shape}, want {ref.shape}")
            dev = float(np.max(np.abs(out - ref)) / np.max(np.abs(ref)))
            check.errs.append(dev)
            if not dev <= inputs.SIM_RTOL:
                check.fail(f"{kind} deviates {dev:.3g} of its scale from its recurrence")
        return check


def make_op(workload: str, seed: int, i: int, workdir: Path):
    if workload in CLI_WORKLOADS:
        return CliOp(seed, i, workdir)
    return InProcOp(workload, seed, i)


def inputs_digest(workload: str, seed: int, n: int, workdir: Path) -> str:
    """SHA-256 over the inputs of ops 0..n-1 (for the CLI pipeline, its argv)."""
    return inputs.digest(*(make_op(workload, seed, i, workdir).input_bytes for i in range(n)))
