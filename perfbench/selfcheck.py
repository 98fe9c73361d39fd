"""Self-check of the benchmark: inputs and per-layer counts repeat exactly.

    python3 perfbench/selfcheck.py [--seed N] [--seconds S]

For every workload this checks that

* the inputs of the traced op list are byte-identical for one seed and
  differ for another seed;
* two traced runs with the same seed report the same input digest and
  exactly the same per-layer counts (solver iterations and accepted steps,
  smoothing calls, CSV bytes, ...), because only exact counts may back a
  claim.

Exits 1 and names the mismatch when one fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
# the in-process ops build thermofit objects from the working tree
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import workloads as wl  # noqa: E402
from tracer import COUNT_METRICS  # noqa: E402


def traced(workload: str, seed: int, seconds: float) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        cwd=BENCH_DIR.parent, capture_output=True, text=True, timeout=180, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    info = json.loads(lines[-2].removeprefix("info "))
    return json.loads(lines[-1])["metrics"], info["inputs_sha256"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=2.0)
    args = parser.parse_args()
    problems = []
    (BENCH_DIR / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=BENCH_DIR / "out") as tmp:
        for w in wl.WORKLOADS:
            n = wl.TRACE_OPS[w]
            first = wl.inputs_digest(w, args.seed, n, Path(tmp))
            if wl.inputs_digest(w, args.seed, n, Path(tmp)) != first:
                problems.append(f"{w}: inputs differ for one seed")
            if wl.inputs_digest(w, args.seed + 1, n, Path(tmp)) == first:
                problems.append(f"{w}: inputs do not change with the seed")
            (m1, d1), (m2, d2) = (traced(w, args.seed, args.seconds) for _ in range(2))
            if not d1 == d2 == first:
                problems.append(f"{w}: traced runs fed other inputs than the seed gives")
            for k in COUNT_METRICS:
                if m1[k]["value"] != m2[k]["value"]:
                    problems.append(f"{w}: {k} {m1[k]['value']} != {m2[k]['value']}")
            counts = {k: m1[k]["value"] for k in COUNT_METRICS if m1[k]["value"]}
            print(f"{w}: inputs {first[:12]}, counts {counts}")
    for p in problems:
        print("FAIL", p)
    print("self-check", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
