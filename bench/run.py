"""Benchmark of fiberphoton's simulate -> detect -> correlate -> fit chain.

    python3 bench/run.py --workload pulsed-fit --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Runs whole rounds of one workload in this
process until --seconds have passed, checks the outputs of every round, and
prints as its last line one JSON object with the keys correct, attempted,
failed and metrics.  --trace 0 gives the end-to-end metrics; --trace 1 runs
half the time untraced and half traced, and gives the per-layer metrics and
the tracing overhead.  README.md describes workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
#: Fresh interpreters started per run to time set-up; the median is reported.
SETUP_SAMPLES = 7
SETUP_CODE = """\
import time
t0 = time.perf_counter()
import fiberphoton, fiberphoton.cli
print(repr(time.perf_counter() - t0), fiberphoton.__file__)
"""


def from_src(path: str) -> bool:
    return Path(path).resolve().is_relative_to(SRC.resolve())


def measure_setup() -> float:
    """Median time for a fresh interpreter to import the package and its CLI."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env,
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=60, check=True)
        seconds, module_file = proc.stdout.strip().split(" ", 1)
        if not from_src(module_file):
            raise RuntimeError(f"set-up imported {module_file}, not {SRC}")
        samples.append(float(seconds))
    return statistics.median(samples)


def run_rounds(workload, seconds: float, tracer=None):
    """Whole rounds for `seconds`: a round starts only if one more of the
    last round's length still fits, and there is at least one.  Returns the
    timed round durations, the failed operations, the failed checks and,
    when traced, the per-layer figures of each round."""
    times, layers, failed, problems = [], [], 0, []
    start = time.perf_counter()
    while not times or time.perf_counter() - start + times[-1] <= seconds:
        if tracer is not None:
            tracer.recording = True
        t0 = time.perf_counter()
        out, round_failed = workload.run_round()
        times.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.recording = False
            layers.append(tracer.round_metrics())
        failed += round_failed
        problems += workload.check(out)
        out = None  # free this round's streams before the next round runs
    return times, failed, problems, layers


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["pulsed-fit", "pulsed-peaks", "cli-files"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main() -> int:
    args = parse_args()
    if not (SRC / "fiberphoton" / "__init__.py").is_file():
        print(f"error: no fiberphoton sources under {SRC}; run from the root "
              "of a checkout of the repository", file=sys.stderr)
        return 2
    # At most two threads: the CLI's two correlate workers, no BLAS pool.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import fiberphoton
    import workloads

    if not from_src(fiberphoton.__file__):
        print(f"error: imported {fiberphoton.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        setup_s = measure_setup() if args.trace == 0 else None
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        workload.prepare()
        if args.trace == 0:
            times, failed, problems, _ = run_rounds(workload, args.seconds)
            run_s = statistics.median(times)
            metrics = {
                "run_s": (run_s, "s"),
                "events_per_s": (workload.events / run_s, "events/s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                                * 1024 / 1e6, "MB"),
                "setup_s": (setup_s, "s"),
            }
        else:
            import tracer

            times, failed, problems, _ = run_rounds(workload, args.seconds / 2)
            trace = tracer.Tracer()
            trace.install()
            try:
                traced, t_failed, t_problems, layers = run_rounds(
                    workload, args.seconds / 2, trace)
            finally:
                trace.uninstall()
            figures = tracer.median_metrics(layers)
            figures["trace.overhead_s"] = (statistics.median(traced)
                                           - statistics.median(times))
            metrics = {k: (v, tracer.UNITS[k]) for k, v in figures.items()}
            times += traced
            failed += t_failed
            problems += t_problems
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    for problem in dict.fromkeys(problems):
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(times)} rounds of "
          f"{min(times):.3f}..{max(times):.3f} s, {failed} known-fault "
          "operations failed", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": len(times) * workload.ops_per_round,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
