"""Run one workload in this process and print its result as one JSON line.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
                                [--setup-only]

``run.py`` starts this in a process of its own per workload, with one BLAS
thread.  Set-up is everything before the first timed job: importing the
library, building the jobs and their references, and warm-up.  The timed
phase is a closed loop with one client: it runs whole passes over the job
list, each pass in a fresh seeded order, and starts another pass only while
that pass is expected to end within ``--seconds``.  It always runs the
workload's ``min_passes``, which leave at least ``TAIL_BEYOND`` jobs beyond
the median, so the tail percentile is never below the median.  Times are in
reference seconds (see ``speed.py``); ``jobs_per_s`` is the median over the
passes of each pass's jobs per second of time in jobs.

With ``--trace 1`` it runs one pass untraced and the same pass traced
instead, and reports the per-layer metrics of the traced pass, in raw
seconds.
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import platform
import random
import resource
import statistics
import sys
import time
from array import array

from speed import Speedometer

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT_DIR = pathlib.Path(__file__).resolve().parent / "out"
TAIL_BEYOND = 10          # jobs that must lie beyond the tail percentile

# the layers expected to lead the traced self time of each workload
PREDICTED_LEADERS = {
    "structure": {"permgroups"},
    "enumerate": {"enumerator"},
    "wordproblem": {"words", "decision"},
    "area_growth": {"words", "isoperimetry"},
}


def import_library() -> None:
    """Import weakcomm from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import weakcomm
    if pathlib.Path(weakcomm.__file__).resolve().parent != src / "weakcomm":
        raise ImportError(f"weakcomm imported from {weakcomm.__file__}, not {src}")


def run_pass(order, meter: Speedometer | None, durations: array,
             failures: list[tuple[str, str]]) -> None:
    """Run the jobs in order; append each one's time (reference seconds with
    a meter, raw seconds without) and each failure with its reason."""
    clock = time.perf_counter
    for job in order:
        stolen = meter.stolen if meter else 0.0
        t0 = clock()
        try:
            out = job.run()
            reason = None
        except Exception as exc:   # a raising job is a failed job, not a crash
            reason = f"raised {exc!r}"
        t1 = clock()
        if meter:
            durations.append(meter.scaled(t0, t1 - t0 - (meter.stolen - stolen)))
        else:
            durations.append(t1 - t0)
        if reason is None:
            reason = job.check(out)
        if reason is not None:
            failures.append((job.name, reason))


def tail_percentile(n_jobs: int) -> float:
    """Highest percentile, in steps of 0.1 up to 99.9, with TAIL_BEYOND jobs
    beyond it in a run of n_jobs.  Fixed per workload from its least job
    count, so every run of a workload reports the same percentile."""
    return min(99.9, math.floor(1000 * (1 - TAIL_BEYOND / n_jobs)) / 10)


def quantile(xs, pct: float) -> float:
    """Linear interpolation between sorted values (the 'inclusive' rule)."""
    pos = pct / 100 * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def measure(jobs, rng: random.Random, seconds: float, least: int,
            meter: Speedometer) -> dict:
    if least * len(jobs) < 2 * TAIL_BEYOND:
        raise ValueError("too few jobs per run for a tail percentile")
    durations = array("d")
    failures: list[tuple[str, str]] = []
    pass_rates = []           # jobs per second of each pass
    t0 = time.perf_counter()
    while True:
        start = len(durations)
        run_pass(rng.sample(jobs, len(jobs)), meter, durations, failures)
        pass_rates.append(len(jobs) / sum(durations[start:]))
        passes = len(pass_rates)
        elapsed = time.perf_counter() - t0
        if passes >= least and elapsed * (passes + 1) / passes > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    pct = tail_percentile(least * len(jobs))
    xs = sorted(durations)      # after the RSS reading: the copy is ours
    return {
        "wall_s": elapsed, "passes": passes, "attempted": len(durations),
        "failures": failures, "tail_percentile": pct, "peak_rss_mb": peak_rss_mb,
        "metrics": {
            "jobs_per_s": statistics.median(pass_rates),
            "job_p50_s": quantile(xs, 50),
            "job_tail_s": quantile(xs, pct),
        },
    }


def measure_traced(jobs, rng: random.Random, workload: str):
    from tracer import Tracer
    order = rng.sample(jobs, len(jobs))
    durations = array("d")
    failures: list[tuple[str, str]] = []
    t0 = time.perf_counter()
    run_pass(order, None, durations, failures)
    untraced = time.perf_counter() - t0
    tracer = Tracer()
    with tracer.installed():
        t0 = time.perf_counter()
        run_pass(order, None, durations, failures)
        traced = time.perf_counter() - t0
    shares = tracer.shares()
    ranked = sorted(shares, key=shares.get, reverse=True)
    predicted = PREDICTED_LEADERS[workload]
    return tracer, {
        "wall_s": untraced + traced, "untraced_wall_s": untraced,
        "traced_wall_s": traced, "attempted": len(durations), "failures": failures,
        "self_shares": shares,
        "prediction": {"leaders": sorted(predicted),
                       "observed": sorted(ranked[:len(predicted)]),
                       "held": set(ranked[:len(predicted)]) == predicted},
        "metrics": tracer.layer_metrics(traced - untraced),
    }


def setup(workload: str, seed: int):
    """Build the jobs of one workload and warm up; returns (spec, jobs, rng)."""
    import workloads
    rng = random.Random(seed)
    spec = workloads.WORKLOADS[workload]
    jobs = spec.jobs(rng, workloads.load_reference())
    by_name = {job.name: job for job in jobs}
    failures: list[tuple[str, str]] = []
    run_pass([by_name[name] for name in spec.warmup], None, array("d"), failures)
    if failures:
        raise RuntimeError(f"warm-up failed: {failures}")
    return spec, jobs, rng


def write_spans(tracer, workload: str, seed: int) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{workload}-seed{seed}.json"
    doc = {"fields": ["id", "parent", "name", "start", "end"], "spans": tracer.spans,
           "calls": dict(tracer.calls), "self_s": tracer.self_time}
    path.write_text(json.dumps(doc) + "\n", encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    meter = Speedometer()
    meter.start()
    stolen = meter.stolen
    t0 = time.perf_counter()
    import_library()
    spec, jobs, rng = setup(args.workload, args.seed)
    t1 = time.perf_counter()
    result = {"workload": args.workload, "seed": args.seed, "jobs_per_pass": len(jobs),
              "setup_s": meter.scaled(t0, t1 - t0 - (meter.stolen - stolen))}
    import numpy
    result.update(python=platform.python_version(), numpy=numpy.__version__)
    if not args.setup_only:
        if args.trace:
            meter.stop()
            tracer, measured = measure_traced(jobs, rng, args.workload)
            write_spans(tracer, args.workload, args.seed)
        else:
            measured = measure(jobs, rng, args.seconds, spec.min_passes, meter)
        result.update(measured)
        result["failed"] = len(result["failures"])
        result["failures"] = result["failures"][:20]
    meter.stop()
    result.setdefault("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
