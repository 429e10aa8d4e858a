"""The weakcomm benchmark: one command for every workload and metric.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each workload runs in a process of its own
(``worker.py``), one after another, never two at once, each pinned to one
BLAS thread through this launcher's environment.  With ``--trace 0`` it
prints the end-to-end metrics of BENCHMARK.json, with ``--trace 1`` the
per-layer ones, each by name with its unit; the last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
Exit code 0 when every job's output matched its reference, 1 when one did
not, 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_SAMPLES = 3         # set-up is measured this many times; the median counts
DEADLINE_S = 170          # every process of one workload ends within this
ONE_THREAD = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                     "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                                     "VECLIB_MAXIMUM_THREADS")}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "weakcomm" / "__init__.py").is_file():
        raise BenchError(f"no weakcomm sources under {ROOT / 'src'}")
    if not path.is_file():
        raise BenchError(f"{path} is missing")
    return json.loads(path.read_text(encoding="utf-8"))


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_worker(workload: str, seed: int, seconds: float, trace: int,
               setup_only: bool, deadline: float) -> dict:
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    env = {**os.environ, **ONE_THREAD}
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:   # run() has killed and reaped the worker
        raise BenchError(f"{workload}: worker ran past the {DEADLINE_S} s deadline")
    if proc.returncode != 0:
        raise BenchError(f"{workload}: worker exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 spec: dict) -> dict:
    """Run one workload; returns its result with metrics named as in spec."""
    deadline = time.monotonic() + DEADLINE_S
    if trace:
        result = run_worker(workload, seed, seconds, trace, False, deadline)
        name_metrics(result, [], spec["per_layer"])
        return result
    setups = [run_worker(workload, seed, seconds, trace, True, deadline)["setup_s"]
              for _ in range(SETUP_SAMPLES - 1)]
    result = run_worker(workload, seed, seconds, trace, False, deadline)
    name_metrics(result, setups + [result["setup_s"]], spec["end_to_end"])
    return result


def name_metrics(result: dict, setups: list[float], declared: list[dict]) -> None:
    """Replace the worker's metrics by the declared ones, each with its unit;
    set-up time is the median of the set-up samples."""
    measured = dict(result["metrics"])
    if setups:
        measured["peak_rss_mb"] = result["peak_rss_mb"]
        measured["setup_s"] = statistics.median(setups)
    missing = [m["name"] for m in declared if m["name"] not in measured]
    if missing:
        raise BenchError(f"{result['workload']}: metrics not measured: {missing}")
    result["metrics"] = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
                         for m in declared}
    result["setup_samples_s"] = setups


def report_lines(workload: str, result: dict) -> list[str]:
    """Human-readable lines: every metric by name with its unit."""
    lines = [f"== {workload}: {result['attempted']} jobs, {result['failed']} failed"]
    for name, m in result["metrics"].items():
        lines.append(f"{workload:12s} {name:40s} {m['value']:.6g} {m['unit']}")
    lines.append(f"{workload:12s} {'fail_ratio':40s} "
                 f"{result['failed'] / result['attempted']:.6g} ratio")
    if "tail_percentile" in result:
        lines.append(f"{workload:12s} job_tail_s is the p{result['tail_percentile']:g} "
                     f"of {result['attempted']} jobs in {result['passes']} passes "
                     f"of {result['jobs_per_pass']}")
    if "prediction" in result:
        p = result["prediction"]
        shares = ", ".join(f"{k} {v:.1%}" for k, v in sorted(
            result["self_shares"].items(), key=lambda kv: -kv[1]) if v > 0)
        lines.append(f"{workload:12s} self-time shares: {shares}")
        lines.append(f"{workload:12s} predicted leaders {'+'.join(p['leaders'])}: "
                     f"{'held' if p['held'] else 'FAILED'} "
                     f"(observed {'+'.join(p['observed'])})")
    for name, reason in result["failures"]:
        lines.append(f"{workload:12s} FAILED {name}: {reason}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        spec = load_spec()
        names = [w["name"] for w in spec["workloads"]]
        if args.workload not in names + ["all"]:
            raise BenchError(f"unknown workload {args.workload!r}; one of {names} or all")
        seconds = args.seconds or spec["run_seconds"]
        chosen = names if args.workload == "all" else [args.workload]
        results = {}
        for workload in chosen:      # one after another, never two at once
            results[workload] = run_workload(workload, args.seed, seconds,
                                             args.trace, spec)
            print("\n".join(report_lines(workload, results[workload])), flush=True)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    first = next(iter(results.values()))
    print(json.dumps({"info": {
        "seed": args.seed, "seconds": seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "cpu_model": cpu_model(),
        "python": first["python"], "numpy": first["numpy"],
        "blas_threads": 1, "workloads_run_at_once": 1,
        "jobs": {w: {"attempted": r["attempted"], "passes": r.get("passes"),
                     "tail_percentile": r.get("tail_percentile"),
                     "setup_samples_s": r["setup_samples_s"]}
                 for w, r in results.items()},
    }}))
    failed = sum(r["failed"] for r in results.values())
    if len(results) == 1:
        metrics = first["metrics"]
    else:
        metrics = {f"{w}.{name}": m for w, r in results.items()
                   for name, m in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(r["attempted"] for r in results.values()),
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
