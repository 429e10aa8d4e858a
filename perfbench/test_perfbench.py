"""Tests of the benchmark's own code.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from array import array
from functools import partial

import pytest

import run
import worker

worker.import_library()

import workloads  # noqa: E402  (needs the library on the path)
from weakcomm import sidki  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def reference():
    return workloads.load_reference()


def _jobs(make, reference, names):
    by_name = {job.name: job for job in make(random.Random(1), reference)}
    return [by_name[n] for n in names]


def _failures(jobs):
    failures = []
    worker.run_pass(jobs, None, array("d"), failures)
    return failures


def test_jobs_pass_against_the_committed_reference(reference):
    jobs = _jobs(workloads.structure_jobs, reference, ["verify:C2", "engel:C4", "modules:S3"])
    jobs += _jobs(workloads.enumerate_jobs, reference, ["realize:A4:hlt"])
    jobs += _jobs(workloads.area_growth_jobs, reference, ["minarea:[a, b]", "grid:3"])
    assert _failures(jobs) == []


@pytest.mark.parametrize("make, name, corrupt", [
    (workloads.structure_jobs, "verify:C2",
     lambda d: d["orders"].__setitem__("X", 5)),
    (workloads.structure_jobs, "engel:C4", lambda d: d.__setitem__("m", 7)),
    (workloads.enumerate_jobs, "realize:A4:hlt",
     lambda d: d.__setitem__("sha256", "0" * 64)),
    (workloads.area_growth_jobs, "growth:X(Z)", lambda d: d["sizes"].append(1)),
])
def test_a_corrupted_reference_fails_its_job(reference, make, name, corrupt):
    bad = json.loads(json.dumps(reference))
    corrupt(bad[name])
    [job] = _jobs(make, bad, [name])
    failures = _failures([job])
    assert [n for n, _ in failures] == [name]
    assert "differs from reference" in failures[0][1]


def test_a_missing_reference_fails_its_job(reference):
    [job] = _jobs(workloads.structure_jobs, {}, ["verify:C2"])
    assert _failures([job]) == [("verify:C2", "no reference")]


def test_closed_forms_catch_a_wrong_output():
    assert workloads._grid_closed_form(3, {"area": 8, "radius": 4, "valid": True})
    assert workloads._min_area_closed_form("[a^2, b^2]", {"minimal_area": 3})
    assert workloads._growth_closed_form("F2", {"sizes": [1, 5, 17, 52]})
    assert workloads._engel_closed_form({"n": 1, "d": 1, "s": 1, "m": 7, "verdict": True})


def test_a_wrong_or_unknown_verdict_fails_the_word():
    setup, table, letters = workloads.word_problem_setup("S3")
    w = workloads._random_word(random.Random(2), letters)
    truth = "trivial" if table.is_trivial_word(w) else "nontrivial"
    lie = "nontrivial" if truth == "trivial" else "trivial"
    good = workloads.Job("wp:S3", partial(workloads._decide, setup, w),
                         partial(workloads._grade, truth))
    bad = workloads.Job("wp:S3", good.run, partial(workloads._grade, lie))
    assert _failures([good]) == []
    assert [n for n, _ in _failures([bad])] == ["wp:S3"]


def _cheap_jobs(reference):
    return _jobs(workloads.structure_jobs, reference, ["verify:C2", "verify:C3"]) * 10


def test_every_metric_is_printed_with_its_unit(reference):
    meter = worker.Speedometer()
    meter.start()
    try:
        measured = worker.measure(_cheap_jobs(reference), random.Random(1), 0.0, 1, meter)
    finally:
        meter.stop()
    result = {**measured, "workload": "structure", "failed": len(measured["failures"]),
              "jobs_per_pass": 20, "peak_rss_mb": 50.0}
    run.name_metrics(result, [0.3, 0.2, 0.4], SPEC["end_to_end"])
    lines = run.report_lines("structure", result)
    for m in SPEC["end_to_end"]:
        assert any(line.split()[1:2] == [m["name"]] and line.endswith(" " + m["unit"])
                   for line in lines), m["name"]
    assert result["metrics"]["setup_s"]["value"] == 0.3
    assert any(line.split()[1:2] == ["fail_ratio"] for line in lines)


def test_traced_self_times_fit_in_the_traced_wall_time(reference):
    setup, table, letters = workloads.word_problem_setup("C2")
    rng = random.Random(3)
    jobs = _jobs(workloads.structure_jobs, reference, ["verify:S3", "modules:S3"])
    jobs += _jobs(workloads.enumerate_jobs, reference, ["realize:A4:felsch"])
    jobs += _jobs(workloads.area_growth_jobs, reference, ["minarea:[a, b]", "grid:4"])
    for _ in range(50):
        w = workloads._random_word(rng, letters)
        expected = "trivial" if table.is_trivial_word(w) else "nontrivial"
        jobs.append(workloads.Job("wp:C2", partial(workloads._decide, setup, w),
                                  partial(workloads._grade, expected)))
    original = sidki.build
    trace, result = worker.measure_traced(jobs, random.Random(1), "structure")
    assert sidki.build is original              # the wrappers are removed again
    assert result["failures"] == []
    assert sum(trace.self_time.values()) <= result["traced_wall_s"]
    metrics = result["metrics"]
    assert sorted(m["name"] for m in SPEC["per_layer"]) == sorted(metrics)
    assert metrics["sidki.build.calls"] == 2
    assert metrics["decision.xg_word_problem.calls"] == 50
    assert metrics["enumerator.felsch.busy_s"] > 0
    assert 0 < metrics["decision.stage1_share"] <= 1
    assert all(s is not None for s in trace.spans)
    assert all(parent is None or parent < sid for sid, parent, *_ in trace.spans)


def test_tail_percentile_leaves_ten_jobs_beyond_it():
    for n in (20, 21, 38, 57, 76, 60_000):
        pct = worker.tail_percentile(n)
        assert n * (1 - pct / 100) >= worker.TAIL_BEYOND - 1e-9
        assert pct >= 50
    assert worker.quantile([1.0, 2.0, 3.0], 50) == 2.0
    assert worker.quantile([1.0, 2.0, 3.0, 4.0], 50) == 2.5
    assert worker.quantile([1.0, 2.0], 75) == 1.75


def test_without_the_library_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "structure",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
