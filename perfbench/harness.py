"""The benchmark's run loop, probe, baseline cases and report; see run.py."""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction

import calibration
import machine
import metrics
import workloads
from cutseq import (ApproxDirection, ExactDirection, Q2Scalar, TraceConfig, VertexHit,
                    build_polygon, derive, sector_permutation, trace_word)
from cutseq.symbolic import transition_set
from lazy_setup import run as lazy_setup
from metrics import Job, Phase
from spans import Tracer
from workloads import CLI_KINDS, EXACT_START, generic_theta, interior_point, job_rng

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench")
IN_PROCESS = {
    "trajectory-analysis": workloads.TrajectoryAnalysis,
    "exact-directions": workloads.ExactDirections,
    "generation-roundtrip": workloads.GenerationRoundtrip,
}
SETUP_REPEATS = 9
BASE_REPEATS = 3


def measure_setup(workload: str, repeats: int) -> dict:
    """Median over fresh interpreters of each lazy_setup step.

    Each child is rescaled by the interpreter floor timed before and after it
    (calibration.py), as the cli workload's children are.
    """
    runs = []
    before = calibration.measure_floor()
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "lazy_setup.py"), workload],
            cwd=ROOT, check=True, capture_output=True, text=True, timeout=120,
        )
        after = calibration.measure_floor()
        factor = (before + after) / (2 * calibration.FLOOR_REFERENCE_S)
        steps = json.loads(proc.stdout.splitlines()[-1])
        runs.append({k: v if k.endswith("_mb") else v / factor for k, v in steps.items()})
        runs[-1]["raw_setup_s"] = steps["setup_s"]
        before = after
    return {key: statistics.median(r[key] for r in runs) for key in runs[0]}


def make_workload(name: str, scratch: str):
    return workloads.Cli(ROOT, scratch) if name == "cli" else IN_PROCESS[name]()


def run_job(wl, inp: dict, tr, job_id, before: float) -> tuple[Job, float]:
    """One job, timed and checked; returns it and the calibration taken after it.

    `before` is the workload's calibration taken just before the job; the
    job's factor is the mean of the two over the calibration's reference time.
    """
    tr.job = job_id
    t0 = time.perf_counter()
    try:
        with tr.span("job"):
            out = wl.run(inp, tr)
    except Exception:  # a failed job is recorded and the loop goes on
        seconds = time.perf_counter() - t0
        problems, counts = [traceback.format_exc(limit=3)], {}
    else:
        seconds = time.perf_counter() - t0
        try:
            problems, counts = wl.check(inp, out)
        except Exception:
            problems, counts = [traceback.format_exc(limit=3)], {}
    after = wl.calibrate()
    factor = (before + after) / (2 * wl.reference_s)
    return Job(job_id, seconds, problems, counts, factor), after


def run_jobs(wl, seed: int, tr, count: int | None = None, seconds: float = 0.0) -> list[Job]:
    """Jobs 0, 1, 2, ... of the seed: `count` of them or, without a count, as
    many as fit in `seconds` of loop time at the reference machine speed, so
    that a slow spell of the machine does not change how many jobs a run has."""
    jobs: list[Job] = []
    spent = 0.0
    before = wl.calibrate()
    while len(jobs) < count if count is not None else not jobs or spent < seconds:
        t0 = time.perf_counter()
        job, before = run_job(wl, wl.make_input(seed, len(jobs)), tr, len(jobs), before)
        spent += (time.perf_counter() - t0) / job.factor
        jobs.append(job)
    return jobs


def run_probe(name: str, seed: int, scratch: str):
    """One job of every other in-process workload and one call of each CLI kind, traced."""
    tr = Tracer(True)
    cases = [(make_workload(other, scratch), 0, f"probe:{other}:0")
             for other in IN_PROCESS if other != name]
    if name != "cli":
        cli = make_workload("cli", scratch)
        cases += [(cli, i, f"probe:cli:{i}") for i in range(len(CLI_KINDS))]
    jobs = []
    for wl, index, job_id in cases:
        job, _ = run_job(wl, wl.make_input(seed, index), tr, job_id, wl.calibrate())
        jobs.append(job)
    return Phase(jobs, tr.spans, tr.units), tr


def normalized_call(fn):
    """fn() and its time rescaled by the calibration taken around it."""
    before = calibration.measure()
    t0 = time.perf_counter()
    result = fn()
    seconds = time.perf_counter() - t0
    factor = (before + calibration.measure()) / (2 * calibration.REFERENCE_S)
    return result, seconds / factor


def baseline(seed: int, tiny: bool) -> tuple[dict, list[str]]:
    """Float tracing over 10^6 crossings, exact tracing over 3000 crossings at
    cot = 2 + sqrt 2, and derive, apply_word and transition_set on 10^6 letters."""
    float_n, exact_n = (10_000, 30) if tiny else (1_000_000, 3000)
    rng = job_rng("baseline", seed, 0)
    poly = build_polygon(4)
    direction = ApproxDirection(generic_theta(rng, 4, rng.randrange(8)))
    while True:
        start = interior_point(rng, 4)
        try:
            word, float_s = normalized_call(
                lambda: trace_word(poly, start, direction, TraceConfig(max_crossings=float_n)))
        except VertexHit:
            continue
        break
    exact, exact_s = normalized_call(lambda: trace_word(
        poly, EXACT_START, ExactDirection.from_cot(Q2Scalar(Fraction(2), Fraction(1))),
        TraceConfig(max_crossings=exact_n, mode="exact")))
    perm = sector_permutation(3, 4)
    derived, derive_s = normalized_call(lambda: derive(word))
    applied, apply_s = normalized_call(lambda: perm.apply_word(word))
    pairs, pairs_s = normalized_call(lambda: transition_set(word))
    problems = []
    if len(word) != float_n or len(exact) != exact_n:
        problems.append("baseline traces have the wrong length")
    if derived != "".join(b for a, b, c in zip(word, word[1:], word[2:]) if a == c):
        problems.append("baseline derive differs from the sandwich rule")
    if applied != word.translate(str.maketrans("ABCD", "".join(perm.images))):
        problems.append("baseline apply_word differs from str.translate")
    if pairs != frozenset(zip(word, word[1:])):
        problems.append("baseline transition_set differs from the adjacent pairs")
    return {
        "float_trace.ns_per_crossing": (float_s / float_n * 1e9, "ns"),
        "exact_trace.us_per_crossing": (exact_s / exact_n * 1e6, "us"),
        "derive.ns_per_letter": (derive_s / float_n * 1e9, "ns"),
        "apply_word.ns_per_letter": (apply_s / float_n * 1e9, "ns"),
        "transition_set.ns_per_letter": (pairs_s / float_n * 1e9, "ns"),
    }, problems


def check_counts(name: str, seed: int, jobs: list) -> list[str]:
    """Counts must repeat exactly across runs of the same seed; keep them on disk.

    The file is keyed by a hash of workloads.py, so editing the workloads
    starts a fresh record instead of failing against the old inputs.
    """
    with open(workloads.__file__, "rb") as fh:
        version = hashlib.sha256(fh.read()).hexdigest()[:12]
    path = os.path.join(OUT_DIR, "counts", f"{name}-seed{seed}-{version}.json")
    stored = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            stored = json.load(fh)
    problems = []
    for job in jobs:
        if not job.ok:
            continue
        key = str(job.index)
        if key in stored and stored[key] != job.counts:
            problems.append(f"job {key}: counts {job.counts} differ from an earlier run {stored[key]}")
        stored.setdefault(key, job.counts)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(stored, fh, sort_keys=True)
    return problems


def rss_mb(name: str, setup: dict) -> float:
    """Peak resident memory of a fresh process doing the workload's set-up or,
    for cli, of its child processes (each one job).

    The benchmark process's own peak is only recorded: it is set by the one
    rare job of a run whose window regrows to 10^5-10^6 letters, so it jumps
    from run to run (21 to 33 MB on trajectory-analysis), and memory retained
    after a job keeps the high-water mark of the largest job before it.
    """
    if name == "cli":
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return setup["peak_rss_mb"]


def benchmark(name: str, seed: int, seconds: float, traced: bool, tiny: bool = False) -> dict:
    """One run; returns the result object and the record written beside it."""
    # One core for the benchmark and its children, so that the calibration
    # reads the speed of the core the jobs run on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    scratch = os.path.join(OUT_DIR, f"tmp-{name}-{seed}")
    os.makedirs(scratch, exist_ok=True)
    try:
        base = machine.record(ROOT, 1 if tiny else BASE_REPEATS)
        setup = measure_setup(name, 1 if tiny else SETUP_REPEATS)
        lazy_setup(name)
        wl = make_workload(name, scratch)
        warm, _ = run_job(wl, wl.make_input(seed, -1), Tracer(False), -1, wl.calibrate())
        problems = [f"warm-up job: {p}" for p in warm.problems]
        record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(traced),
                  "machine": base, "setup": setup}
        if not traced:
            jobs = run_jobs(wl, seed, Tracer(False), seconds=seconds)
            values, record["tail"] = metrics.end_to_end(jobs, setup["setup_s"], rss_mb(name, setup))
            record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            counted = jobs
        else:
            count = max(2, math.ceil(wl.jobs_per_second * seconds / 2))
            plain = run_jobs(wl, seed, Tracer(False), count)
            tr = Tracer(True)
            traced_jobs = run_jobs(wl, seed, tr, count)
            for a, b in zip(plain, traced_jobs):
                if a.ok and b.ok and a.counts != b.counts:
                    problems.append(f"job {a.index}: counts differ between untraced and traced runs")
            probe_phase, probe_tr = run_probe(name, seed, scratch)
            base_values, base_problems = baseline(seed, tiny)
            problems += base_problems
            main = Phase(traced_jobs, tr.spans, tr.units)
            values, record["per_layer"] = metrics.per_layer(
                main, probe_phase, plain, setup, base, base_values)
            os.makedirs(os.path.join(OUT_DIR, "spans"), exist_ok=True)
            tr.write(os.path.join(OUT_DIR, "spans", f"{name}-seed{seed}.json"))
            probe_tr.write(os.path.join(OUT_DIR, "spans", f"{name}-seed{seed}-probe.json"))
            jobs = plain + traced_jobs + probe_phase.jobs
            counted = plain
        problems += check_counts(name, seed, counted)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    jobs = [warm] + jobs
    failed = [j for j in jobs if not j.ok]
    record["failures"] = [{"job": str(j.index), "problems": j.problems[:3]} for j in failed[:20]]
    record["problems"] = problems[:20]
    result = {
        "correct": not failed and not problems,
        "attempted": len(jobs),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"{name}-seed{seed}-trace{int(traced)}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(dict(record, result=result), fh, indent=1, sort_keys=True, default=str)
    return {"result": result, "record": record}


def report(out: dict) -> list[str]:
    record, result = out["record"], out["result"]
    base = record["machine"]
    lines = [
        f"machine: {base['cpu']}, nproc {base['nproc']}, {base['implementation']} {base['python']}",
        f"base: interpreter floor {base['interpreter_s']:.4f} s, import cutseq.cli "
        f"{base['import_cli_s']:.4f} s; site {base['site']['site_ms']} ms, heavy site imports "
        f"{base['site']['site_heavy_imports_ms']} via .pth files {base['site']['importing_pth']}",
    ]
    if "tail" in record:
        t = record["tail"]
        lines.append(f"job_tail_s is p{t['tail_percentile']:.2f} of {t['jobs']} jobs "
                     f"({t['jobs_beyond_tail']} beyond it)")
        lines.append(f"raw wall times: p50 {t['raw_job_p50_s']:.5f} s, tail {t['raw_job_tail_s']:.5f} s; "
                     f"median machine factor {t['median_factor']:.3f} (see calibration.py); "
                     f"benchmark process peak RSS {record['peak_rss_mb']:.2f} MB")
    if "per_layer" in record:
        detail = record["per_layer"]
        lines.append(f"traced job time {detail['job_s']:.4f} s; module busy / self seconds:")
        for module, v in detail["modules_s"].items():
            lines.append(f"  {module:12s} busy {v['busy']:.6f}  self {v['self']:.6f}")
        probed = sorted(k for k, s in detail["sources"].items() if s != "workload")
        lines.append(f"read from the probe (no workload sample): {', '.join(probed) or 'none'}")
    for key, m in result["metrics"].items():
        lines.append(f"{key} = {m['value']} {m['unit']}")
    for job in record["failures"]:
        lines.append(f"FAILED job {job['job']}: {job['problems'][0].strip()[-300:]}")
    lines += [f"PROBLEM {p}" for p in record["problems"]]
    return lines
