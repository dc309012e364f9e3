#!/usr/bin/env python3
"""End-to-end benchmark of the RTDS reproduction — one command, three modes.

``run.py --workload W --seed N --seconds S --trace 0|1``
    One workload in this (fresh) process: repeat set-up + user call until
    ``S`` seconds are spent (at least ``MIN_REPS`` times), report every
    wall-clock figure as the minimum over the repetitions, check that all
    repetitions produced the identical simulated result and that no
    accepted job missed its deadline. ``--trace 1`` then runs the set-up
    and the call once more under the benchmark's own timing wrappers and
    reports the per-layer ledger instead of the end-to-end metrics. The
    last line of standard output is one JSON object.

``run.py [--seed N] [--seconds S] [--trace 0|1]``
    The full pass: the four workloads, each in its own subprocess, one
    after the other (never two at once), then one table.

``run.py noise [--passes N] [--vary-seed]``
    The full untraced pass N times; per end-to-end metric and workload
    the median, quartiles and worst deviation from the median, next to
    the metric's bound. ``--vary-seed`` gives pass ``i`` seed ``seed+i``.

Results (all repetition values, machine fingerprint, trace) land in
``benchmarks/e2e/results/``. See ``README.md`` beside this file.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pathlib
import platform
import resource
import subprocess
import sys
import time
from heapq import heappop, heappush
from typing import Any, Dict, List, Optional

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RESULTS = HERE / "results"

#: a repetition count below this cannot support a min-of-reps claim
MIN_REPS = 5
#: a set-up faster than this is re-timed SHORT_SETUP_REPEATS times per rep
SHORT_SETUP_S = 0.05
SHORT_SETUP_REPEATS = 25

WORKLOAD_NAMES = ("steady48", "montage48", "wide_geo1024", "soak48")


def _import_program():
    """Import ``repro`` from the checkout's ``src/`` and the benchmark's own
    modules; returns ``(workloads, ledger, tracing, stats, import seconds)``."""
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        sys.exit(f"benchmark needs the program under test at {src}/repro; not found")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    t0 = time.perf_counter()
    import ledger
    import stats
    import tracing
    import workloads

    return workloads, ledger, tracing, stats, time.perf_counter() - t0


def calibrate() -> float:
    """Best of three runs of a fixed pure-Python kernel (heap + dict churn).

    Run before and after the measurement to *show* machine drift; never
    used to normalise a metric.
    """
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        heap: List[Any] = []
        table: Dict[int, int] = {}
        for i in range(60_000):
            heappush(heap, ((i * 7919) % 10_007, i))
            table[i & 1023] = i
            if i & 3 == 3:
                heappop(heap)
        best = min(best, time.perf_counter() - t0)
    return best


def fingerprint() -> Dict[str, Any]:
    """Where these numbers were taken: cores, CPU, interpreter, numpy, commit."""
    import numpy

    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": sha,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- one workload, in this process -------------------------------------------

def _timed_setup(cell, seed: int):
    """Time the set-up; returns ``(prepared input, [seconds, ...])``."""
    samples: List[float] = []
    repeats = 1
    while True:
        gc.collect()
        t0 = time.perf_counter()
        prepared = cell.prepare(seed)
        samples.append(time.perf_counter() - t0)
        if len(samples) == 1 and samples[0] < SHORT_SETUP_S:
            repeats = SHORT_SETUP_REPEATS
        if len(samples) >= repeats:
            return prepared, samples
        del prepared


def _one_rep(cell, seed: int) -> Dict[str, Any]:
    prepared, setup_samples = _timed_setup(cell, seed)
    gc.collect()
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    raw = cell.call(prepared)
    call_s = time.perf_counter() - t0
    cpu_s = time.process_time() - cpu0
    obs = cell.observe(raw)
    return {
        "setup_samples_s": setup_samples,
        "call_s": call_s,
        "cpu_s": cpu_s,
        "loop_s": obs.sim.wall_seconds,
        "digest": obs.digest,
        "arrived": obs.arrived,
        "failed": obs.failed,
        "simulated": {
            "guarantee_ratio": obs.guarantee_ratio,
            "admit_p99_sim": obs.admit_p99,
            "msgs_per_job": obs.msgs_per_job,
            "latency_samples": obs.latency_samples,
        },
    }


def _traced_pass(cell, seed: int, ledger, tracing):
    """Set-up and call once more, each under a fresh tracer."""
    setup_tracer, call_tracer = tracing.Tracer(), tracing.Tracer()
    gc.collect()
    patches = ledger.install(setup_tracer)
    try:
        prepared = cell.prepare(seed)
    finally:
        patches.restore()
    gc.collect()
    patches = ledger.install(call_tracer)
    try:
        t0 = time.perf_counter()
        raw = cell.call(prepared)
        wall = time.perf_counter() - t0
    finally:
        patches.restore()
    return setup_tracer, call_tracer, cell.observe(raw), wall


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    t_start = time.perf_counter()
    workloads, ledger, tracing, stats, import_s = _import_program()
    cell = workloads.all_workloads()[name]
    calib_before = calibrate()

    reps: List[Dict[str, Any]] = []
    t_measure = time.perf_counter()
    while len(reps) < MIN_REPS or time.perf_counter() - t_measure < seconds:
        reps.append(_one_rep(cell, seed))
    measured_s = time.perf_counter() - t_measure
    rss_mb = peak_rss_mb()  # before the traced pass inflates it with spans

    setup_samples = [s for r in reps for s in r["setup_samples_s"]]
    call_walls = [r["call_s"] for r in reps]
    first = reps[0]
    problems: List[str] = []
    if len({r["digest"] for r in reps}) != 1:
        problems.append("repetitions disagree on scalar_metrics: " + str([r["digest"] for r in reps]))
    if first["failed"]:
        problems.append(f"{first['failed']} jobs missed, unfinished, undecided or leaked")
    sim = first["simulated"]
    call_min = stats.min_of_reps(call_walls)
    end_to_end = {
        "setup_s": stats.min_of_reps(setup_samples),
        "jobs_per_s": first["arrived"] / call_min,
        "peak_rss_mb": rss_mb,
        "guarantee_ratio": sim["guarantee_ratio"],
        "admit_p99_sim": sim["admit_p99_sim"],
        "msgs_per_job": sim["msgs_per_job"],
    }

    traced = _traced_pass(cell, seed, ledger, tracing) if trace else None
    calib_after = calibrate()
    RESULTS.mkdir(exist_ok=True)
    per_layer: Optional[Dict[str, float]] = None
    if traced is not None:
        setup_tr, call_tr, obs, traced_wall = traced
        if obs.digest != first["digest"]:
            problems.append("traced run's scalar_metrics differ from the untraced runs'")
        per_layer = ledger.per_layer(
            setup_tr,
            call_tr,
            obs,
            call_wall_traced=traced_wall,
            call_wall_untraced=call_min,
            loop_s_untraced=stats.min_of_reps([r["loop_s"] for r in reps]),
            harness={
                "harness.import_s": import_s,
                "harness.rep_spread": stats.rep_spread(call_walls),
                "harness.cpu_over_wall": sum(r["cpu_s"] for r in reps) / sum(call_walls),
                "harness.calib_s": (calib_before + calib_after) / 2.0,
            },
        )
        with open(RESULTS / f"trace_{name}.json", "w") as fh:
            json.dump(
                {"workload": name, "seed": seed,
                 "setup": setup_tr.document(), "call": call_tr.document()},
                fh, separators=(",", ":"),
            )

    correct = not problems
    result = {
        "workload": name,
        "why": cell.why,
        "seed": seed,
        "seconds": seconds,
        "correct": correct,
        "problems": problems,
        "ops_attempted": first["arrived"],
        "ops_failed": first["failed"],
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "latency_samples": sim["latency_samples"],
        "reps": reps,
        "measured_s": measured_s,
        "total_s": time.perf_counter() - t_start,
        "calib_before_s": calib_before,
        "calib_after_s": calib_after,
        "fingerprint": fingerprint(),
    }
    with open(RESULTS / f"{name}.json", "w") as fh:
        json.dump(result, fh, indent=1)

    shown = per_layer if trace else end_to_end
    units = {n: u for n, u, *_ in (ledger.PER_LAYER if trace else workloads.END_TO_END)}
    print(f"{name} seed={seed}: {len(reps)} reps in {measured_s:.1f}s, "
          f"rep spread {stats.rep_spread(call_walls):.3f}, "
          f"p99 over {sim['latency_samples']} decisions "
          f"({stats.samples_beyond(sim['latency_samples'], 99.0)} beyond it), digest {first['digest']}")
    for metric, value in shown.items():
        print(f"  {metric:<42} {value:>14.6g} {units[metric]}")
    for problem in problems:
        print(f"  FAILED: {problem}")
    print(json.dumps({
        "correct": correct,
        "attempted": first["arrived"],
        "failed": first["failed"],
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in shown.items()},
    }))
    return 0 if correct else 1


# -- the full pass: four subprocesses, one after the other ---------------------

def _spawn(name: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    """Run one workload in a fresh interpreter; returns its result file."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(int(trace))],
        capture_output=True, text=True,
    )
    if proc.returncode not in (0, 1) or not proc.stdout.strip():
        sys.stderr.write(proc.stdout + proc.stderr)
        sys.exit(f"workload {name} crashed (exit {proc.returncode})")
    with open(RESULTS / f"{name}.json") as fh:
        return json.load(fh)


def full_pass(seed: int, seconds: float, trace: bool) -> List[Dict[str, Any]]:
    return [_spawn(name, seed, seconds, trace) for name in WORKLOAD_NAMES]


def print_pass(results: List[Dict[str, Any]]) -> int:
    names = [r["workload"] for r in results]
    print(f"{'metric':<42}" + "".join(f"{n:>16}" for n in names))
    for section in ("end_to_end", "per_layer"):
        if results[0][section] is None:
            continue
        for metric in results[0][section]:
            print(f"{metric:<42}" + "".join(f"{r[section][metric]:>16.6g}" for r in results))
    for key in ("ops_attempted", "ops_failed"):
        print(f"{key:<42}" + "".join(f"{r[key]:>16}" for r in results))
    bad = [r for r in results if not r["correct"]]
    for r in bad:
        print(f"FAILED {r['workload']}: {'; '.join(r['problems'])}")
    return 1 if bad else 0


def noise(seed: int, seconds: float, passes: int, vary_seed: bool) -> int:
    import stats  # beside this script, so already importable

    with open(ROOT / "BENCHMARK.json") as fh:
        bounds = {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}
    values: Dict[str, Dict[str, List[float]]] = {w: {m: [] for m in bounds} for w in WORKLOAD_NAMES}
    status = 0
    for i in range(passes):
        for r in full_pass(seed + i if vary_seed else seed, seconds, trace=False):
            status |= 0 if r["correct"] else 1
            for metric, value in r["end_to_end"].items():
                values[r["workload"]][metric].append(value)
        print(f"pass {i + 1}/{passes} done", file=sys.stderr)
    print("| workload | metric | median | q1 | q3 | IQR/median | max dev/median | bound |")
    print("|---|---|---|---|---|---|---|---|")
    for workload in WORKLOAD_NAMES:
        for metric, bound in bounds.items():
            s = stats.spread_summary(values[workload][metric])
            print(f"| {workload} | {metric} | {s['median']:.6g} | {s['q1']:.6g} | {s['q3']:.6g} "
                  f"| {s['iqr_over_median']:.4f} | {s['max_dev_over_median']:.4f} | {bound} |")
    return status


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("mode", nargs="?", choices=("run", "noise"), default="run")
    ap.add_argument("--workload", choices=WORKLOAD_NAMES, help="one workload, in this process")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0, help="measuring time per workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=None,
                    help="1 adds the traced pass (default: 1 for the full pass, 0 for one workload)")
    ap.add_argument("--passes", type=int, default=5, help="noise mode: full passes to run")
    ap.add_argument("--vary-seed", action="store_true", help="noise mode: pass i uses seed+i")
    args = ap.parse_args(argv)
    if args.mode == "noise":
        return noise(args.seed, args.seconds, args.passes, args.vary_seed)
    if args.workload is not None:
        return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    return print_pass(full_pass(args.seed, args.seconds, args.trace != 0))


if __name__ == "__main__":
    sys.exit(main())
