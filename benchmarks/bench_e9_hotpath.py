"""E9 — the telemetry overhead gate (DESIGN.md §12.2).

Two runs of one deterministic cell, measured within one process:

* **macro** — an E2-style 48-site RTDS run at rho 0.7 for 3 000 time
  units, field for field the e2e workload ``steady48``;
* **macro_obs** — the identical cell with ``telemetry=True``.

DESIGN.md's contract says telemetry on costs < 10% macro throughput.
The e2e harness (``benchmarks/e2e``) cannot hold it, because it always
runs with telemetry off; its ``steady48`` workload is where macro
throughput regressions are gated. This script compares macro_obs against
macro *within the same run* (same machine, same thermal state), so it
needs no committed baseline.

Usage::

    PYTHONPATH=src python benchmarks/bench_e9_hotpath.py            # report
    PYTHONPATH=src python benchmarks/bench_e9_hotpath.py --check    # exit 1 below 0.9
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Dict

from repro.experiments.runner import ExperimentConfig, run_experiment

MACRO_CONFIG = dict(
    topology="erdos_renyi",
    topology_kwargs={"n": 48, "p": 4.0 / 47, "delay_range": (0.2, 1.0)},
    duration=3000.0,
    rho=0.7,
    seed=0,
)


def run_macro(telemetry: bool = False) -> Dict[str, float]:
    """One macro run; events/sec over the whole ``run_experiment`` wall."""
    cfg = ExperimentConfig(**MACRO_CONFIG, telemetry=telemetry)
    t0 = time.perf_counter()
    res = run_experiment(cfg)
    wall = time.perf_counter() - t0
    events = res.network.sim.events_processed
    return {"events": float(events), "wall_seconds": wall, "events_per_sec": events / wall}


def measure(reps: int = 3) -> Dict[str, Dict[str, float]]:
    """Best-of-``reps`` macro and macro_obs, their reps *interleaved*.

    Machine speed drifts over a multi-second benchmark (thermal state,
    noisy neighbours), so a best-of-N macro taken early against a
    best-of-N macro_obs taken later overstates the overhead. Each round
    runs the pair back to back. Noise only ever *adds* wall time, so the
    gate keeps the cleaner of two estimators: the best single round's
    ratio and best-vs-best (``macro_obs["paired_throughput_ratio"]``).
    """
    macro: Dict[str, float] = {}
    obs: Dict[str, float] = {}
    best_pair = 0.0
    for _ in range(reps):
        m = run_macro()
        o = run_macro(telemetry=True)
        if not macro or m["wall_seconds"] < macro["wall_seconds"]:
            macro = m
        if not obs or o["wall_seconds"] < obs["wall_seconds"]:
            obs = o
        best_pair = max(best_pair, o["events_per_sec"] / m["events_per_sec"])
    obs = dict(obs)
    obs["paired_throughput_ratio"] = max(
        best_pair, obs["events_per_sec"] / macro["events_per_sec"]
    )
    return {"macro": macro, "macro_obs": obs}


def render(results: Dict[str, Dict[str, float]]) -> str:
    lines = ["scenario   events      wall(s)   events/sec"]
    for name, r in results.items():
        lines.append(
            f"{name:<9}  {int(r['events']):>9}  {r['wall_seconds']:>8.3f}  {r['events_per_sec']:>10.0f}"
        )
    lines.append(f"macro_obs / macro (paired): {results['macro_obs']['paired_throughput_ratio']:.1%}")
    return "\n".join(lines)


def check_overhead(results: Dict[str, Dict[str, float]], obs_tolerance: float) -> int:
    """0 if macro_obs reaches ``obs_tolerance`` of the paired macro, else 1."""
    ratio = results["macro_obs"]["paired_throughput_ratio"]
    if ratio < obs_tolerance:
        print(
            f"OBS OVERHEAD: macro_obs reaches only {ratio:.1%} of the paired "
            f"macro throughput (contract: >= {obs_tolerance:.0%})",
            file=sys.stderr,
        )
        return 1
    print(f"obs ok: macro_obs at {ratio:.1%} of paired macro throughput (contract: >= {obs_tolerance:.0%})")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "--check", action="store_true",
        help="exit 1 when macro_obs falls below --obs-tolerance of the paired macro",
    )
    parser.add_argument(
        "--obs-tolerance", type=float, default=0.9, dest="obs_tolerance",
        help="macro_obs must reach this fraction of the same run's macro "
        "events/sec (the <10%% telemetry overhead contract)",
    )
    parser.add_argument("--reps", type=int, default=3)
    args = parser.parse_args(argv)
    results = measure(args.reps)
    print(render(results))
    return check_overhead(results, args.obs_tolerance) if args.check else 0


if __name__ == "__main__":
    sys.exit(main())
