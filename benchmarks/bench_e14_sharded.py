"""E14 — sharded multi-process PDES engine (exactness + wall/RSS budget gates).

Three measurements:

* **differential** — one partition-friendly grid cell run twice, single
  process vs ``shards=N``: the gate is *exactness*, every
  ``scalar_metrics`` value and the transmission total must match bit for
  bit (wall time is reported, never gated — this cell is small enough
  that process spawn + window barriers usually *lose* to one process).
* **speedup** — a 1024-site grid (32×32, continuous delays, the E10
  WIDENET workload shape) measured single vs sharded: exactness is
  gated here too, the wall-clock ratio is reported with the core count
  and never gated (the former ``>= 2.0x`` gate armed only on >= 4
  cores, which no machine that runs this file has — see DESIGN.md §16).
* **tenk** (``--tenk``, nightly) — a 10 000-site grid (100×100) through
  the sharded engine only, gated on absolute budget: wall seconds and
  coordinator peak RSS below the baseline's recorded ceilings. The
  single-process twin at this size is too slow for CI and is not run.

Standalone (CI) usage::

    PYTHONPATH=src python benchmarks/bench_e14_sharded.py --out BENCH_e14.json
    PYTHONPATH=src python benchmarks/bench_e14_sharded.py --check BENCH_e14.json
    PYTHONPATH=src python benchmarks/bench_e14_sharded.py --tenk --check BENCH_e14.json

Under pytest (``pytest benchmarks/ --benchmark-only``) the differential
plus a small speedup probe run once; the 10k cell is nightly-only.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
import time
from dataclasses import replace
from typing import Dict, List

from repro.experiments.runner import ExperimentConfig, run_experiment
from repro.metrics.summary import scalars_equal
from repro.obs.telemetry import rss_mb
from repro.workloads.scenarios import widenet_workload_defaults

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

DEFAULT_SHARDS = 4
#: absolute nightly budget of the 10k-site cell (sharded engine, 4 shards)
TENK_WALL_BUDGET_S = 900.0
TENK_RSS_BUDGET_MB = 4096.0


def grid_config(rows: int, cols: int, seed: int = 0) -> ExperimentConfig:
    """A partition-friendly grid cell: continuous delays, oracle routing,
    WIDENET workload shape (arrivals scale with site count)."""
    knobs = widenet_workload_defaults(rows * cols)
    return ExperimentConfig(
        topology="grid",
        topology_kwargs={"rows": rows, "cols": cols, "delay_range": (0.5, 1.0)},
        routing_mode="oracle",
        seed=seed,
        label=f"grid-{rows}x{cols}",
        **knobs,
    )


def _timed_run(cfg: ExperimentConfig):
    t0 = time.perf_counter()
    res = run_experiment(cfg)
    return res, time.perf_counter() - t0


def measure_differential(rows: int = 8, cols: int = 8, shards: int = 2) -> Dict[str, float]:
    """Single vs sharded on one cell; exactness is the scenario's result."""
    cfg = grid_config(rows, cols)
    single, wall_single = _timed_run(cfg)
    sharded, wall_sharded = _timed_run(
        replace(cfg, shards=shards)
    )
    exact = scalars_equal(single.scalar_metrics(), sharded.scalar_metrics())
    exact = exact and single.network.stats.total == sharded.network.stats.total
    return {
        "sites": float(rows * cols),
        "shards": float(shards),
        "jobs": float(single.summary.n_jobs),
        "guarantee_ratio": single.summary.guarantee_ratio,
        "exact_match": float(exact),
        "wall_single": wall_single,
        "wall_sharded": wall_sharded,
        "barriers": float(sharded.sharding.barriers),
        "cut_edges": float(sharded.sharding.n_cut_edges),
    }


def measure_speedup(
    rows: int = 32, cols: int = 32, shards: int = DEFAULT_SHARDS
) -> Dict[str, float]:
    """Wall-clock single vs sharded at scale (reported, not gated)."""
    cfg = grid_config(rows, cols)
    single, wall_single = _timed_run(cfg)
    sharded, wall_sharded = _timed_run(
        replace(cfg, shards=shards)
    )
    exact = scalars_equal(single.scalar_metrics(), sharded.scalar_metrics())
    return {
        "sites": float(rows * cols),
        "shards": float(shards),
        "jobs": float(single.summary.n_jobs),
        "guarantee_ratio": single.summary.guarantee_ratio,
        "exact_match": float(exact),
        "wall_single": wall_single,
        "wall_sharded": wall_sharded,
        "speedup": wall_single / wall_sharded,
        "cores": float(os.cpu_count() or 1),
    }


def measure_tenk(shards: int = DEFAULT_SHARDS) -> Dict[str, float]:
    """The 10 000-site nightly cell, sharded engine only."""
    cfg = grid_config(100, 100)
    sharded, wall = _timed_run(replace(cfg, shards=shards))
    return {
        "sites": 10000.0,
        "shards": float(shards),
        "jobs": float(sharded.summary.n_jobs),
        "guarantee_ratio": sharded.summary.guarantee_ratio,
        "wall_seconds": wall,
        "peak_rss_mb": rss_mb(children=True),
        "barriers": float(sharded.sharding.barriers),
        "max_shard_events": float(max(sharded.sharding.events_per_shard)),
    }


def measure(
    diff_rows: int = 8,
    speed_rows: int = 32,
    shards: int = DEFAULT_SHARDS,
    tenk: bool = False,
) -> Dict[str, Dict[str, float]]:
    """The E14 measurement: differential, scaled speedup, optional 10k."""
    results: Dict[str, Dict[str, float]] = {
        "differential": measure_differential(diff_rows, diff_rows, shards=2),
        "speedup": measure_speedup(speed_rows, speed_rows, shards=shards),
    }
    if tenk:
        results["tenk"] = measure_tenk(shards=shards)
    return results


def render(results: Dict[str, Dict[str, float]]) -> str:
    """Human-readable table of one measurement."""
    lines = [
        "scenario       sites  shards    GR     exact  wall-1p(s)  wall-Np(s)  speedup"
    ]
    for name, s in results.items():
        single = s.get("wall_single")
        shard_w = s.get("wall_sharded", s.get("wall_seconds"))
        ratio = (single / shard_w) if single else float("nan")
        lines.append(
            f"{name:<13} {int(s['sites']):>6}  {int(s['shards']):>5}  "
            f"{s['guarantee_ratio']:.4f}  {'yes' if s.get('exact_match') else ' - ':>5}  "
            f"{single if single is not None else float('nan'):>9.2f}  "
            f"{shard_w:>9.2f}  {ratio:>6.2f}x"
        )
    tenk = results.get("tenk")
    if tenk is not None:
        lines.append(
            f"tenk: {tenk['wall_seconds']:.1f}s wall, {tenk['peak_rss_mb']:.0f} MB peak RSS, "
            f"{int(tenk['barriers'])} barriers"
        )
    return "\n".join(lines)


def check_regression(
    results: Dict[str, Dict[str, float]], baseline_path: pathlib.Path
) -> int:
    """Gate the measurement against the committed baseline.

    Two independent gates: the differential and the 1024-site cell must
    be exact matches (always enforced — this is the engine's correctness
    contract, not a perf number), and a ``tenk`` scenario, when present,
    must stay inside the baseline's absolute wall/RSS budgets.
    """
    gate = json.loads(baseline_path.read_text())["gate"]
    failures: List[str] = []
    diff = results["differential"]
    if not diff["exact_match"]:
        failures.append(
            "differential: sharded scalar_metrics diverged from single-process"
        )
    speed = results.get("speedup")
    if speed is not None:
        if not speed["exact_match"]:
            failures.append("speedup cell: sharded results diverged at 1024 sites")
    tenk = results.get("tenk")
    if tenk is not None:
        wall_budget = float(gate.get("tenk_wall_budget_s", TENK_WALL_BUDGET_S))
        rss_budget = float(gate.get("tenk_rss_budget_mb", TENK_RSS_BUDGET_MB))
        if tenk["wall_seconds"] > wall_budget:
            failures.append(
                f"tenk wall {tenk['wall_seconds']:.1f}s > budget {wall_budget:.0f}s"
            )
        if tenk["peak_rss_mb"] > rss_budget:
            failures.append(
                f"tenk peak RSS {tenk['peak_rss_mb']:.0f} MB > budget {rss_budget:.0f} MB"
            )
    if failures:
        for f in failures:
            print(f"E14 REGRESSION: {f}", file=sys.stderr)
        return 1
    status = "exact"
    if speed is not None:
        status += f", speedup {speed['speedup']:.2f}x on {int(speed['cores'])} cores (not gated)"
    print(f"e14 ok: differential {status}")
    return 0


def write_json(results: Dict[str, Dict[str, float]], path: pathlib.Path) -> None:
    """Persist one measurement as the committed-baseline JSON shape."""
    path.write_text(
        json.dumps(
            {
                "bench": "e14_sharded",
                "gate": {
                    "tenk_wall_budget_s": TENK_WALL_BUDGET_S,
                    "tenk_rss_budget_mb": TENK_RSS_BUDGET_MB,
                },
                "scenarios": results,
            },
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )


# -- pytest entry point ------------------------------------------------------


def test_e14_sharded(benchmark, emit):
    """Differential + a 16×16 speedup probe (exactness at both sizes)."""
    from benchmarks.conftest import once

    results = once(benchmark, measure, diff_rows=6, speed_rows=16)
    emit("e14_sharded", render(results))
    assert results["differential"]["exact_match"] == 1.0
    assert results["speedup"]["exact_match"] == 1.0
    assert results["speedup"]["wall_sharded"] > 0


def main(argv=None) -> int:
    """CLI entry: measure, render, optionally write/gate the baseline."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument(
        "--shards", type=int, default=DEFAULT_SHARDS,
        help="worker-process count of the sharded runs",
    )
    parser.add_argument(
        "--diff-rows", type=int, default=8,
        help="grid edge of the differential cell (rows == cols)",
    )
    parser.add_argument(
        "--speed-rows", type=int, default=32,
        help="grid edge of the speedup cell (32 -> 1024 sites)",
    )
    parser.add_argument(
        "--tenk", action="store_true",
        help="also run the 10k-site nightly cell (sharded engine only)",
    )
    parser.add_argument("--out", type=pathlib.Path, default=None, help="write BENCH_e14.json here")
    parser.add_argument(
        "--check", type=pathlib.Path, default=None,
        help="baseline BENCH_e14.json to gate against",
    )
    args = parser.parse_args(argv)
    results = measure(
        diff_rows=args.diff_rows,
        speed_rows=args.speed_rows,
        shards=args.shards,
        tenk=args.tenk,
    )
    print(render(results))
    if args.out is not None:
        write_json(results, args.out)
        print(f"wrote {args.out}")
    if args.check is not None:
        return check_regression(results, args.check)
    return 0


if __name__ == "__main__":
    sys.exit(main())
