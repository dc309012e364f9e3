"""E10 — wide-network scale-out (the 1000-site workload and its perf gate).

Two measurements, both fully deterministic:

* **cells** — full E10 campaign cells (`repro.experiments.widenet`):
  seeded RTDS runs on 256/512/1024-site random-geometric and
  Barabási–Albert topologies with the oracle routing back end, reporting
  guarantee ratio, job count, end-to-end wall seconds and process peak
  RSS (``ru_maxrss``; monotone per process, so cells run in ascending
  size order and the number after the largest cell is the campaign's
  true peak).
* **setup** — routing+PCS construction only, measured twice on the
  ``--speedup-size`` (default 512) network of each family:

  - *reference*: the pre-PR path verbatim — adjacency dicts, pure-Python
    ``hop_diameter`` (the runner used to compute it for every algorithm,
    RTDS included), the simulated phased Bellman–Ford, dict-walking PCS
    construction;
  - *vectorized*: the oracle path — ``weight_matrix`` +
    ``phased_tables`` + lazy row-view install + sparse PCS.

  Per-family ratios are reported; the **speedup gate** is the combined
  ratio (sum of reference setups over sum of vectorized setups across
  the measured families — the setup cost an E10 campaign actually
  pays at that size). ``--check BENCH_e10.json`` fails when the
  combined speedup drops below ``min_speedup`` (default 5.0), or when
  a cell's guarantee ratio drifts from the baseline by more than
  ``--gr-tolerance``.

Standalone (CI) usage::

    PYTHONPATH=src python benchmarks/bench_e10_widenet.py --out BENCH_e10.json
    PYTHONPATH=src python benchmarks/bench_e10_widenet.py \
        --sizes 256,512 --check BENCH_e10.json

Under pytest (``pytest benchmarks/ --benchmark-only``) a 256-site smoke
subset runs once and the table lands in ``benchmarks/results/``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time
from typing import Dict, List, Optional

import numpy as np

from repro.core.config import RTDSConfig
from repro.core.rtds import RTDSSite
from repro.experiments.runner import run_experiment
from repro.experiments.widenet import E10_KINDS, widenet_config, widenet_topology
from repro.obs.telemetry import rss_mb
from repro.routing.oracle import oracle_routing_factory
from repro.routing.reference import hop_diameter
from repro.routing.vectorized import phased_tables, weight_matrix
from repro.simnet.engine import Simulator
from repro.simnet.topology import build_network, topology_factory
from repro.simnet.trace import Tracer

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

DEFAULT_SIZES = (256, 512, 1024)
SPEEDUP_SIZE = 512


def run_cell(kind: str, n: int, seed: int = 0) -> Dict[str, float]:
    """One full E10 cell: oracle-routing RTDS run, end to end."""
    cfg = widenet_config(kind, n, seed=seed)
    t0 = time.perf_counter()
    res = run_experiment(cfg)
    wall = time.perf_counter() - t0
    return {
        "sites": float(n),
        "jobs": float(res.summary.n_jobs),
        "guarantee_ratio": res.summary.guarantee_ratio,
        "messages_per_job": res.summary.messages_per_job,
        "wall_seconds": wall,
        "peak_rss_mb": rss_mb(),
    }


def _build_topology(kind: str, n: int, seed: int = 0):
    name, kwargs = widenet_topology(kind, n)
    return topology_factory(name, rng=np.random.default_rng(seed), **kwargs)


def setup_reference(kind: str, n: int, seed: int = 0) -> float:
    """Routing+PCS setup wall seconds, the pre-PR way.

    Replicates what ``run_experiment`` did for an RTDS run before the
    scale-out PR: build adjacency dicts, compute the hop diameter with
    the per-source pure-Python BFS (the runner evaluated it regardless
    of algorithm), then simulate the phased Bellman–Ford to completion —
    every site deriving its PCS from its own dict-based table.
    """
    topo = _build_topology(kind, n, seed)
    cfg = RTDSConfig()
    t0 = time.perf_counter()
    adj = topo.adjacency()
    max(1, hop_diameter(adj))  # the pre-PR runner computed this unconditionally
    sim = Simulator()
    net = build_network(topo, sim, lambda sid, nn: RTDSSite(sid, nn, cfg), Tracer(enabled=False))
    for sid in net.site_ids():
        net.site(sid).start()
    sim.run()
    wall = time.perf_counter() - t0
    assert all(net.site(s).routing.done and net.site(s).pcs is not None for s in net.site_ids())
    return wall


def setup_vectorized(kind: str, n: int, seed: int = 0) -> float:
    """Routing+PCS setup wall seconds through the oracle back end."""
    topo = _build_topology(kind, n, seed)
    cfg = RTDSConfig()
    t0 = time.perf_counter()
    W = weight_matrix(topo)
    factory = oracle_routing_factory({cfg.pcs_phases: phased_tables(W, cfg.pcs_phases)})
    sim = Simulator()
    net = build_network(
        topo, sim,
        lambda sid, nn: RTDSSite(sid, nn, cfg, routing_factory=factory),
        Tracer(enabled=False),
    )
    for sid in net.site_ids():
        net.site(sid).start()
    sim.run()
    wall = time.perf_counter() - t0
    assert all(net.site(s).routing.done and net.site(s).pcs is not None for s in net.site_ids())
    return wall


def measure_setup(kind: str, n: int, reps: int) -> Dict[str, float]:
    """Best-of-``reps`` reference vs vectorized setup and their ratio."""
    ref = min(setup_reference(kind, n) for _ in range(reps))
    vec = min(setup_vectorized(kind, n) for _ in range(reps))
    return {
        "sites": float(n),
        "reference_seconds": ref,
        "vectorized_seconds": vec,
        "speedup": ref / vec,
    }


def measure(
    sizes=DEFAULT_SIZES,
    kinds=E10_KINDS,
    reps: int = 2,
    speedup_size: Optional[int] = SPEEDUP_SIZE,
) -> Dict[str, Dict]:
    """The full E10 measurement: cells (ascending size) + setup speedups."""
    cells: Dict[str, Dict[str, float]] = {}
    for n in sorted(sizes):
        for kind in kinds:
            cells[f"{kind}-{n}"] = run_cell(kind, n)
    setup: Dict[str, Dict[str, float]] = {}
    if speedup_size is not None:
        for kind in kinds:
            setup[kind] = measure_setup(kind, speedup_size, reps)
        ref = sum(s["reference_seconds"] for s in setup.values())
        vec = sum(s["vectorized_seconds"] for s in setup.values())
        setup["combined"] = {
            "sites": float(speedup_size),
            "reference_seconds": ref,
            "vectorized_seconds": vec,
            "speedup": ref / vec,
        }
    return {"cells": cells, "setup": setup}


def render(results: Dict[str, Dict]) -> str:
    """Human-readable tables of one measurement."""
    lines = ["cell                     jobs    GR      msg/job   wall(s)  peakRSS(MB)"]
    for name, c in results["cells"].items():
        lines.append(
            f"{name:<22} {int(c['jobs']):>6}  {c['guarantee_ratio']:.4f}  "
            f"{c['messages_per_job']:>7.2f}  {c['wall_seconds']:>7.2f}  {c['peak_rss_mb']:>10.1f}"
        )
    if results["setup"]:
        lines.append("")
        lines.append("setup (routing+PCS)      reference(s)  vectorized(s)  speedup")
        for kind, s in results["setup"].items():
            lines.append(
                f"{kind + '-' + str(int(s['sites'])):<22} {s['reference_seconds']:>11.3f}  "
                f"{s['vectorized_seconds']:>12.3f}  {s['speedup']:>6.1f}x"
            )
    return "\n".join(lines)


def check_regression(
    results: Dict[str, Dict],
    baseline_path: pathlib.Path,
    min_speedup: float,
    gr_tolerance: float,
) -> int:
    """Gate the measurement against the committed baseline.

    Fails (returns 1) when the combined setup speedup (both families
    summed) is below ``min_speedup`` (from the baseline's ``gate``
    unless overridden) or a cell's guarantee ratio drifts beyond
    ``gr_tolerance`` from the baseline value — determinism erosion, not
    noise, is what that catches (the workload is seeded; wall times are
    machine-dependent and never gated).
    """
    baseline = json.loads(baseline_path.read_text())
    floor = min_speedup if min_speedup > 0 else float(baseline["gate"]["min_speedup"])
    failures: List[str] = []
    combined = results["setup"].get("combined")
    if combined is not None and combined["speedup"] < floor:
        failures.append(
            f"combined setup speedup at {int(combined['sites'])} sites: "
            f"{combined['speedup']:.1f}x < {floor:.1f}x"
        )
    base_cells = baseline["scenarios"]["cells"]
    for name, c in results["cells"].items():
        if name in base_cells:
            drift = abs(c["guarantee_ratio"] - base_cells[name]["guarantee_ratio"])
            if drift > gr_tolerance:
                failures.append(
                    f"cell {name}: GR {c['guarantee_ratio']:.4f} vs baseline "
                    f"{base_cells[name]['guarantee_ratio']:.4f} (drift {drift:.4f})"
                )
    if failures:
        for f in failures:
            print(f"E10 REGRESSION: {f}", file=sys.stderr)
        return 1
    speedups = ", ".join(
        f"{kind} {s['speedup']:.1f}x" for kind, s in results["setup"].items()
    )
    print(f"e10 ok: setup speedups [{speedups}], combined >= {floor:.1f}x; GR within {gr_tolerance}")
    return 0


def write_json(results: Dict[str, Dict], path: pathlib.Path, min_speedup: float) -> None:
    """Persist one measurement as the committed-baseline JSON shape.

    ``gate.min_speedup`` in the written file is what future ``--check``
    runs enforce by default; a zero/unset override records the standard
    5.0 floor rather than disabling the gate.
    """
    path.write_text(
        json.dumps(
            {
                "bench": "e10_widenet",
                "gate": {
                    "min_speedup": min_speedup if min_speedup > 0 else 5.0,
                    "speedup_size": SPEEDUP_SIZE,
                },
                "scenarios": results,
            },
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )


# -- pytest entry point ------------------------------------------------------


def test_e10_widenet(benchmark, emit):
    """256-site smoke subset: one cell per family + the setup speedup."""
    from benchmarks.conftest import once

    results = once(
        benchmark, measure, sizes=(256,), reps=1, speedup_size=256
    )
    emit("e10_widenet", render(results))
    for name, cell in results["cells"].items():
        assert cell["guarantee_ratio"] > 0.5, name
    # sanity floor, not the perf gate (that is --check against the baseline)
    assert results["setup"]["combined"]["speedup"] > 1.0


def main(argv=None) -> int:
    """CLI entry: measure, render, optionally write/gate the baseline."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--sizes", default=None, help="cell sizes, e.g. 256,512,1024")
    parser.add_argument("--kinds", default=None, help="families, e.g. geometric,barabasi_albert")
    parser.add_argument("--reps", type=int, default=2, help="best-of reps for setup timings")
    parser.add_argument(
        "--speedup-size", type=int, default=SPEEDUP_SIZE,
        help="network size of the setup speedup measurement (0 disables)",
    )
    parser.add_argument("--out", type=pathlib.Path, default=None, help="write BENCH_e10.json here")
    parser.add_argument(
        "--check", type=pathlib.Path, default=None,
        help="baseline BENCH_e10.json to gate against",
    )
    parser.add_argument(
        "--min-speedup", type=float, default=0.0,
        help="setup speedup floor; 0 (default) takes gate.min_speedup from "
        "the --check baseline, and --out records 5.0",
    )
    parser.add_argument("--gr-tolerance", type=float, default=0.05)
    args = parser.parse_args(argv)
    sizes = tuple(int(x) for x in args.sizes.split(",")) if args.sizes else DEFAULT_SIZES
    kinds = tuple(args.kinds.split(",")) if args.kinds else E10_KINDS
    speedup_size = args.speedup_size if args.speedup_size > 0 else None
    results = measure(sizes=sizes, kinds=kinds, reps=args.reps, speedup_size=speedup_size)
    print(render(results))
    if args.out is not None:
        write_json(results, args.out, args.min_speedup)
        print(f"wrote {args.out}")
    if args.check is not None:
        return check_regression(results, args.check, args.min_speedup, args.gr_tolerance)
    return 0


if __name__ == "__main__":
    sys.exit(main())
