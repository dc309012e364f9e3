"""The sharded run coordinator: conservative time-window PDES.

:func:`run_sharded` is what
:func:`repro.experiments.runner.run_experiment` dispatches sharded configs
to: it resolves the topology as every run does
(:func:`~repro.experiments.runner.resolve_topology`), partitions it
(:mod:`~repro.simnet.sharded.partition`), spawns one worker process per
shard and drives the classic conservative window loop:

1. ``g`` = the global minimum of every shard's next event time and every
   undelivered cross-shard arrival;
2. the window closes at ``W = min(g + lookahead, horizon)`` — any message
   sent at ``t >= g`` over a cut edge arrives at
   ``t + delay >= g + lookahead >= W``, so no event inside the window can
   be invalidated by one outside it;
3. every shard delivers its inbox, runs to ``W`` inclusive, and returns
   its outbox + next event time; repeat until ``g`` passes the horizon.

Determinism contract: on *partition-friendly* cells — continuous link
delay ranges, so no two events on different shards share an exact float
timestamp — the merged result is bit-identical to the single-process run
(``tests/sharded/`` holds the differential). Grids with a constant delay
are the canonical counter-example: every arrival ties and the
cross-shard interleave is unspecified.

The merged :class:`~repro.experiments.runner.RunResult` is read off a
site-less ``ResidentNetwork`` over the merged collector and a real
:class:`~repro.simnet.network.Network` shim (merged message stats, an
engine with summed event counts) so downstream consumers —
``run_cell``'s obs snapshot, ``fault_report`` — work unchanged.
"""

from __future__ import annotations

import math
import multiprocessing
from collections import Counter
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import SimulationError
from repro.experiments.runner import (
    ExperimentConfig,
    ResidentNetwork,
    RunResult,
    _record_cache_gauges,
    _record_run_telemetry,
    resolve_topology,
)
from repro.metrics.collector import MetricsCollector
from repro.simnet.engine import Simulator
from repro.simnet.network import Network
from repro.simnet.sharded.partition import partition_topology
from repro.simnet.sharded.worker import shard_worker_main
from repro.simnet.trace import Tracer


@dataclass(frozen=True)
class ShardRunInfo:
    """How a sharded run was cut and how the window loop behaved."""

    n_shards: int
    lookahead: float
    n_cut_edges: int
    #: synchronization rounds the coordinator drove
    barriers: int
    part_sizes: Tuple[int, ...]
    events_per_shard: Tuple[int, ...]
    wall_per_shard: Tuple[float, ...]


def _recv_checked(conn, shard_id: int, window_end: Optional[float] = None):
    """Receive one protocol message, surfacing worker tracebacks — and a
    worker that died without sending one (killed, out of memory)."""
    try:
        msg = conn.recv()
    except (EOFError, ConnectionError) as exc:
        raise SimulationError(
            f"shard {shard_id} worker died without a report "
            f"({type(exc).__name__}); last window_end sent: {window_end}"
        ) from exc
    if msg[0] == "error":
        raise SimulationError(f"shard {shard_id} worker failed:\n{msg[1]}")
    return msg


def _merge_collectors(blobs: List[Dict[str, Any]]) -> MetricsCollector:
    """Rebuild the single-run collector view from per-shard blobs.

    Records are origin-owned (each job registers on exactly one shard);
    orphan completions — tasks hosted away from their job's origin shard
    — are applied to the merged record afterwards, reproducing what the
    one shared collector would have seen.
    """
    merged = MetricsCollector()
    for blob in blobs:
        for rec in blob["records"]:
            if rec.job in merged.jobs:
                raise SimulationError(f"job {rec.job} recorded on two shards")
            merged.jobs[rec.job] = rec
        merged.protocol_events.update(blob["protocol_events"])
    for blob in blobs:
        for job, task, time in blob["orphans"]:
            rec = merged.jobs.get(job)
            if rec is None:
                raise SimulationError(f"completion for unknown job {job}")
            if task in rec.completions:
                raise SimulationError(f"job {job} task {task!r} completed twice")
            rec.completions[task] = time
    return merged


def _merge_stats_into(net: Network, blobs: List[Dict[str, Any]]) -> None:
    """Fold every shard's exact MessageStats into the parent network's."""
    stats = net.stats
    for blob in blobs:
        count, volume, total, total_volume = blob["stats"]
        for mtype, n in count.items():
            stats.count[mtype] += n
        for mtype, vol in volume.items():
            stats.volume[mtype] += vol
        stats.total += total
        stats.total_volume += total_volume


def _merge_telemetry(config, blobs: List[Dict[str, Any]], merged: MetricsCollector,
                     sim: Simulator, net: Network):
    """One registry from every shard's blob + the standard run-end fold.

    Counters sum; timers merge exactly (count/total/min/max) with
    reservoirs concatenated up to capacity; spans concatenate; per-shard
    gauges keep their provenance under a ``shard<k>.`` prefix. The
    parent then folds message stats, execute spans and run gauges through
    the same ``_record_run_telemetry`` the single-process path uses, plus
    the summed admission-cache stats the parent network does not carry.
    """
    from repro.obs import Telemetry

    obs = Telemetry(enabled=True, seed=config.seed)
    for k, blob in enumerate(blobs):
        tel = blob["telemetry"]
        if tel is None:
            continue
        for name, value in tel["counters"].items():
            obs.inc(name, value)
        for name, value in tel["gauges"].items():
            obs.gauge(f"shard{k}.{name}", value)
        for name, (count, total, mn, mx, samples) in tel["timers"].items():
            timer = obs.timer(name)
            timer.count += count
            timer.total += total
            timer.min = min(timer.min, mn)
            timer.max = max(timer.max, mx)
            room = timer.capacity - len(timer._sample)
            if room > 0:
                timer._sample.extend(samples[:room])
        obs.spans.extend(tel["spans"])
    _record_run_telemetry(obs, merged, sim, 0.0, net)
    cache_totals: Counter = Counter()
    for blob in blobs:
        cache_totals.update(blob["cache_stats"] or {})
    if cache_totals:
        _record_cache_gauges(obs, cache_totals)
    obs.sample_rss()
    return obs


def run_sharded(config: ExperimentConfig) -> RunResult:
    """Run one experiment on the sharded engine; see the module docstring."""
    topo = resolve_topology(config)
    plan = partition_topology(topo, config.shards)

    ctx = multiprocessing.get_context()
    conns = []
    procs = []
    try:
        for shard_id in range(plan.n_shards):
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=shard_worker_main,
                args=(child_conn, config, topo, plan, shard_id),
                daemon=False,
                name=f"rtds-shard-{shard_id}",
            )
            proc.start()
            child_conn.close()
            conns.append(parent_conn)
            procs.append(proc)

        next_times: List[float] = []
        horizons = []
        for shard_id, conn in enumerate(conns):
            _tag, next_time, horizon = _recv_checked(conn, shard_id)
            next_times.append(math.inf if next_time is None else next_time)
            horizons.append(horizon)
        if len(set(horizons)) != 1:  # pragma: no cover - workloads are seeded
            raise SimulationError(f"shards disagree on the horizon: {horizons}")
        horizon = horizons[0]

        pending: List[List[tuple]] = [[] for _ in range(plan.n_shards)]
        barriers = 0
        window_end = None
        while True:
            g = min(next_times)
            for inbox in pending:
                for wire in inbox:
                    if wire[0] < g:
                        g = wire[0]
            if g > horizon:
                break
            window_end = min(g + plan.lookahead, horizon)
            for shard_id, conn in enumerate(conns):
                conn.send(("window", window_end, pending[shard_id]))
                pending[shard_id] = []
            for shard_id, conn in enumerate(conns):
                _tag, outbox, next_time = _recv_checked(conn, shard_id, window_end)
                next_times[shard_id] = math.inf if next_time is None else next_time
                for wire in outbox:
                    pending[plan.assignment[wire[1]]].append(wire)
            barriers += 1

        blobs = []
        for conn in conns:
            conn.send(("finish",))
        for shard_id, conn in enumerate(conns):
            _tag, blob = _recv_checked(conn, shard_id, window_end)
            blobs.append(blob)
    except BaseException:
        # the run is lost; a surviving worker would sit in recv() for the
        # whole join timeout (under fork its own process keeps the far end
        # of its pipe open, so closing ours is no EOF to it)
        for proc in procs:
            proc.terminate()
        raise
    finally:
        for conn in conns:
            conn.close()
        for proc in procs:
            proc.join(timeout=30)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
                proc.join(timeout=5)

    merged = _merge_collectors(blobs)
    sim = Simulator()
    sim._now = horizon
    sim.events_processed = sum(b["events_processed"] for b in blobs)
    sim.wall_seconds = max(b["wall_seconds"] for b in blobs)
    tracer = Tracer(enabled=False)
    net = Network(sim, tracer)
    _merge_stats_into(net, blobs)

    obs = None
    if config.telemetry:
        obs = _merge_telemetry(config, blobs, merged, sim, net)

    sharding = ShardRunInfo(
        n_shards=plan.n_shards,
        lookahead=plan.lookahead,
        n_cut_edges=len(plan.cut_edges),
        barriers=barriers,
        part_sizes=tuple(len(p) for p in plan.parts),
        events_per_shard=tuple(b["events_processed"] for b in blobs),
        wall_per_shard=tuple(b["wall_seconds"] for b in blobs),
    )
    merged_view = ResidentNetwork(
        config=config,
        topology=topo,
        sim=sim,
        tracer=tracer,
        metrics=merged,
        network=net,
        sites=[],
        setup_messages=0,
        setup_time=0.0,
        obs=obs,
    )
    return merged_view.result(workload=None, sharding=sharding)
