"""One shard's process: engine, owned sites, boundary links, marshalling.

Each worker owns a contiguous slice of the partition and is the normal
builder with three substitutions: it calls the runner's
:func:`~repro.experiments.runner.assemble` with a :class:`ShardNetwork`
holding only the owned sites plus **boundary links** (far endpoint on
another shard, so adjacency and delay arithmetic stay bit-identical), a
:class:`ShardCollector`, and its closure's
:class:`~repro.simnet.sharded.tables.ShardTables` for oracle routing.

Cross-shard traffic is marshalled as compact tuples
``(arrival, dst, mtype, src, origin, final_dst, payload, size, hops, uid)``
— the sender runs the *entire* single-process ``Network.transmit`` hot
path (stats accounting, FIFO clamp, arrival arithmetic) and ships the
finished arrival time; the receiver merely schedules the rebuilt
:class:`~repro.simnet.message.Message` at that time. Per-direction FIFO
clamp state lives wholly on the sending shard, so the clamp behaves
exactly as in one process.

The command protocol with the coordinator is a conservative time-window
loop (DESIGN.md §16): ``("window", W, inbox)`` → deliver inbox, run to
``W`` inclusive, reply ``("ok", outbox, next_event_time)``;
``("finish", horizon)`` → run to the horizon for clock parity and reply
the shard's result blob (job records, orphan completions, message stats,
engine counters, optional telemetry).
"""

from __future__ import annotations

import gc
import traceback
from typing import Any, Dict, List, Optional, Tuple

from repro.experiments.runner import _generate_batch_workload, assemble
from repro.metrics.collector import MetricsCollector
from repro.simnet.engine import PRIORITY_DELIVERY, Simulator
from repro.simnet.message import Message
from repro.simnet.network import Network
from repro.simnet.sharded.tables import shard_tables
from repro.simnet.topology import Topology

#: the compact cross-shard wire tuple (see module docstring)
WireMessage = Tuple[float, int, str, int, Optional[int], Optional[int], Any, float, int, int]


class ShardCollector(MetricsCollector):
    """Collector that stashes completions of jobs owned by other shards.

    A task hosted here for a job admitted on another shard completes on
    this engine; the base collector would silently drop it (no record).
    Stash it instead — the coordinator applies orphans to the origin
    shard's record at merge time, reproducing the single-collector view.
    """

    def __init__(self) -> None:
        super().__init__()
        #: ``(job, task, time)`` completions with no local record
        self.orphan_completions: List[Tuple[int, Any, float]] = []

    def on_task_complete(self, job, task, time) -> None:
        """Record locally when the job is ours, stash otherwise."""
        if job in self.jobs:
            super().on_task_complete(job, task, time)
        else:
            self.orphan_completions.append((job, task, time))


class ShardNetwork(Network):
    """A :class:`Network` whose remote deliveries land in an outbox.

    :meth:`Network.transmit` runs unchanged for every destination; for a
    non-resident one its final heap push is replaced by a wire tuple
    appended to :attr:`outbox`.
    """

    def __init__(self, sim: Simulator, tracer=None, obs=None) -> None:
        super().__init__(sim, tracer, obs)
        self.outbox: List[WireMessage] = []

    def add_link(self, u, v, delay, throughput=None):
        """Take one link of the whole topology, as seen from this shard.

        One endpoint resident makes it a **boundary link**: it enters
        ``_adj`` (so ``neighbors()`` and the transmit lookup see it) but
        the remote side has no receiver. Neither resident: ignored.
        """
        n_resident = (u in self._sites) + (v in self._sites)
        if n_resident == 0:
            return None
        if n_resident == 1:
            self._adj.setdefault(u, {})
            self._adj.setdefault(v, {})
        return self._register_link(u, v, delay, throughput)

    def _deliver_remote(self, msg: Message, arrival: float) -> None:
        """Marshal a cross-cut transmission into the outbox."""
        self.outbox.append(
            (arrival, msg.dst, msg.mtype, msg.src, msg.origin, msg.final_dst,
             msg.payload, msg.size, msg.hops, msg.uid)
        )

    def deliver_wire(self, wire: WireMessage) -> None:
        """Schedule one marshalled cross-shard delivery on this engine."""
        arrival, dst, mtype, src, origin, final_dst, payload, size, hops, uid = wire
        msg = Message(mtype, src, dst, origin, final_dst, payload, size, hops, uid)
        self.sim.schedule_call_at(arrival, self._receivers[dst], msg, PRIORITY_DELIVERY)


def _telemetry_blob(obs) -> Optional[Dict[str, Any]]:
    """A picklable snapshot of one shard's telemetry registry.

    Ships plain dicts/lists instead of the live :class:`Telemetry`
    (reservoir timers hold a bound RNG method — not worth pickling).
    """
    if obs is None:
        return None
    return {
        "counters": dict(obs.counters),
        "gauges": dict(obs.gauges),
        "timers": {
            name: (t.count, t.total, t.min, t.max, list(t._sample))
            for name, t in obs.timers.items()
        },
        "spans": list(obs.spans),
    }


def _shard_result(resident) -> Dict[str, Any]:
    """The end-of-run blob one worker ships back to the coordinator."""
    sim, net, metrics = resident.sim, resident.network, resident.metrics
    cache = getattr(net, "admission_cache", None)
    return {
        "records": metrics.records(),
        "orphans": metrics.orphan_completions,
        "protocol_events": metrics.protocol_events,
        "stats": (dict(net.stats.count), dict(net.stats.volume),
                  net.stats.total, net.stats.total_volume),
        "events_processed": sim.events_processed,
        "wall_seconds": sim.wall_seconds,
        "cache_stats": cache.stats() if cache is not None else None,
        "telemetry": _telemetry_blob(resident.obs),
    }


def _run_shard(conn, config, topo: Topology, plan, shard_id: int) -> None:
    """The worker body: build, schedule, then serve the window protocol.

    Every worker regenerates the identical seeded workload and schedules
    only the jobs originating on its own sites."""
    gc.disable()  # same policy as the runner's _gc_paused, for the process's life
    owned = plan.parts[shard_id]
    resident = assemble(
        config,
        topo,
        network_cls=ShardNetwork,
        metrics=ShardCollector(),
        site_ids=owned,
        solve_tables=lambda phases: shard_tables(topo, owned, phases),
    )
    horizon = resident.schedule_workload(
        _generate_batch_workload(config, resident), origins=frozenset(owned)
    )
    sim, net = resident.sim, resident.network
    conn.send(("ready", sim.peek_next_time(), horizon))
    while True:
        cmd = conn.recv()
        op = cmd[0]
        if op == "window":
            _op, window_end, inbox = cmd
            for wire in inbox:
                net.deliver_wire(wire)
            sim.run(until=window_end)
            outbox = net.outbox
            net.outbox = []
            conn.send(("ok", outbox, sim.peek_next_time()))
        elif op == "finish":
            resident.run_to_horizon()
            if net.outbox:  # pragma: no cover - the window loop drains first
                raise RuntimeError(f"shard {shard_id}: undelivered outbox at finish")
            conn.send(("done", _shard_result(resident)))
            return
        else:  # pragma: no cover - protocol misuse
            raise RuntimeError(f"shard {shard_id}: unknown command {op!r}")


def shard_worker_main(conn, config, topo: Topology, plan, shard_id: int) -> None:
    """Process entry point: run the shard, report any crash over the pipe."""
    try:
        _run_shard(conn, config, topo, plan, shard_id)
    except BaseException:
        try:
            conn.send(("error", traceback.format_exc()))
        except (BrokenPipeError, OSError):  # pragma: no cover - parent died
            pass
    finally:
        conn.close()
