"""Post-run readers: a run's phase timeline and metrics, read off its trace.

A run has one instrument, the :class:`~repro.simnet.trace.Tracer`: every
phase boundary of the protocol (§8 enroll, §9 map, §10 validate, the
hardened rounds' retransmissions) is already a trace event. These readers
rebuild the telemetry view from that stream after the run, so the hot
path carries nothing but the tracer's ``trace_on`` guard:

* :func:`timeline` — the sim-time phase spans of every job, on the
  initiator's lane: ``phase.enroll`` (``acs.enroll`` → ``map.done``),
  ``phase.map`` (``map.done`` → ``validate.self``), ``phase.validate``
  (``validate.self`` → ``validate.ok``/``validate.fail``),
  zero-width ``phase.retransmission`` marks, and ``phase.execute``
  (decision → last task completion) from the collector. A locally
  admitted job gets ``kind="local"`` enroll (arrival → decision) and
  zero-width validate spans. A ``job.decision`` closes whatever phase
  its session died in as failed; one that closes an open enroll ended
  the session at the mapping boundary, so it also implies a zero-width
  failed map span.
* :func:`run_telemetry` — those spans (each feeding its category's
  timer) plus the run's counters and gauges — protocol decisions from
  the trace, message counts from ``network.stats``, ``engine.events``
  from the simulator, admission-cache and run totals — as one
  :class:`~repro.obs.telemetry.Telemetry` for the exporters.

Both refuse a run made with ``trace=False`` by name: an untraced run has
no record to read. A tracer switched on mid-run yields the phases it saw
begin.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.errors import ConfigError
from repro.obs.telemetry import Span, Telemetry

__all__ = ["timeline", "run_telemetry"]

#: a hardened round's retransmission event -> the round it restarts
_RETRANSMIT_ROUND = {
    "acs.retransmit": "enroll",
    "validate.retransmit": "validate",
    "execute.retransmit": "execute",
}


def _traced_events(result: Any) -> List[Any]:
    if not result.tracer.enabled:
        raise ConfigError(
            "the phase timeline is read off the trace: run with trace=True"
        )
    return result.tracer.events


def _read_phases(obs: Telemetry, events: List[Any], collector: Any) -> None:
    """Replay the protocol's phase boundaries into spans and counters."""
    records = collector.jobs
    #: job -> (arrival time, task count)
    arrival: Dict[Any, Tuple[float, int]] = {}
    #: (category, job) -> (t0, site, labels) of phases begun, not closed
    opened: Dict[Tuple[str, Any], Tuple[float, Any, Dict[str, Any]]] = {}
    #: jobs whose initiator session is open (acs.enroll .. job.decision)
    sessions = set()

    def close(category: str, job: Any, t: float, ok: bool) -> None:
        begun = opened.pop((category, job), None)
        if begun is None:
            return  # begun before the tracer was switched on
        t0, site, labels = begun
        obs.span(category, t0, t, site=site, key=job, ok=ok, **labels)

    def begin_map(job: Any, t: float, site: Any) -> int:
        acs_size = records[job].acs_size if job in records else None
        enrolled = (acs_size or 1) - 1
        opened[("phase.map", job)] = (t, site, {"enrolled": enrolled})
        return enrolled

    for ev in events:
        category, detail, t = ev.category, ev.detail, ev.time
        job = detail.get("job")
        if category == "job.arrival":
            arrival[job] = (t, detail["tasks"])
        elif category == "job.local_accept":
            obs.inc("rtds.local_accept")
            if job in arrival:  # it arrived while the tracer was on
                obs.span("phase.enroll", arrival[job][0], t, site=ev.site, key=job, kind="local")
                obs.span("phase.validate", t, t, site=ev.site, key=job, kind="local")
        elif category == "job.local_reject":
            obs.inc("rtds.local_reject")
        elif category == "acs.enroll":
            sessions.add(job)
            opened[("phase.enroll", job)] = (t, ev.site, {"asked": detail["asked"]})
        elif category == "map.done":
            close("phase.enroll", job, t, ok=True)
            enrolled = begin_map(job, t, ev.site)
            if job in arrival:
                obs.observe("mapper.tasks", arrival[job][1])
            obs.observe("mapper.procs_offered", enrolled + 1)
            obs.observe("mapper.procs_used", detail["procs"])
            obs.inc("rtds.mapper_runs")
        elif category == "validate.self":
            close("phase.map", job, t, ok=True)
            opened[("phase.validate", job)] = (t, ev.site, {})
        elif category in ("validate.ok", "validate.fail"):
            close("phase.validate", job, t, ok=category == "validate.ok")
        elif category in _RETRANSMIT_ROUND:
            name = _RETRANSMIT_ROUND[category]
            obs.inc("rtds.retransmit." + name, len(detail["to"]))
            obs.span(
                "phase.retransmission", t, t, site=ev.site, key=job,
                round=name, attempt=detail["attempt"],
            )
        elif category == "job.decision":
            outcome = detail["outcome"]
            if ("phase.enroll", job) in opened:
                # the session ended at the mapping boundary: nobody
                # enrolled, or no time was left to map
                site = opened[("phase.enroll", job)][1]
                close("phase.enroll", job, t, ok=outcome != "rejected_no_sphere")
                begin_map(job, t, site)
            close("phase.map", job, t, ok=False)
            close("phase.validate", job, t, ok=False)
            if outcome == "accepted_distributed":
                obs.inc("rtds.distributed_accept")
                if job in records:  # a folded record took its ACS size along
                    obs.observe("rtds.acs_size", records[job].acs_size)
            elif job in sessions:
                obs.inc("rtds.reject." + outcome)
            sessions.discard(job)
    for rec in collector.records():
        if not rec.outcome.accepted or rec.decided_at is None:
            continue
        completions = rec.completions
        t_end = max(completions.values()) if completions else rec.decided_at
        obs.span(
            "phase.execute", rec.decided_at, t_end, site=rec.origin, key=rec.job,
            ok=rec.met_deadline is not False, hosts=len(rec.hosts),
        )


def timeline(result: Any) -> List[Span]:
    """The phase spans of a traced run (``result.tracer`` and
    ``result.collector``), in the order the phases closed, execute last."""
    obs = Telemetry()
    _read_phases(obs, _traced_events(result), result.collector)
    return obs.spans


def run_telemetry(result: Any) -> Telemetry:
    """Spans, counters, gauges and timers of a traced
    :class:`~repro.experiments.runner.RunResult` — what the Chrome-trace
    and metrics-JSONL exporters read."""
    events = _traced_events(result)
    obs = Telemetry(seed=result.config.seed)
    _read_phases(obs, events, result.collector)
    net, metrics = result.network, result.collector
    obs.inc("engine.events", net.sim.events_processed)
    for mtype, n in net.stats.count.items():
        obs.inc("net.msgs." + mtype, n)
    obs.gauge("net.bytes", net.stats.total_volume)
    cache = getattr(net, "admission_cache", None)
    if cache is not None:
        stats = cache.stats()
        for name, value in stats.items():
            obs.gauge("admission_cache." + name, value)
        cacheable = stats["hits"] + stats["misses"]
        obs.gauge("admission_cache.hit_rate", stats["hits"] / cacheable if cacheable else 0.0)
    obs.gauge("run.setup_sim_time", result.setup_time)
    obs.gauge("run.sim_time", net.sim.now)
    obs.gauge("run.jobs_arrived", metrics.n_arrived())
    obs.gauge("run.jobs_accepted", metrics.n_accepted())
    return obs
