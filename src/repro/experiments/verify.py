"""Post-run execution audit.

An oracle that inspects a finished :class:`RunResult` and checks the
*physical* soundness of everything that actually executed — independently
of the protocol logic that scheduled it:

1. no site's compute processor ever ran two chunks at once;
2. every precedence arc of every accepted job was honoured in actual
   execution, including the shortest-path transfer delay when predecessor
   and successor ran on different sites (with result forwarding on);
3. every accepted job ran to completion (no orphaned guarantees);
4. no task of a rejected job ever executed;
5. every executed task took exactly ``c(t) / speed`` of wall-clock
   compute time on its host — the heterogeneity contract (§13 related
   machines): a hard-coded WCET anywhere between admission and execution
   would surface here the moment speeds diverge from 1.0;
6. the last chunk of every accepted job ended by that job's deadline —
   the paper's guarantee itself.

The audit reads what ran from the run's one per-task execution history —
each job record's site and actual chunk spans per finished task
(:meth:`repro.core.events.JobRecord.executions`) — not from the sites,
which forget finished work after one surplus window. A job the workload
does not know, or a task its DAG does not know, is a violation by name,
never skipped.

Returns a list of human-readable violation strings — empty means the run
is sound. The integration tests call this on every algorithm; it has
caught real executor bugs during development, which is exactly its job.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.routing.reference import dijkstra
from repro.types import EPS, JobId, SiteId, TaskId

Key = Tuple[JobId, TaskId]


def verify_execution(result, check_transfer_delays: bool = True) -> List[str]:
    """Audit one finished run; returns violations (empty list = sound)."""
    issues: List[str] = []
    site_speed = {sid: getattr(site, "speed", 1.0) for sid, site in result.network.sites.items()}
    dags = {spec.job: spec.dag for spec in result.workload}
    records = result.collector.records()

    # -- gather actual executions from the collector's history --------------
    where: Dict[Key, SiteId] = {}
    window: Dict[Key, Tuple[float, float]] = {}  # (first start, last end)
    compute_time: Dict[Key, float] = {}  # summed actual chunk durations
    chunks_on: Dict[SiteId, List[Tuple[float, float, Key]]] = {}
    for rec in records:
        for task, sid, spans in rec.executions():
            key = (rec.job, task)
            if sid not in site_speed:
                issues.append(f"task {key} executed on unknown site {sid}")
                continue
            where[key] = sid
            window[key] = (spans[0][0], spans[-1][1])
            compute_time[key] = sum(e - s for (s, e) in spans)
            chunks_on.setdefault(sid, []).extend((s, e, key) for (s, e) in spans)
    # 1. single compute processor: chunks must not overlap
    for sid in sorted(chunks_on):
        chunks = sorted(chunks_on[sid])
        for (a_s, a_e, a_k), (b_s, b_e, b_k) in zip(chunks, chunks[1:]):
            if b_s < a_e - EPS:
                issues.append(
                    f"site {sid}: overlapping execution {a_k} [{a_s:.3f},{a_e:.3f}) "
                    f"and {b_k} [{b_s:.3f},{b_e:.3f})"
                )

    # -- per-job checks against the workload's DAGs -------------------------
    dist_cache: Dict[SiteId, Dict[SiteId, float]] = {}
    adj = result.topology.adjacency()

    def dist(a: SiteId, b: SiteId) -> float:
        if a == b:
            return 0.0
        if a not in dist_cache:
            dist_cache[a] = dijkstra(adj, a)
        return dist_cache[a][b]

    for rec in records:
        dag = dags.get(rec.job)
        if dag is None:
            issues.append(f"job {rec.job} ({rec.outcome.value}) is not in the run's workload")
            continue
        order = dag.topological_order()
        known = set(order)
        stray = [task for task, _, _ in rec.executions() if task not in known]
        if stray:
            issues.append(f"job {rec.job}: executed tasks its DAG does not have: {stray}")
        keys = [(rec.job, t) for t in order]
        if rec.outcome.accepted:
            missing = [k for k in keys if k not in where]
            if missing:
                issues.append(
                    f"job {rec.job} ({rec.outcome.value}): tasks never executed: "
                    f"{[k[1] for k in missing]}"
                )
                continue
            # 5. speed-scaled durations: wall-clock compute == c / speed
            for k in keys:
                expected = dag.complexity(k[1]) / site_speed[where[k]]
                got = compute_time[k]
                if abs(got - expected) > 1e-6 * max(1.0, expected):
                    issues.append(
                        f"job {rec.job} task {k[1]!r}: executed for {got:.6f} on "
                        f"site {where[k]} (speed {site_speed[where[k]]:g}) but "
                        f"c/speed = {expected:.6f}"
                    )
            # 6. the guarantee: the job's last chunk ends by its deadline
            end = max(window[k][1] for k in keys)
            if end > rec.deadline + 1e-9:
                issues.append(
                    f"job {rec.job} ({rec.outcome.value}) missed its deadline: "
                    f"last chunk ended {end:.6f} > deadline {rec.deadline:.6f}"
                )
            for u, v in dag.edges:
                ku, kv = (rec.job, u), (rec.job, v)
                end_u = window[ku][1]
                start_v = window[kv][0]
                lag = 0.0
                if check_transfer_delays and where[ku] != where[kv]:
                    lag = dist(where[ku], where[kv])
                if start_v < end_u + lag - 1e-6:
                    issues.append(
                        f"job {rec.job}: edge {u}->{v} violated: "
                        f"{v} started {start_v:.3f} < {u} ended {end_u:.3f} "
                        f"+ transfer {lag:.3f} "
                        f"(sites {where[ku]} -> {where[kv]})"
                    )
        else:
            ran = [k[1] for k in keys if k in where]
            if ran:
                issues.append(
                    f"rejected job {rec.job} had tasks executing: {ran}"
                )
    return issues
