"""Protocol fuzzing: random scenarios, global soundness invariants.

Hypothesis generates arbitrary small scenarios (topology, speeds, job
streams with arbitrary timing/deadlines/contention) and we assert the
system-wide invariants that must hold *whatever* happens:

* the simulation terminates (no livelock),
* every job reaches a final decision,
* every lock is released, every deferral queue drained,
* accepted jobs execute fully, respecting processors, precedence and
  transfer delays (the :mod:`repro.experiments.verify` audit),
* rejected jobs never execute,
* determinism: replaying the same scenario yields the same decisions.

This is the test that earns confidence in the lock/deferral machinery —
the part of the paper that is easiest to get subtly wrong.
"""

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import RTDSConfig
from repro.core.events import JobOutcome
from repro.core.rtds import RTDSSite
from repro.graphs.generators import random_dag
from repro.metrics.collector import MetricsCollector
from repro.routing.reference import dijkstra
from repro.simnet.engine import Simulator
from repro.simnet.topology import erdos_renyi, build_network
from repro.types import EPS


@dataclass
class Scenario:
    n_sites: int
    topo_seed: int
    h: int
    enroll_mode: str
    preemptive: bool
    jobs: List[Tuple[int, float, int, float]]  # (origin, arrival, dag_seed, laxity)
    #: per-site computing powers (None = the homogeneous base model); the
    #: heterogeneous arm exercises ENROLL/VALIDATE/EXECUTE off the
    #: identical-sites happy path (speeds ride in enrollment acks and
    #: scale every admission test)
    speeds: Tuple[float, ...] = None
    #: job-DAG family: synthetic random DAGs or workflow-trace shapes
    workload: str = "random"


@st.composite
def scenarios(draw) -> Scenario:
    n = draw(st.integers(min_value=3, max_value=10))
    jobs = []
    n_jobs = draw(st.integers(min_value=1, max_value=8))
    for _ in range(n_jobs):
        origin = draw(st.integers(min_value=0, max_value=n - 1))
        arrival = draw(st.floats(min_value=0.0, max_value=30.0))
        dag_seed = draw(st.integers(min_value=0, max_value=10_000))
        laxity = draw(st.floats(min_value=1.1, max_value=6.0))
        jobs.append((origin, arrival, dag_seed, laxity))
    speeds = draw(
        st.one_of(
            st.none(),
            st.lists(
                st.floats(min_value=0.25, max_value=4.0, allow_nan=False),
                min_size=n,
                max_size=n,
            ).map(tuple),
        )
    )
    return Scenario(
        n_sites=n,
        topo_seed=draw(st.integers(min_value=0, max_value=10_000)),
        h=draw(st.integers(min_value=1, max_value=3)),
        enroll_mode=draw(st.sampled_from(["refuse", "queue"])),
        preemptive=draw(st.booleans()),
        jobs=jobs,
        speeds=speeds,
        workload=draw(st.sampled_from(["random", "montage", "epigenomics"])),
    )


def _scenario_dag(sc: Scenario, dag_seed: int):
    """One job DAG of the scenario's workload family (small shapes)."""
    rng = np.random.default_rng(dag_seed)
    if sc.workload == "montage":
        from repro.workloads.traces import montage_trace_dag

        return montage_trace_dag(rng, tiles=(2, 4))
    if sc.workload == "epigenomics":
        from repro.workloads.traces import epigenomics_trace_dag

        return epigenomics_trace_dag(rng, lanes=(1, 3))
    return random_dag(3 + dag_seed % 8, rng, p_edge=0.3)


def run_scenario(sc: Scenario):
    from repro.graphs.analysis import critical_path_length

    cfg = RTDSConfig(
        h=sc.h,
        enroll_mode=sc.enroll_mode,
        validation_preemptive=sc.preemptive,
    )
    metrics = MetricsCollector()
    sim = Simulator()
    topo = erdos_renyi(
        sc.n_sites,
        0.4,
        np.random.default_rng(sc.topo_seed),
        delay_range=(0.2, 1.0),
    )
    def make_site(sid, n):
        speed = sc.speeds[sid] if sc.speeds is not None else 1.0
        return RTDSSite(sid, n, cfg, speed=speed, metrics=metrics, surplus_window=100.0)

    net = build_network(topo, sim, make_site)
    for sid in net.site_ids():
        net.site(sid).start()
    sim.run()

    # Deadlines reference the *slowest* site so heterogeneous scenarios
    # keep some jobs feasible somewhere (deadlines are application-level;
    # see repro.workloads.deadlines reference_speed).
    ref_speed = min(sc.speeds) if sc.speeds is not None else 1.0
    dags = {}
    for jid, (origin, arrival, dag_seed, laxity) in enumerate(sc.jobs):
        dag = _scenario_dag(sc, dag_seed)
        dags[jid] = dag
        site = net.site(origin)
        deadline_rel = laxity * critical_path_length(dag) / ref_speed
        sim.schedule_at(
            sim.now + arrival,
            lambda s=site, j=jid, d=dag, dr=deadline_rel: s.submit_job(
                j, d, s.now + dr
            ),
        )
    sim.run(until=sim.now + 2000.0)
    assert sim.pending() == 0 or all(
        ev.cancelled for ev in sim._heap
    ), "simulation did not quiesce"
    return net, metrics, dags, topo


@given(scenarios())
@settings(max_examples=60, deadline=None)
def test_protocol_invariants(sc: Scenario):
    net, metrics, dags, topo = run_scenario(sc)

    # 1. every job decided
    for rec in metrics.records():
        assert rec.outcome is not JobOutcome.PENDING, rec

    # 2. all locks free, deferral queues empty, no session or tenancy left
    for sid in net.site_ids():
        assert net.site(sid).leaks() == [], f"site {sid} leaked"

    # 3. accepted jobs executed fully and soundly; rejected never ran —
    # read from the collector's execution history, the whole run's record
    where = {}
    windows = {}
    compute = {}
    chunks_on = {}
    for job, task, sid, spans in metrics.executions():
        key = (job, task)
        where[key] = sid
        windows[key] = (spans[0][0], spans[-1][1])
        compute[key] = sum(e - s for s, e in spans)
        chunks_on.setdefault(sid, []).extend(spans)
    for sid, chunks in chunks_on.items():
        chunks.sort()
        for (a1, a2), (b1, b2) in zip(chunks, chunks[1:]):
            assert b1 >= a2 - EPS, f"site {sid} ran two chunks at once"

    # 3b. heterogeneity contract: wall-clock compute time == c / speed
    for key, sid in where.items():
        speed = net.site(sid).speed
        expected = dags[key[0]].complexity(key[1]) / speed
        assert abs(compute[key] - expected) <= 1e-6 * max(1.0, expected), (
            f"task {key} on site {sid} (speed {speed:g}): "
            f"ran {compute[key]} != c/speed {expected}"
        )

    adj = topo.adjacency()
    dist_from = {}
    for rec in metrics.records():
        dag = dags[rec.job]
        keys = [(rec.job, t) for t in dag.topological_order()]
        if rec.outcome.accepted:
            assert all(k in where for k in keys), f"job {rec.job} incomplete"
            for u, v in dag.edges:
                ku, kv = (rec.job, u), (rec.job, v)
                lag = 0.0
                if where[ku] != where[kv]:
                    if where[ku] not in dist_from:
                        dist_from[where[ku]] = dijkstra(adj, where[ku])
                    lag = dist_from[where[ku]][where[kv]]
                assert windows[kv][0] >= windows[ku][1] + lag - 1e-6, (
                    f"job {rec.job} edge {u}->{v} violated"
                )
        else:
            assert not any(k in where for k in keys), (
                f"rejected job {rec.job} executed"
            )


@given(scenarios())
@settings(max_examples=15, deadline=None)
def test_protocol_deterministic(sc: Scenario):
    _, m1, _, _ = run_scenario(sc)
    _, m2, _, _ = run_scenario(sc)
    o1 = [(r.job, r.outcome, r.decided_at, r.completion_time) for r in m1.records()]
    o2 = [(r.job, r.outcome, r.decided_at, r.completion_time) for r in m2.records()]
    assert o1 == o2
