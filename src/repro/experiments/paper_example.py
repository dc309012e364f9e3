"""Exact regeneration of the paper's worked example (§12) and Figure 1.

The instance (reconstructed in DESIGN.md §4): the Fig. 2 DAG with
``c = (6, 4, 4, 2, 5)``, two logical processors with surpluses ``I1 = 0.5``
and ``I2 = 0.4``, ACS delay diameter ``ω = 3``, job release ``r = 0`` and
deadline ``d = 66``.

Expected outputs (all asserted by tests and printed by the benches):

* **Figure 3** (schedule S): p1 = [t1 0–12, t3 13–21, t5 23–33],
  p2 = [t2 0–10, t4 15–20]; makespan M = 33;
* **Figure 4** (schedule S*): p1 = [t1 0–6, t3 7–11, t5 14–19],
  p2 = [t2 0–4, t4 9–11]; makespan M* = 19;
* **Table 1**: case (ii) with scaling factor (d−r)/M = 2.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.core.adjustment import AdjustmentResult, adjust_trial_mapping, schedule_sstar
from repro.core.config import RTDSConfig
from repro.core.mapper import build_trial_mapping
from repro.core.rtds import RTDSSite
from repro.core.trial_mapping import LogicalProcSpec, TrialMapping
from repro.graphs.generators import linear_chain_dag, paper_example_dag
from repro.metrics.collector import MetricsCollector
from repro.simnet.engine import Simulator
from repro.simnet.topology import build_network, complete
from repro.simnet.trace import Tracer

PAPER_SURPLUSES = (0.5, 0.4)
PAPER_OMEGA = 3.0
PAPER_DEADLINE = 66.0

#: Table 1 of the paper: task -> (ri, di, r(ti), d(ti))
PAPER_TABLE1 = {
    1: (0.0, 12.0, 0.0, 24.0),
    2: (0.0, 10.0, 0.0, 20.0),
    3: (13.0, 21.0, 24.0, 42.0),
    4: (15.0, 20.0, 27.0, 40.0),
    5: (23.0, 33.0, 43.0, 66.0),
}

#: Figure 3 (schedule S): task -> (proc index 0-based, start, end)
PAPER_FIG3 = {
    1: (0, 0.0, 12.0),
    2: (1, 0.0, 10.0),
    3: (0, 13.0, 21.0),
    4: (1, 15.0, 20.0),
    5: (0, 23.0, 33.0),
}

#: Figure 4 (schedule S*): task -> (proc index 0-based, start, end)
PAPER_FIG4 = {
    1: (0, 0.0, 6.0),
    2: (1, 0.0, 4.0),
    3: (0, 7.0, 11.0),
    4: (1, 9.0, 11.0),
    5: (0, 14.0, 19.0),
}


def paper_example_dag_factory(rng):
    """Workload factory: every arriving job is the paper's Fig. 2 DAG.

    Module-level and named on purpose — campaign cell keys and worker
    pools require named callables (see :mod:`repro.experiments.parallel`).
    """
    return paper_example_dag()


def paper_example_config(seed: int = 0, duration: float = 150.0):
    """The paper-example scenario as a runnable :class:`ExperimentConfig`.

    A 4-site complete network with unit delays (the Figure-1 setting, h=1
    spheres) fed a stream of Fig. 2 DAGs. This is the config ``rtds trace
    --paper-example`` renders into a Perfetto timeline: small enough that
    every enroll/map/validate/execute span is individually readable.
    """
    from repro.experiments.runner import ExperimentConfig

    return ExperimentConfig(
        topology="complete",
        topology_kwargs={"n": 4, "delay_range": (1.0, 1.0)},
        algorithm="rtds",
        rtds=RTDSConfig(h=1),
        rho=0.7,
        duration=duration,
        dag_factory=paper_example_dag_factory,
        seed=seed,
    )


def paper_example_trial_mapping() -> TrialMapping:
    """Run the §12 Mapper on the reconstructed instance."""
    dag = paper_example_dag()
    procs = [
        LogicalProcSpec(index=0, surplus=PAPER_SURPLUSES[0]),
        LogicalProcSpec(index=1, surplus=PAPER_SURPLUSES[1]),
    ]
    return build_trial_mapping(
        job=0, dag=dag, procs=procs, omega=PAPER_OMEGA, job_release=0.0
    )


def paper_example_adjusted() -> Tuple[TrialMapping, AdjustmentResult]:
    """Mapper + §12.2 adjustment (case (ii), scaling factor 2)."""
    tm = paper_example_trial_mapping()
    adj = adjust_trial_mapping(tm, PAPER_DEADLINE)
    return tm, adj


def table1_rows() -> List[Tuple[int, float, float, float, float]]:
    """The reproduced Table 1 as (ti, ri, di, r(ti), d(ti)) rows."""
    tm, _ = paper_example_adjusted()
    return [(t, r0, d0, r1, d1) for (t, r0, d0, r1, d1) in tm.window_table()]


def fig3_schedule() -> Dict[int, Tuple[int, float, float]]:
    """task -> (proc, start, end) of the reproduced schedule S."""
    tm = paper_example_trial_mapping()
    return {t: (tm.assignment[t], tm.start[t], tm.finish[t]) for t in tm.dag}


def fig4_schedule() -> Dict[int, Tuple[int, float, float]]:
    """task -> (proc, start, end) of the reproduced schedule S*."""
    tm = paper_example_trial_mapping()
    ss = schedule_sstar(tm)
    return {t: (tm.assignment[t], ss.start[t], ss.finish[t]) for t in tm.dag}


def run_fig1_scenario(
    n_sites: int = 4, h: int = 1, obs=None
) -> Tuple[Tracer, MetricsCollector, int]:
    """A minimal live run exercising the full Figure-1 flow.

    A 4-site complete network (unit delays). Site 0 first accepts a long
    local chain job that saturates it, then receives the paper's Fig. 2 DAG
    with a deadline it cannot hold alone — forcing the distributed path:
    ACS construction → trial-mapping → validation → execution.

    ``obs`` (an optional :class:`repro.obs.Telemetry`) records the
    protocol-phase spans of the run. Returns (tracer, metrics,
    distributed_job_id).
    """
    sim = Simulator()
    tracer = Tracer(enabled=True)
    metrics = MetricsCollector()
    cfg = RTDSConfig(h=h)
    topo = complete(n_sites, delay_range=(1.0, 1.0))
    net = build_network(
        topo,
        sim,
        lambda sid, n: RTDSSite(sid, n, cfg, metrics=metrics, surplus_window=100.0),
        tracer,
        obs=obs,
    )
    for sid in net.site_ids():
        net.site(sid).start()
    sim.run()  # PCS construction

    # Job 0: a fat sequential chain that fills site 0 (accepted locally).
    chain = linear_chain_dag(4, c_range=(20.0, 20.0))
    site0 = net.site(0)
    sim.schedule(1.0, lambda: site0.submit_job(0, chain, sim.now + 400.0))
    # Job 1: the Fig. 2 DAG, deadline too tight for the now-busy site 0.
    fig2 = paper_example_dag()
    sim.schedule(2.0, lambda: site0.submit_job(1, fig2, sim.now + 60.0))
    sim.run()
    return tracer, metrics, 1
