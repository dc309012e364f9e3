"""Fixed-seed scenarios pinned by the bit-for-bit identity suite.

Three deliberately different shapes of run, all fully deterministic from
their seeds, all with tracing on:

* ``paper_example`` — every job is the paper's worked-example DAG (Fig. 2)
  on a small grid; exercises the protocol walkthrough path end to end;
* ``e2_16`` — the E2-style 16-site random network under moderate load;
  the bread-and-butter macro shape every benchmark uses;
* ``e7_churn`` — the hardened protocol under the "moderate" churn preset:
  retransmissions, lease expiries and timer cancellation storms, i.e. the
  paths the lazy heap compaction must not perturb;
* ``e11_hetero`` — heterogeneous sites (``skew:4`` speed profile) under a
  Montage trace workload: the speed threading and the trace-driven
  workload generator, pinned bit-for-bit (golden generated when E11
  landed).

The goldens under ``tests/identity/goldens/`` were generated from the
pre-optimization tree (see ``make_goldens.py``); any optimization that
changes a single trace event, its order, or one metric bit fails the suite.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.core.config import RTDSConfig
from repro.experiments.runner import ExperimentConfig, RunResult, run_experiment
from repro.faults.plan import ChurnSpec, FaultPlan, hardened
from repro.graphs.generators import paper_example_dag
from repro.simnet.trace import canonical_trace, trace_digest


#: named churn intensities: (message-loss prob, delay jitter, link flaps
#: per 100 time units, site partitions per 100 time units, mean downtime)
CHURN_LEVELS = {
    "light": (0.01, 0.1, 0.5, 0.0, 10.0),
    "moderate": (0.05, 0.5, 1.5, 0.5, 15.0),
    "severe": (0.15, 1.0, 3.0, 1.0, 25.0),
}


def churn_plan(level: str, duration: float, seed: int = 0):
    """A named :class:`~repro.faults.plan.FaultPlan` churn preset — "what a
    flaky WAN looks like" — the weather of the ``e7_churn`` cell and of the
    plan-cache differential's faulted run.

    ``level`` is one of :data:`CHURN_LEVELS`; flap/partition counts scale
    linearly with ``duration`` so "moderate" means the same weather on a
    300-unit run and a 3000-unit soak.
    """
    loss, jitter, links_per_100, sites_per_100, downtime = CHURN_LEVELS[level]
    n_links = int(round(links_per_100 * duration / 100.0))
    n_sites = int(round(sites_per_100 * duration / 100.0))
    return FaultPlan(
        loss_prob=loss,
        delay_jitter=jitter,
        link_churn=ChurnSpec(n_links, downtime, duration) if n_links else None,
        site_churn=ChurnSpec(n_sites, downtime, duration) if n_sites else None,
        seed=seed,
    )


def _paper_example() -> ExperimentConfig:
    return ExperimentConfig(
        topology="grid",
        topology_kwargs={"rows": 3, "cols": 3, "delay_range": (0.5, 1.5)},
        duration=60.0,
        rho=0.7,
        dag_factory=lambda rng: paper_example_dag(),
        seed=42,
        trace=True,
    )


def _e2_16() -> ExperimentConfig:
    return ExperimentConfig(
        topology="erdos_renyi",
        topology_kwargs={"n": 16, "p": 0.25, "delay_range": (0.2, 1.0)},
        duration=240.0,
        rho=0.7,
        seed=0,
        trace=True,
    )


def _e7_churn() -> ExperimentConfig:
    duration = 180.0
    return ExperimentConfig(
        topology="erdos_renyi",
        topology_kwargs={"n": 16, "p": 0.25, "delay_range": (0.2, 1.0)},
        duration=duration,
        rho=0.6,
        rtds=hardened(RTDSConfig(), ack_timeout=5.0, ack_retries=1),
        faults=churn_plan("moderate", duration, seed=3),
        seed=3,
        trace=True,
    )


def _e11_hetero() -> ExperimentConfig:
    return ExperimentConfig(
        topology="erdos_renyi",
        topology_kwargs={"n": 16, "p": 0.25, "delay_range": (0.2, 1.0)},
        duration=150.0,
        rho=0.6,
        site_speeds="skew:4",
        workload="trace:montage",
        seed=11,
        trace=True,
    )


SCENARIOS = {
    "paper_example": _paper_example,
    "e2_16": _e2_16,
    "e7_churn": _e7_churn,
    "e11_hetero": _e11_hetero,
}


def run_scenario(name: str) -> RunResult:
    return run_experiment(SCENARIOS[name]())


def snapshot(result: RunResult) -> Dict[str, Any]:
    """Everything the identity suite pins, as one JSON-able dict."""
    events = result.tracer.events
    return {
        "events_processed": result.network.sim.events_processed,
        "final_time": float(result.network.sim.now),
        "setup_messages": result.setup_messages,
        "message_counts": {k: int(v) for k, v in sorted(result.network.stats.count.items())},
        "total_volume": float(result.network.stats.total_volume),
        "scalar_metrics": result.scalar_metrics(),
        "n_trace_events": len(events),
        "trace_sha256": trace_digest(events),
        "trace": canonical_trace(events),
    }
