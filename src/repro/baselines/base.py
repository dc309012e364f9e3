"""Shared machinery of baseline scheduler sites.

Every baseline site owns the same substrate an RTDS site does — a
scheduling plan, a compute-processor executor, the phased Bellman–Ford for
routing — so comparisons isolate the *policy*, not the infrastructure.
Baselines run the routing protocol long enough to cover the whole network
(they need arbitrary-destination routing; the experiment runner passes the
network's hop diameter), which is itself part of the contrast with RTDS's
2h-bounded flooding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.events import JobOutcome, JobRecord
from repro.core.local_test import local_guarantee_test
from repro.graphs.dag import Dag
from repro.graphs.serialization import dag_from_dict, dag_to_dict
from repro.routing.bellman_ford import PhasedBellmanFord
from repro.sched.executor import PlanExecutor
from repro.sched.plan import SchedulingPlan
from repro.simnet.network import Network
from repro.simnet.site import SiteBase
from repro.types import JobId, SiteId, Time


@dataclass
class BaselineJobCtx:
    """A job in flight inside a baseline protocol."""

    job: JobId
    dag: Dag
    deadline: Time
    arrival: Time
    origin: SiteId


class BaselineSite(SiteBase):
    """Common base: plan + executor + routing + metrics plumbing."""

    def __init__(
        self,
        sid: SiteId,
        network: Network,
        routing_phases: int,
        surplus_window: float = 200.0,
        speed: float = 1.0,
        metrics=None,
        mgmt_overhead: Time = 0.0,
        routing_factory=None,
    ) -> None:
        super().__init__(sid, network, mgmt_overhead, speed=speed)
        self.metrics = metrics
        self.plan = SchedulingPlan(sid, surplus_window, speed=speed, obs=self.obs)
        self.executor = PlanExecutor(network.sim, self.plan)
        if metrics is not None and hasattr(metrics, "on_task_complete"):
            self.executor.on_complete.append(metrics.on_task_complete)
        # same pluggable routing back end RTDSSite has: None = the phased
        # protocol, or an oracle factory installing precomputed tables
        make_routing = routing_factory if routing_factory is not None else PhasedBellmanFord
        self.routing = make_routing(self, routing_phases)

    def start(self) -> None:
        self.routing.start()

    def prune_history(self, before: Time) -> int:
        """Forget finished work older than ``before`` (long-run hygiene)."""
        n = self.plan.prune_before(before)
        self.executor.prune_done_before(before)
        return n

    # -- shared helpers ------------------------------------------------------

    def register_arrival(self, ctx: BaselineJobCtx) -> None:
        if self.metrics is not None:
            self.metrics.register_job(
                JobRecord(
                    job=ctx.job,
                    origin=ctx.origin,
                    arrival=ctx.arrival,
                    deadline=ctx.deadline,
                    n_tasks=len(ctx.dag),
                    total_work=ctx.dag.total_complexity(),
                )
            )

    def decide(
        self,
        ctx: BaselineJobCtx,
        outcome: JobOutcome,
        hosts: Optional[List[SiteId]] = None,
    ) -> None:
        self.trace("job.decision", job=ctx.job, outcome=outcome.value)
        if self.metrics is not None:
            self.metrics.decide(ctx.job, outcome, self.now, hosts=hosts)

    def try_commit_whole_dag(self, ctx: BaselineJobCtx) -> bool:
        """Local test + commit of the entire DAG on this site."""
        fit = local_guarantee_test(
            self.plan.timeline,
            ctx.dag,
            ctx.job,
            release=self.now,
            deadline=ctx.deadline,
            now=self.now,
            speed=self.speed,
        )
        if fit is None:
            return False
        slots, gates = fit
        self.plan.commit(slots)
        self.executor.notify_committed(slots, gates)
        return True

    # -- wire helpers for shipping DAGs around ----------------------------------

    @staticmethod
    def pack_ctx(ctx: BaselineJobCtx) -> Dict:
        return {
            "job": ctx.job,
            "dag": dag_to_dict(ctx.dag),
            "deadline": ctx.deadline,
            "arrival": ctx.arrival,
            "origin": ctx.origin,
        }

    @staticmethod
    def unpack_ctx(payload: Dict) -> BaselineJobCtx:
        return BaselineJobCtx(
            job=payload["job"],
            dag=dag_from_dict(payload["dag"]),
            deadline=payload["deadline"],
            arrival=payload["arrival"],
            origin=payload["origin"],
        )
