"""The substrate every scheduler site owns, whatever its policy.

RTDS and the four baselines compare *policies*, so they stand on the same
infrastructure, built once here: a scheduling plan, the compute-processor
executor that runs it, a pluggable routing back end (the paper's phased
Bellman–Ford unless the runner installs precomputed oracle tables), and
the hookup to the experiment's metrics collector — arrival records,
decisions, task completions, named protocol events.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.events import JobOutcome, JobRecord, count_event
from repro.graphs.dag import Dag
from repro.routing.bellman_ford import PhasedBellmanFord
from repro.sched.executor import PlanExecutor
from repro.sched.plan import SchedulingPlan
from repro.simnet.network import Network
from repro.simnet.site import SiteBase
from repro.types import JobId, SiteId, Time


class SchedulerSite(SiteBase):
    """Common base: plan + executor + routing + metrics plumbing.

    ``routing_factory(site, phases, on_done=...)`` lets the experiment
    runner swap the simulated protocol for precomputed oracle tables
    (:mod:`repro.routing.oracle`); None = the paper's distributed protocol.
    """

    def __init__(
        self,
        sid: SiteId,
        network: Network,
        routing_phases: int,
        surplus_window: float = 200.0,
        speed: float = 1.0,
        metrics=None,
        routing_factory=None,
        on_routing_done=None,
    ) -> None:
        super().__init__(sid, network, speed=speed)
        self.metrics = metrics
        self.plan = SchedulingPlan(sid, surplus_window)
        self.executor = PlanExecutor(network.sim, self.plan)
        if metrics is not None and hasattr(metrics, "on_task_complete"):
            self.executor.on_complete.append(metrics.on_task_complete)
        make_routing = routing_factory if routing_factory is not None else PhasedBellmanFord
        self.routing = make_routing(self, routing_phases, on_done=on_routing_done)

    def start(self) -> None:
        """Begin routing-table construction (call on every site at t=0)."""
        self.routing.start()

    def prune_history(self, before: Time) -> int:
        """Forget finished work older than ``before`` (long-run hygiene).

        Safe by construction: admission only ever inserts at/after "now",
        and the surplus window looks forward, so dropping reservations that
        *ended* before ``before`` cannot change any future decision.
        Returns the number of plan reservations dropped.
        """
        n = self.plan.prune_before(before)
        self.executor.prune_done_before(before)
        return n

    def register_arrival(self, job: JobId, dag: Dag, deadline: Time) -> None:
        """Open the measurement record of a job arriving here, now."""
        if self.metrics is not None:
            self.metrics.register_job(
                JobRecord(
                    job=job,
                    origin=self.sid,
                    arrival=self.now,
                    deadline=deadline,
                    n_tasks=len(dag),
                    total_work=dag.total_complexity(),
                )
            )

    def decide(
        self,
        ctx,
        outcome: JobOutcome,
        hosts: Optional[List[SiteId]] = None,
        acs_size: Optional[int] = None,
    ) -> None:
        """Record the final decision on the job of ``ctx`` (any ``.job`` carrier)."""
        if self.trace_on:
            self.trace("job.decision", job=ctx.job, outcome=outcome.value)
        if self.metrics is not None:
            self.metrics.decide(ctx.job, outcome, self.now, hosts=hosts, acs_size=acs_size)

    def min_adjacent_throughput(self) -> Optional[float]:
        """Slowest finite throughput among this site's links (§13 data-volume
        model); None when every adjacent link is infinitely fast."""
        tps = [self.network.link(self.sid, nb).throughput for nb in self.neighbors()]
        return min((t for t in tps if t is not None), default=None)

    def count(self, name: str) -> None:
        """Count a named protocol event on the metrics collector."""
        count_event(self.metrics, name)
