"""Local-only baseline: accept iff the arrival site alone can guarantee.

No cooperation, no messages. This is the floor: the difference between any
distributed scheme's guarantee ratio and this one is the value cooperation
adds (the quantity the paper's conclusion claims Computing Spheres
increase).
"""

from __future__ import annotations

from repro.baselines.base import BaselineJobCtx, BaselineSite
from repro.core.events import JobOutcome
from repro.graphs.dag import Dag
from repro.simnet.network import Network
from repro.types import JobId, SiteId, Time


class LocalOnlySite(BaselineSite):
    """A site that never talks to anyone about scheduling."""

    def __init__(
        self,
        sid: SiteId,
        network: Network,
        surplus_window: float = 200.0,
        speed: float = 1.0,
        metrics=None,
        routing_factory=None,
    ) -> None:
        # Routing still runs one phase (adjacent links) so the substrate is
        # identical; local-only never sends a routed message.
        super().__init__(
            sid,
            network,
            routing_phases=1,
            surplus_window=surplus_window,
            speed=speed,
            metrics=metrics,
            routing_factory=routing_factory,
        )

    def submit_job(self, job: JobId, dag: Dag, deadline: Time) -> None:
        ctx = BaselineJobCtx(
            job=job, dag=dag, deadline=deadline, arrival=self.now, origin=self.sid
        )
        self.register_arrival(job, dag, deadline)
        if self.try_commit_whole_dag(ctx):
            self.decide(ctx, JobOutcome.ACCEPTED_LOCAL, hosts=[self.sid])
        else:
            self.decide(ctx, JobOutcome.REJECTED_NO_SPHERE)
