"""Random-offload baseline.

On local rejection, ship the whole DAG to a uniformly random known site
within ``MAX_HOPS`` (a chain of up to ``TRIES`` attempts, each re-running
the local test on arrival). No state is exchanged beforehand — this is the
zero-information sanity baseline: any scheme with actual information
(spheres, bidding, global view) should beat it.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.baselines.base import BaselineJobCtx, BaselineSite
from repro.core.events import JobOutcome
from repro.graphs.dag import Dag
from repro.graphs.serialization import estimate_code_size
from repro.simnet.message import Message
from repro.simnet.network import Network
from repro.types import JobId, SiteId, Time

MSG_R_OFFLOAD = "R_OFFLOAD"

#: how far (in hops) a rejected DAG may be shipped
MAX_HOPS = 4
#: offload attempts before the job is rejected
TRIES = 3


class RandomOffloadSite(BaselineSite):
    """A site that offloads rejected DAGs to random peers."""

    def __init__(
        self,
        sid: SiteId,
        network: Network,
        routing_phases: int,
        seed: int = 0,
        surplus_window: float = 200.0,
        speed: float = 1.0,
        metrics=None,
        routing_factory=None,
    ) -> None:
        super().__init__(
            sid,
            network,
            routing_phases=routing_phases,
            surplus_window=surplus_window,
            speed=speed,
            metrics=metrics,
            routing_factory=routing_factory,
        )
        self.rng = np.random.default_rng((seed, sid))
        self.on(MSG_R_OFFLOAD, self._h_offload)

    def submit_job(self, job: JobId, dag: Dag, deadline: Time) -> None:
        ctx = BaselineJobCtx(
            job=job, dag=dag, deadline=deadline, arrival=self.now, origin=self.sid
        )
        self.register_arrival(job, dag, deadline)
        if self.try_commit_whole_dag(ctx):
            self.decide(ctx, JobOutcome.ACCEPTED_LOCAL, hosts=[self.sid])
            return
        self._forward_job(ctx, tries_left=TRIES, visited=[self.sid])

    def _forward_job(self, ctx: BaselineJobCtx, tries_left: int, visited: List[SiteId]) -> None:
        if tries_left <= 0:
            self.decide(ctx, JobOutcome.REJECTED_VALIDATION)
            return
        options = [
            s for s in self.routing.table.within_phase(MAX_HOPS)
            if s != self.sid and s not in visited
        ]
        if not options:
            self.decide(ctx, JobOutcome.REJECTED_NO_SPHERE)
            return
        target = options[int(self.rng.integers(len(options)))]
        payload = self.pack_ctx(ctx)
        payload["tries_left"] = tries_left - 1
        payload["visited"] = visited + [target]
        self.send_to(target, MSG_R_OFFLOAD, payload, size=estimate_code_size(ctx.dag))

    def _h_offload(self, msg: Message) -> None:
        ctx = self.unpack_ctx(msg.payload)
        if self.try_commit_whole_dag(ctx):
            self.decide(ctx, JobOutcome.ACCEPTED_DISTRIBUTED, hosts=[self.sid])
            return
        self._forward_job(ctx, msg.payload["tries_left"], list(msg.payload["visited"]))
