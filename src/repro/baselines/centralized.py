"""Centralized-coordinator baseline.

The configuration most prior work assumes (and the paper argues breaks down
on wide networks): one coordinator with a *global, exact* view of every
site's plan makes all scheduling decisions.

Model choices (idealised in the coordinator's favour, documented in
DESIGN.md):

* the coordinator's knowledge is an oracle — its shadow timelines *are* the
  ground truth, because every admission flows through it;
* mapping is stronger than RTDS's: greedy earliest-finish insertion into
  the *actual* idle intervals of candidate sites, with exact pairwise
  delays (the coordinator knows the topology);
* but physics still applies: a job takes ``delay(origin → coordinator)`` to
  reach it, and task code takes ``delay(coordinator → host)`` to ship, so
  on wide networks remote jobs burn their laxity in transit — exactly the
  effect RTDS's bounded spheres avoid.

Messages: JOB_SUBMIT (routed), EXEC_ASSIGN per host (routed), RESULT
between hosts, REJECT_NOTIFY back to the origin (so per-job message costs
are honest).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import heapq

from repro.baselines.base import BaselineJobCtx, BaselineSite
from repro.core.events import JobOutcome
from repro.core.hosting import HostSide
from repro.errors import ProtocolError
from repro.graphs.dag import Dag
from repro.graphs.serialization import estimate_code_size
from repro.sched.intervals import BusyTimeline, Reservation
from repro.simnet.message import Message
from repro.simnet.network import Network
from repro.types import JobId, SiteId, TaskId, Time

MSG_JOB_SUBMIT = "C_JOB_SUBMIT"
MSG_EXEC_ASSIGN = "C_EXEC_ASSIGN"
MSG_C_RESULT = "C_RESULT"

#: candidate sites the coordinator's mapper considers per job
SHORTLIST = 8


class CentralizedCoordinator:
    """The global scheduler living on the coordinator site.

    ``SHORTLIST`` bounds how many candidate sites the mapper considers per
    job (sorted by idle time): realistic centralized schedulers shortlist,
    and it keeps the oracle's work polynomial.
    """

    def __init__(
        self,
        site: "CentralizedSite",
        all_sites: Dict[SiteId, "CentralizedSite"],
        distances: Dict[SiteId, Dict[SiteId, Time]],
    ) -> None:
        self.site = site
        self.all_sites = all_sites
        self.distances = distances
        #: shadow timelines — ground truth, since all admissions come here.
        #: Kept as *copies* updated synchronously at decision time: remote
        #: sites' real plans lag behind by one message delay, and mapping
        #: against them directly could double-book a slot decided for a job
        #: whose EXEC_ASSIGN is still in flight.
        self.shadow: Dict[SiteId, BusyTimeline] = {
            sid: s.plan.timeline.copy() for sid, s in all_sites.items()
        }

    def handle_job(self, ctx: BaselineJobCtx) -> None:
        now = self.site.now
        mapping = self._map_job(ctx, now)
        if mapping is None:
            self.site.decide(ctx, JobOutcome.REJECTED_MAPPER)
            return
        slots_by_site, host = mapping
        for sid, slots in slots_by_site.items():
            for r in slots:
                self.shadow[sid].reserve(r)
        preds = {t: list(ctx.dag.predecessors(t)) for t in ctx.dag}
        volumes = {t: ctx.dag.data_volume(t) for t in ctx.dag}
        hosts = sorted(slots_by_site)
        for sid in hosts:
            slots = slots_by_site[sid]
            if sid == self.site.sid:
                self.site.hosting.commit(ctx.job, slots, host, preds, volumes)
            else:
                self.site.send_to(
                    sid,
                    MSG_EXEC_ASSIGN,
                    {
                        "job": ctx.job,
                        "slots": [
                            (r.task, r.start, r.end, r.release, r.deadline)
                            for r in slots
                        ],
                        "host": host,
                        "preds": preds,
                        "volumes": volumes,
                    },
                    size=estimate_code_size(ctx.dag),
                )
        self.site.decide(ctx, JobOutcome.ACCEPTED_DISTRIBUTED, hosts=hosts)

    # -- the global mapper ------------------------------------------------------

    def _map_job(
        self, ctx: BaselineJobCtx, now: Time
    ) -> Optional[Tuple[Dict[SiteId, List[Reservation]], Dict[TaskId, SiteId]]]:
        """EFT insertion over shortlisted sites' true timelines."""
        window = self.site.plan.surplus_window
        cands = sorted(
            self.all_sites,
            key=lambda sid: (-self.shadow[sid].idle_time(now, now + window), sid),
        )[:SHORTLIST]
        if ctx.origin not in cands:
            cands.append(ctx.origin)
        # every probe starts at or after code_ready >= now: copy the live tails
        scratch = {sid: self.shadow[sid].copy(now) for sid in cands}
        speeds = {sid: self.all_sites[sid].speed for sid in cands}
        #: earliest a host can start anything: code must arrive first
        code_ready = {
            sid: now + (0.0 if sid == self.site.sid else self._dist(self.site.sid, sid))
            for sid in cands
        }

        prio = ctx.dag.bottom_levels()
        topo_index = ctx.dag.topo_index()
        heap = [
            (-prio[t], topo_index[t], t)
            for t in ctx.dag
            if not ctx.dag.predecessors(t)
        ]
        heapq.heapify(heap)
        unmapped = {t: len(ctx.dag.predecessors(t)) for t in ctx.dag}
        host: Dict[TaskId, SiteId] = {}
        finish: Dict[TaskId, Time] = {}
        placed: Dict[TaskId, Reservation] = {}

        while heap:
            _, _, t = heapq.heappop(heap)
            c = ctx.dag.complexity(t)
            best = None  # (finish, sid, start)
            for sid in cands:
                ready = code_ready[sid]
                for p in ctx.dag.predecessors(t):
                    lag = 0.0 if host[p] == sid else self._dist(host[p], sid)
                    ready = max(ready, finish[p] + lag)
                dur = c / speeds[sid]
                s = scratch[sid].earliest_fit(dur, ready, ctx.deadline)
                if s is None:
                    continue
                f = s + dur
                if best is None or f < best[0] - 1e-12 or (abs(f - best[0]) <= 1e-12 and sid < best[1]):
                    best = (f, sid, s)
            if best is None:
                return None
            f, sid, s = best
            res = Reservation(s, f, ctx.job, t, release=s, deadline=ctx.deadline)
            scratch[sid].reserve(res)
            host[t] = sid
            finish[t] = f
            placed[t] = res
            for succ in ctx.dag.successors(t):
                unmapped[succ] -= 1
                if unmapped[succ] == 0:
                    heapq.heappush(heap, (-prio[succ], topo_index[succ], succ))

        if max(finish.values()) > ctx.deadline + 1e-9:
            return None
        slots_by_site: Dict[SiteId, List[Reservation]] = {}
        for t, res in placed.items():
            slots_by_site.setdefault(host[t], []).append(res)
        return slots_by_site, host

    def _dist(self, a: SiteId, b: SiteId) -> Time:
        if a == b:
            return 0.0
        return self.distances[a][b]


class CentralizedSite(BaselineSite):
    """A site in the centralized configuration.

    Exactly one site (the ``coordinator_id``) hosts the
    :class:`CentralizedCoordinator`; the experiment runner installs it after
    construction via :meth:`install_coordinator`.
    """

    def __init__(
        self,
        sid: SiteId,
        network: Network,
        routing_phases: int,
        coordinator_id: SiteId = 0,
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
        self.coordinator_id = coordinator_id
        self.coordinator: Optional[CentralizedCoordinator] = None
        #: §11 host side, shared with RTDS (gates, RESULT forwarding)
        self.hosting = HostSide(self, MSG_C_RESULT)
        self.on(MSG_JOB_SUBMIT, self._h_submit)
        self.on(MSG_EXEC_ASSIGN, self._h_assign)

    def install_coordinator(
        self,
        all_sites: Dict[SiteId, "CentralizedSite"],
        distances: Dict[SiteId, Dict[SiteId, Time]],
    ) -> None:
        if self.sid != self.coordinator_id:
            raise ProtocolError(f"site {self.sid} is not the coordinator")
        self.coordinator = CentralizedCoordinator(self, all_sites, distances)

    # -- arrival ------------------------------------------------------------------

    def submit_job(self, job: JobId, dag: Dag, deadline: Time) -> None:
        ctx = BaselineJobCtx(
            job=job, dag=dag, deadline=deadline, arrival=self.now, origin=self.sid
        )
        self.register_arrival(job, dag, deadline)
        if self.sid == self.coordinator_id:
            self.coordinator.handle_job(ctx)
        else:
            self.send_to(
                self.coordinator_id,
                MSG_JOB_SUBMIT,
                self.pack_ctx(ctx),
                size=estimate_code_size(dag),
            )

    def _h_submit(self, msg: Message) -> None:
        self.coordinator.handle_job(self.unpack_ctx(msg.payload))

    # -- hosting --------------------------------------------------------------------

    def _h_assign(self, msg: Message) -> None:
        job = msg.payload["job"]
        slots = [
            Reservation(s, e, job, task, release=r, deadline=d)
            for (task, s, e, r, d) in msg.payload["slots"]
        ]
        self.hosting.commit(
            job, slots, msg.payload["host"], msg.payload["preds"], msg.payload["volumes"]
        )

    def prune_history(self, before: Time) -> int:
        """Forget finished work older than ``before`` (long-run hygiene)."""
        n = super().prune_history(before)
        self.hosting.prune()
        return n
