"""The RTDS site: the full distributed protocol (paper §4–§11).

One :class:`RTDSSite` per network node. Each site runs, independently:

* at system start, the phased Bellman–Ford, then derives its PCS (§7);
* on job arrival, the **local test** (§5); if it fails, the site becomes
  *initiator*: it enrolls its PCS into an ACS (§8), runs the Mapper (§9/§12)
  and the adjustment (§12.2), broadcasts the Trial-Mapping for validation
  (§10), computes the coupling, and dispatches the permutation + task code
  (§11);
* as a *member*, it answers enrollments with its surplus, validates task
  sets against its own plan, and commits/unlocks on EXECUTE/UNLOCK;
* as a *host*, its compute processor executes committed reservations and
  forwards task results to the sites hosting successor tasks.

Locking discipline (DESIGN.md "Lock semantics"): while a site's lock is
held, everything that would mutate its plan — its own job arrivals, foreign
enrollments in ``queue`` mode — is deferred and replayed FIFO at unlock;
in ``refuse`` mode foreign enrollments get an explicit busy-refusal instead.
RESULT messages only open executor gates and pass through locks.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

from repro.core.adjustment import adjust_trial_mapping
from repro.core.config import RTDSConfig
from repro.core.events import JobOutcome, JobRecord
from repro.core.hosting import HostSide
from repro.core.local_test import local_guarantee_test
from repro.core.mapper import build_trial_mapping
from repro.core.messages import (
    MSG_ENROLL,
    MSG_ENROLL_ACK,
    MSG_ENROLL_REFUSE,
    MSG_EXECUTE,
    MSG_EXECUTE_ACK,
    MSG_RESULT,
    MSG_SPHERE,
    MSG_UNLOCK,
    MSG_VALIDATE,
    MSG_VALIDATE_ACK,
)
from repro.core.trial_mapping import LogicalProcSpec
from repro.core.admission_cache import AdmissionCache
from repro.core.validation import compute_permutation
from repro.errors import ProtocolError
from repro.graphs.analysis import critical_path_length
from repro.graphs.dag import Dag
from repro.graphs.serialization import estimate_code_size
from repro.routing.bellman_ford import PhasedBellmanFord
from repro.sched.executor import PlanExecutor
from repro.sched.plan import SchedulingPlan
from repro.simnet.message import Message
from repro.simnet.network import Network
from repro.simnet.site import SiteBase
from repro.spheres.acs import AcsSession, EnrolledSite, SiteLock
from repro.spheres.diameter import sphere_diameter, sphere_radius
from repro.spheres.pcs import PCS, build_pcs, handle_sphere_message, sphere_broadcast
from repro.types import JobId, LogicalProc, SiteId, TaskId, Time


@dataclass
class _JobCtx:
    """A job waiting for / undergoing the protocol on its arrival site."""

    job: JobId
    dag: Dag
    deadline: Time
    arrival: Time
    was_deferred: bool = False


class RTDSSite(SiteBase):
    """A network site running the RTDS protocol."""

    def __init__(
        self,
        sid: SiteId,
        network: Network,
        config: RTDSConfig,
        speed: float = 1.0,
        metrics=None,
        mgmt_overhead: Time = 0.0,
        routing_factory=None,
    ) -> None:
        super().__init__(sid, network, mgmt_overhead, speed=speed)
        self.config = config
        self.metrics = metrics
        self.plan = SchedulingPlan(sid, config.surplus_window, speed=speed, obs=self.obs)
        self.executor = PlanExecutor(network.sim, self.plan)
        #: §11 host side: gates, RESULT forwarding, RESULT delivery
        self.hosting = HostSide(self, MSG_RESULT, config.result_forwarding)
        if metrics is not None and hasattr(metrics, "on_task_complete"):
            self.executor.on_complete.append(metrics.on_task_complete)

        # routing_factory (site, phases, on_done) lets the experiment
        # runner swap the simulated protocol for precomputed oracle tables
        # (repro.routing.oracle); None = the paper's distributed protocol.
        make_routing = routing_factory if routing_factory is not None else PhasedBellmanFord
        self.routing = make_routing(self, config.pcs_phases, on_done=self._routing_done)
        self.pcs: Optional[PCS] = None
        # One admission cache per network, shared by all sites (cross-site
        # result sharing via the plan state digest); the experiment runner
        # attaches a pre-configured one, standalone sites get a default.
        cache = getattr(network, "admission_cache", None)
        if cache is None:
            cache = AdmissionCache()
            network.admission_cache = cache
        self.admission_cache = cache
        self.lock = SiteLock(sid)
        #: initiator-side session (one at a time; the lock enforces it)
        self.session: Optional[AcsSession] = None
        #: member-side cached validation slots: job -> {proc: [Reservation]}
        self._validate_cache: Dict[JobId, Dict[LogicalProc, list]] = {}
        #: jobs submitted before routing finished
        self._pre_routing: List[_JobCtx] = []
        self._enroll_timer = None
        # --- hardening state (all dormant unless config.ack_timeout set) ---
        #: initiator-side per-phase ack timer (enroll / validate rounds)
        self._ack_timer = None
        #: retransmissions already spent in the current hardened phase
        self._phase_attempts = 0
        #: initiator-side EXECUTE retransmission: job -> round state
        self._pending_execute: Dict[JobId, Dict[str, Any]] = {}
        #: member-side: jobs whose EXECUTE this site processed ->
        #: (initiator, when) — kept for duplicate re-acks, pruned by age
        self._exec_done: Dict[JobId, Tuple[SiteId, Time]] = {}
        #: member-side cached VALIDATE_ACK endorsements (idempotent re-ack)
        self._validate_ack: Dict[JobId, List[LogicalProc]] = {}
        #: member-side lock lease timer and the (initiator, job) it guards
        self._lease_timer = None
        self._lease_owner: Optional[Tuple[SiteId, JobId]] = None
        self._lease_duration: Time = 0.0

        self.on(MSG_SPHERE, self._h_sphere)
        self.on(MSG_ENROLL, self._h_enroll)
        self.on(MSG_ENROLL_ACK, self._h_enroll_ack)
        self.on(MSG_ENROLL_REFUSE, self._h_enroll_refuse)
        self.on(MSG_VALIDATE, self._h_validate)
        self.on(MSG_VALIDATE_ACK, self._h_validate_ack)
        self.on(MSG_EXECUTE, self._h_execute)
        self.on(MSG_EXECUTE_ACK, self._h_execute_ack)
        self.on(MSG_UNLOCK, self._h_unlock)

    def _count(self, name: str) -> None:
        """Count a named protocol event on the metrics collector."""
        if self.metrics is not None and hasattr(self.metrics, "count_event"):
            self.metrics.count_event(name)

    # ------------------------------------------------------------------
    # initialization
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Begin PCS construction (call on every site at t=0)."""
        self.routing.start()

    def _routing_done(self) -> None:
        self.pcs = build_pcs(self.routing.table, self.config.h)
        self.trace("pcs.built", h=self.config.h, members=len(self.pcs))
        pending, self._pre_routing = self._pre_routing, []
        for ctx in pending:
            ctx.was_deferred = True
            self._consider(ctx)

    def refresh_sphere(self) -> None:
        """Rebuild the PCS from the (repaired) routing table.

        The membership layer calls this after an incremental routing
        repair touched this site's row (a join inside the sphere radius).
        Pure re-derivation — no deferred-job replay, no messages: jobs in
        flight keep the decision path they started on.
        """
        if not self.routing.done:
            return
        self.drop_route_caches()
        self.pcs = build_pcs(self.routing.table, self.config.h)
        self.trace("pcs.refreshed", h=self.config.h, members=len(self.pcs))

    # ------------------------------------------------------------------
    # job arrival (driver entry point)
    # ------------------------------------------------------------------

    def submit_job(self, job: JobId, dag: Dag, deadline: Time) -> None:
        """A sporadic job arrives on this site (absolute ``deadline``)."""
        ctx = _JobCtx(job=job, dag=dag, deadline=deadline, arrival=self.now)
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
        if self.trace_on:
            self.trace("job.arrival", job=job, tasks=len(dag), deadline=deadline)
        if self.pcs is None and not self.routing.done:
            self._pre_routing.append(ctx)
            return
        if self.lock.locked:
            ctx.was_deferred = True
            self.lock.defer(lambda: self._consider(ctx))
            return
        self._consider(ctx)

    def _consider(self, ctx: _JobCtx) -> None:
        """Local test, then (if needed) start the distributed protocol."""
        if self.lock.locked:
            self.lock.defer(lambda: self._consider(ctx))
            return
        # A deferred job may have become hopeless while waiting: even an
        # ideal schedule needs the critical path length.
        if ctx.was_deferred:
            cp = critical_path_length(ctx.dag) / self.speed
            if self.now + cp > ctx.deadline + 1e-9:
                self._decide(ctx, JobOutcome.REJECTED_TIMEOUT)
                return
        _t0 = perf_counter() if self.obs_on else 0.0
        fit = local_guarantee_test(
            self.plan.timeline,
            ctx.dag,
            ctx.job,
            release=self.now,
            deadline=ctx.deadline,
            now=self.now,
            preemptive=self.config.validation_preemptive,
            speed=self.speed,
        )
        if self.obs_on:
            self.obs.observe("rtds.local_test_wall_sec", perf_counter() - _t0)
        if fit is not None:
            slots, gates = fit
            self.plan.commit(slots)
            self.executor.notify_committed(slots, gates)
            if self.trace_on:
                self.trace("job.local_accept", job=ctx.job)
            if self.obs_on:
                # retroactive phases of a locally-admitted job: the "enroll"
                # covers arrival -> decision (kind=local), validation is the
                # instantaneous local test — so every admitted job, local or
                # distributed, renders the same phase taxonomy in the trace
                self.obs.inc("rtds.local_accept")
                self.obs.span(
                    "phase.enroll", ctx.arrival, self.now,
                    site=self.sid, key=ctx.job, kind="local",
                )
                self.obs.span(
                    "phase.validate", self.now, self.now,
                    site=self.sid, key=ctx.job, kind="local",
                )
            self._decide(ctx, JobOutcome.ACCEPTED_LOCAL, hosts=[self.sid])
            return
        if self.trace_on:
            self.trace("job.local_reject", job=ctx.job)
        if self.obs_on:
            self.obs.inc("rtds.local_reject")
        self._initiate(ctx)

    # ------------------------------------------------------------------
    # initiator: ACS construction (§8)
    # ------------------------------------------------------------------

    def _initiate(self, ctx: _JobCtx) -> None:
        if self.pcs is None or len(self.pcs) == 0:
            self._decide(ctx, JobOutcome.REJECTED_NO_SPHERE)
            return
        members = (
            self.pcs.nearest(self.config.max_acs_size)
            if self.config.max_acs_size is not None
            else list(self.pcs.members)
        )
        if not members:
            self._decide(ctx, JobOutcome.REJECTED_NO_SPHERE)
            return
        self.lock.acquire(self.sid, ctx.job)
        session = AcsSession(ctx.job, self.sid, members)
        session.started_at = self.now
        session.ctx = ctx  # attach the job context
        self.session = session
        if self.obs_on:
            self.obs.span_begin(
                "phase.enroll", ctx.job, self.now,
                site=self.sid, asked=len(members),
            )
        if self.trace_on:
            self.trace("acs.enroll", job=ctx.job, asked=len(members))
        queue_budget = 0.0
        if self.config.enroll_mode == "queue":
            frac = self.config.enroll_timeout or 0.25
            queue_budget = max(0.0, (ctx.deadline - self.now) * frac)
        self._phase_attempts = 0
        self._ask_enroll(session, members, queue_budget)
        if self.config.enroll_mode == "queue":
            job = ctx.job
            self._enroll_timer = self.sim.schedule(
                queue_budget, lambda: self._enroll_timeout(job)
            )

    def _ask_enroll(self, s: AcsSession, targets, queue_budget: Time = 0.0) -> None:
        """Send ENROLL for session ``s`` to ``targets`` — all asked members
        at first, the silent ones on a hardened retransmission."""
        job = s.job
        sphere_sites = sorted([*s.asked, self.sid])
        payload = {"job": job, "initiator": self.sid, "members": sphere_sites}
        if self.config.hardened:
            # In queue mode the enrollment may legitimately idle for the
            # whole collection budget (deferred members answer at their own
            # unlock, with no lease-renewing contact in between) — early
            # enrollees must not expire while the initiator is still
            # lawfully waiting.
            payload["lease"] = self._lease_hint(s.asked, s.ctx.dag) + queue_budget
        sphere_broadcast(
            self,
            targets,
            MSG_ENROLL,
            payload,
            size=float(2 + len(sphere_sites)),
        )
        # In queue mode a locked member *intentionally* defers its answer
        # until unlock — the deadline-fraction timer already bounds the
        # wait, and a hardened timer could not tell "queue-deferred"
        # from "crashed" (it would demote waiting members to refusals and
        # a retransmission would enqueue a second deferred handler). The
        # hardened enroll round therefore only arms in refuse mode.
        if self.config.hardened and self.config.enroll_mode == "refuse":
            self._arm_ack_timer(
                lambda: self._enroll_ack_timeout(job),
                targets,
                size=float(5 + len(sphere_sites)),
            )

    def _h_enroll(self, msg: Message) -> None:
        job = msg.payload["job"]
        initiator = msg.payload["initiator"]
        members = msg.payload["members"]
        if self.config.hardened and self.lock.held_by(initiator, job):
            # Retransmitted ENROLL (our ACK was lost): re-answer idempotently.
            # Contact from a live initiator also renews the lease.
            self.trace("acs.re_ack", job=job, initiator=initiator)
            self._count("enroll_re_ack")
            self._renew_lease(initiator, job)
            self._send_enroll_ack(job, initiator, members)
            return
        if self.lock.locked:
            if self.config.enroll_mode == "refuse":
                self.send_to(
                    initiator,
                    MSG_ENROLL_REFUSE,
                    {"job": job, "site": self.sid},
                    size=2.0,
                )
                self.trace("acs.refuse", job=job, initiator=initiator)
            else:
                self.lock.defer(lambda: self._h_enroll(msg))
            return
        self.lock.acquire(initiator, job)
        self._arm_lease(initiator, job, msg.payload.get("lease"))
        if self.trace_on:
            surplus = self.plan.surplus(self.now)
            self.trace("acs.enrolled", job=job, initiator=initiator, surplus=round(surplus, 4))
        self._send_enroll_ack(job, initiator, members)

    def _send_enroll_ack(self, job: JobId, initiator: SiteId, members: List[SiteId]) -> None:
        # memoized per member tuple: every admission from the same initiator
        # asks this site for the same distance vector; dropped with the
        # other route caches whenever a repair touches this row
        dist_key = ("enroll_dist", tuple(members))
        distances = self.route_answers.get(dist_key)
        if distances is None:
            distances = self.routing.table.distances_to(members, exclude=self.sid)
            self.route_answers[dist_key] = distances
        # one timeline walk: busyness is 1 - surplus by definition
        surplus = self.plan.surplus(self.now)
        self.send_to(
            initiator,
            MSG_ENROLL_ACK,
            {
                "job": job,
                "site": self.sid,
                "surplus": surplus,
                "busyness": 1.0 - surplus,
                "speed": self.speed,
                "distances": distances,
            },
            size=float(5 + len(distances)),
        )

    def _h_enroll_ack(self, msg: Message) -> None:
        job = msg.payload["job"]
        site = msg.payload["site"]
        s = self.session
        if (
            s is not None
            and s.job == job
            and s.phase != AcsSession.ENROLLING
            and site in s.enrolled
        ):
            # Duplicate ack of an enrolled member (retransmission race):
            # the member IS in the session — unlocking it would corrupt the
            # validation round. Ignore.
            self.trace("acs.dup_ack", job=job, member=site)
            return
        if s is None or s.job != job or s.phase != AcsSession.ENROLLING:
            # Stale ack (timeout already fired, or session gone): unlock it.
            self.send_to(site, MSG_UNLOCK, {"job": job}, size=1.0)
            return
        s.record_ack(
            EnrolledSite(
                site=msg.payload["site"],
                surplus=msg.payload["surplus"],
                busyness=msg.payload["busyness"],
                speed=msg.payload["speed"],
                distances=msg.payload["distances"],
            )
        )
        if s.enrollment_complete():
            self._start_mapping()

    def _h_enroll_refuse(self, msg: Message) -> None:
        job = msg.payload["job"]
        s = self.session
        if s is None or s.job != job or s.phase != AcsSession.ENROLLING:
            return
        s.record_refusal(msg.payload["site"])
        if s.enrollment_complete():
            self._start_mapping()

    def _enroll_timeout(self, job: JobId) -> None:
        s = self.session
        if s is None or s.job != job or s.phase != AcsSession.ENROLLING:
            return
        self.trace("acs.timeout", job=job, enrolled=len(s.enrolled))
        self._start_mapping()

    # ------------------------------------------------------------------
    # hardening: ack timers, retransmission, leases (DESIGN.md "Fault model")
    # ------------------------------------------------------------------

    def _lease_hint(self, members, dag: Dag) -> Time:
        """Lock lease the initiator asks its members to hold.

        Only the initiator knows the sphere's worst round trip, so it sizes
        the lease and ships it in ENROLL: three ask→answer rounds (enroll,
        validate, execute), each retried up to ``ack_retries`` times, plus
        the mapper's simulated cost. A member-side guess from its own
        distance would make near members of a wide sphere expire mid-way
        through a perfectly healthy session. The round size is bounded by
        the biggest message of the session — the EXECUTE task-code dispatch.
        """
        rounds = 3.0 * (self.config.ack_retries + 1)
        size = max(estimate_code_size(dag), float(6 + len(members)))
        return rounds * self._round_budget(members, size) + self.config.mapper_cost

    def _round_budget(self, members, size: float = 0.0) -> Time:
        """Time to allow one ask→answer round before calling members silent.

        The initiator knows its delay distances (§2) and its adjacent link
        throughputs (§13), so the budget is the physical round trip to the
        farthest queried member — propagation, per-hop transfer time of a
        ``size``-unit message, management overhead — plus ``ack_timeout``
        as grace. A flat timeout would misfire on large spheres or under
        the data-volume model and retransmit to perfectly healthy members.
        """
        dmax = 0.0
        hmax = self.config.h
        if self.pcs is not None and members:
            dmax = max(self.pcs.distance.get(m, 0.0) for m in members)
            hmax = max(self.pcs.hops.get(m, self.config.h) for m in members)
        rtt = 2.0 * dmax + 2.0 * self.mgmt_overhead
        if size > 0.0:
            tps = [self.network.link(self.sid, nb).throughput for nb in self.neighbors()]
            tps = [t for t in tps if t is not None]
            if tps:
                # Request out + ack back, each paying size/throughput per
                # hop — and the broadcast's fan-out serializes on the FIFO
                # links near the initiator (as do the returning acks), so
                # the last copy waits behind up to |members| earlier ones.
                # Bounding the ack by the request keeps this an
                # over-estimate (the paper's safety direction, like ω).
                n = max(1, len(members))
                rtt += 2.0 * (hmax + n) * size / min(tps)
        return rtt + self.config.ack_timeout

    def _arm_ack_timer(self, callback, members=(), size: float = 0.0) -> None:
        self._cancel_ack_timer()
        self._ack_timer = self.sim.schedule(self._round_budget(members, size), callback)

    def _cancel_ack_timer(self) -> None:
        if self._ack_timer is not None:
            self.sim.cancel(self._ack_timer)
            self._ack_timer = None

    def _retry_round(self, job: JobId, rnd: str, event: str, silent, attempts: int) -> bool:
        """Book-keep one expired hardened ask→answer round.

        ``silent`` members have not answered and ``attempts``
        retransmissions were already made. True: retries remain — the
        retransmission is traced and counted, the caller re-asks the
        silent members and re-arms its timer. False: retries are spent —
        the give-up is traced and counted, the caller degrades without
        them. ``rnd`` names the round in counters and telemetry,
        ``event`` prefixes its trace events.
        """
        if attempts < self.config.ack_retries:
            self.trace(event + ".retransmit", job=job, to=silent, attempt=attempts + 1)
            self._count(rnd + "_retransmit")
            if self.obs_on:
                self.obs.inc("rtds.retransmit." + rnd, len(silent))
                self.obs.span(
                    "phase.retransmission", self.now, self.now, site=self.sid,
                    key=job, round=rnd, attempt=attempts + 1,
                )
            return True
        self.trace(event + ".gave_up", job=job, lost=silent)
        self._count(rnd + "_gave_up")
        return False

    def _enroll_ack_timeout(self, job: JobId) -> None:
        """Hardened ENROLL round expired: retransmit to, then give up on,
        the silent members (crashed, partitioned, or ack lost)."""
        self._ack_timer = None
        s = self.session
        if s is None or s.job != job or s.phase != AcsSession.ENROLLING:
            return
        silent = [m for m in s.asked if m not in s.enrolled and m not in s.refused]
        if not silent:  # pragma: no cover - completion should have fired
            return
        if self._retry_round(job, "enroll", "acs", silent, self._phase_attempts):
            self._phase_attempts += 1
            self._ask_enroll(s, silent)
            return
        # Degrade: treat the silent members as refusals and proceed with
        # whoever answered (possibly nobody -> REJECTED_NO_SPHERE).
        for m in silent:
            s.record_refusal(m)
        if s.enrollment_complete():
            self._start_mapping()

    def _validate_ack_timeout(self, job: JobId) -> None:
        """Hardened VALIDATE round expired: retransmit, then count the
        silent members as endorsing nothing."""
        self._ack_timer = None
        s = self.session
        if s is None or s.job != job or s.phase != AcsSession.VALIDATING:
            return
        silent = [m for m in s.acs_members() if m not in s.endorsements]
        if not silent:  # pragma: no cover - completion should have fired
            return
        if self._retry_round(job, "validate", "validate", silent, self._phase_attempts):
            self._phase_attempts += 1
            self._ask_validate(silent)
            return
        for m in silent:
            s.record_endorsement(m, [])
        if s.validation_complete():
            self._decide_permutation()

    def _execute_ack_timeout(self, job: JobId) -> None:
        """Hardened EXECUTE round expired: retransmit to the unacked
        members, then accept the loss (their task share is gone; the miss
        shows up in the effective ratio — churn is not free)."""
        pe = self._pending_execute.get(job)
        if pe is None:
            return
        pe["timer"] = None
        targets = sorted(pe["unacked"])
        if self._retry_round(job, "execute", "execute", targets, pe["attempts"]):
            pe["attempts"] += 1
            sphere_broadcast(self, targets, MSG_EXECUTE, pe["payload"], size=pe["size"])
            pe["timer"] = self.sim.schedule(
                self._round_budget(targets, pe["size"]),
                lambda: self._execute_ack_timeout(job),
            )
            return
        del self._pending_execute[job]

    def _h_execute_ack(self, msg: Message) -> None:
        job = msg.payload["job"]
        pe = self._pending_execute.get(job)
        if pe is None:
            return  # late ack of an already-settled round
        pe["unacked"].discard(msg.payload["site"])
        if not pe["unacked"]:
            if pe["timer"] is not None:
                self.sim.cancel(pe["timer"])
            del self._pending_execute[job]
            self.trace("execute.all_acked", job=job)

    def _arm_lease(self, initiator: SiteId, job: JobId, hint: Optional[Time]) -> None:
        """Member-side lock lease: self-release if the initiator vanishes.

        The duration is the initiator's ENROLL ``hint`` (it alone knows the
        sphere's worst round trip — see :meth:`_lease_hint`) unless the
        operator pinned ``member_lease`` explicitly; the config-derived
        fallback only covers hint-less messages.
        """
        if self.config.member_lease is not None:
            lease = self.config.member_lease
        elif hint is not None:
            lease = hint
        else:
            lease = self.config.effective_lease
        if lease is None:
            return
        self._cancel_lease()
        self._lease_owner = (initiator, job)
        self._lease_duration = lease
        self._lease_timer = self.sim.schedule_call(
            lease, self._lease_expired_call, (initiator, job)
        )

    def _renew_lease(self, initiator: SiteId, job: JobId) -> None:
        """Restart the lease clock: the initiator just showed life."""
        if self._lease_owner == (initiator, job) and self._lease_timer is not None:
            self.sim.cancel(self._lease_timer)
            self._lease_timer = self.sim.schedule_call(
                self._lease_duration, self._lease_expired_call, (initiator, job)
            )

    def _lease_expired_call(self, owner: Tuple[SiteId, JobId]) -> None:
        self._lease_expired(owner[0], owner[1])

    def _cancel_lease(self) -> None:
        if self._lease_timer is not None:
            self.sim.cancel(self._lease_timer)
            self._lease_timer = None
            self._lease_owner = None

    def _lease_expired(self, initiator: SiteId, job: JobId) -> None:
        self._lease_timer = None
        self._lease_owner = None
        if not self.lock.held_by(initiator, job):
            return
        self.trace("lock.lease_expired", job=job, by=initiator)
        self._count("lease_expired")
        self._validate_cache.pop(job, None)
        self._validate_ack.pop(job, None)
        self.admission_cache.invalidate_job(job)
        self.lock.release(initiator, job)
        self._drain_deferred()

    # ------------------------------------------------------------------
    # initiator: mapping + adjustment (§9, §12)
    # ------------------------------------------------------------------

    def _start_mapping(self) -> None:
        s = self.session
        assert s is not None
        s.phase = AcsSession.MAPPING
        if self._enroll_timer is not None:
            self.sim.cancel(self._enroll_timer)
            self._enroll_timer = None
        self._cancel_ack_timer()
        if self.obs_on:
            self.obs.span_end("phase.enroll", s.job, self.now, ok=bool(s.enrolled))
            self.obs.span_begin(
                "phase.map", s.job, self.now,
                site=self.sid, enrolled=len(s.enrolled),
            )
        if not s.enrolled:
            # Nobody available: the job cannot be distributed.
            self._finish_session(JobOutcome.REJECTED_NO_SPHERE, unlock_members=False)
            return
        if self.config.mapper_cost > 0:
            self.sim.schedule(self.config.mapper_cost, self._run_mapper)
        else:
            self._run_mapper()

    def _run_mapper(self) -> None:
        s = self.session
        assert s is not None and s.phase == AcsSession.MAPPING
        ctx = s.ctx
        members = s.acs_members()
        initiator_dist = {m: self.pcs.distance[m] for m in members}
        omega = sphere_diameter(
            self.sid, initiator_dist, {m: s.enrolled[m].distances for m in members}
        )
        radius = sphere_radius(initiator_dist, members)
        r_map = self.now + self.config.protocol_margin_factor * radius
        # §13 data-volume model: with finite link throughput, every hop of a
        # transfer costs size/throughput on top of propagation delay. The
        # sphere's hop diameter is bounded by 2h, so budgeting 2h transfer
        # quanta keeps ω an over-estimate (the paper's safety direction);
        # likewise the release margin must absorb the VALIDATE round and the
        # task-code dispatch, whose paths are at most h hops.
        if self.config.volume_aware_omega:
            tps = [
                self.network.link(self.sid, nb).throughput
                for nb in self.neighbors()
            ]
            tps = [t for t in tps if t is not None]
            if tps:
                tp = min(tps)
                max_dv = max(
                    (ctx.dag.task(t).data_volume for t in ctx.dag), default=0.0
                )
                omega += (2 * self.config.h) * max_dv / tp
                validate_size = len(ctx.dag) + 2.0
                r_map += (
                    self.config.h
                    * (estimate_code_size(ctx.dag) + validate_size)
                    / tp
                )
        if r_map >= ctx.deadline:
            self._finish_session(JobOutcome.REJECTED_TIMEOUT)
            return

        # Logical processors: ACS candidates by descending surplus. The
        # initiator itself is always a candidate (it is in its own sphere).
        own_surplus = self.plan.surplus(self.now)
        cands: List[Tuple[float, float, float, SiteId]] = [
            (own_surplus, self.speed, 1.0 - own_surplus, self.sid)
        ]
        for m in members:
            e = s.enrolled[m]
            cands.append((e.surplus, e.speed, e.busyness, m))
        cands.sort(key=lambda x: (-x[0], x[3]))
        specs = []
        for i, (surplus, speed, busyness, site) in enumerate(cands):
            timeline = None
            if self.config.local_knowledge and site == self.sid:
                timeline = self.plan.scratch_timeline()
            specs.append(
                LogicalProcSpec(
                    index=i,
                    surplus=max(surplus, 1e-3),  # a fully busy site still enrolls
                    speed=speed,
                    busyness=busyness,
                    timeline=timeline,
                )
            )
        _t0 = perf_counter() if self.obs_on else 0.0
        tm = build_trial_mapping(
            ctx.job, ctx.dag, specs, omega, r_map,
            obs=self.obs if self.obs_on else None,
        )
        if self.obs_on:
            self.obs.observe("rtds.mapper_wall_sec", perf_counter() - _t0)
            self.obs.inc("rtds.mapper_runs")
        adj = adjust_trial_mapping(tm, ctx.deadline, self.config.laxity_mode)
        s.trial_mapping = tm
        s.adjustment = adj
        self.trace(
            "map.done",
            job=ctx.job,
            case=adj.case,
            omega=round(omega, 3),
            m=round(tm.makespan, 3),
            mstar=round(adj.mstar, 3),
            procs=len(tm.used_procs()),
        )
        if not adj.accepted:
            self._finish_session(JobOutcome.REJECTED_MAPPER)
            return
        self._start_validation()

    # ------------------------------------------------------------------
    # validation (§10)
    # ------------------------------------------------------------------

    def _validate_payload(self) -> Dict[int, List[Tuple[TaskId, float, Time, Time]]]:
        s = self.session
        tm = s.trial_mapping
        procs: Dict[int, List[Tuple[TaskId, float, Time, Time]]] = {}
        for p in tm.used_procs():
            procs[p] = [
                (t, tm.dag.complexity(t), tm.release[t], tm.deadline[t])
                for t in tm.tasks_on(p)
            ]
        return procs

    def _ask_validate(self, targets):
        """Send VALIDATE to ``targets`` — the whole ACS at first, the silent
        members on a hardened retransmission; returns the payload's procs."""
        job = self.session.job
        procs = self._validate_payload()
        size = float(sum(len(v) for v in procs.values()) + 2)
        sphere_broadcast(
            self,
            targets,
            MSG_VALIDATE,
            {"job": job, "initiator": self.sid, "procs": procs},
            size=size,
        )
        if self.config.hardened:
            self._arm_ack_timer(lambda: self._validate_ack_timeout(job), targets, size=size)
        return procs

    def _start_validation(self) -> None:
        s = self.session
        assert s is not None
        s.phase = AcsSession.VALIDATING
        if self.obs_on:
            self.obs.span_end("phase.map", s.job, self.now)
            self.obs.span_begin("phase.validate", s.job, self.now, site=self.sid)
        self._phase_attempts = 0
        procs = self._ask_validate(s.acs_members())
        # The initiator endorses locally with the same test.
        endorsed, slots = self.admission_cache.endorse(
            self.plan,
            s.job,
            procs,
            self.now,
            preemptive=self.config.validation_preemptive,
            speed=self.speed,
            order=self.config.validation_order,
        )
        s.own_slots = slots
        s.record_endorsement(self.sid, endorsed)
        if self.trace_on:
            self.trace("validate.self", job=s.job, endorsed=endorsed)
        if s.validation_complete():
            self._decide_permutation()

    def _h_validate(self, msg: Message) -> None:
        job = msg.payload["job"]
        initiator = msg.payload["initiator"]
        if self.config.hardened and self.lock.held_by(initiator, job) and job in self._validate_ack:
            # Retransmitted VALIDATE (our ACK was lost): re-answer with the
            # cached verdict — recomputing could endorse differently now.
            self.trace("validate.re_ack", job=job)
            self._count("validate_re_ack")
            self._renew_lease(initiator, job)
            self.send_to(
                initiator,
                MSG_VALIDATE_ACK,
                {"job": job, "site": self.sid, "endorsed": list(self._validate_ack[job])},
                size=float(2 + len(self._validate_ack[job])),
            )
            return
        if not self.lock.held_by(initiator, job):
            if self.config.hardened:
                # Our enrollment never reached the initiator's session (or
                # the lease expired): we hold no slots, endorse nothing.
                self.trace("validate.stale", job=job, initiator=initiator)
                self._count("stale_validate")
                self.send_to(
                    initiator,
                    MSG_VALIDATE_ACK,
                    {"job": job, "site": self.sid, "endorsed": []},
                    size=2.0,
                )
                return
            raise ProtocolError(
                f"site {self.sid}: VALIDATE for ({initiator}, {job}) "
                f"but lock is {self.lock.owner}"
            )
        self._renew_lease(initiator, job)
        procs = msg.payload["procs"]
        endorsed, slots = self.admission_cache.endorse(
            self.plan,
            job,
            procs,
            self.now,
            preemptive=self.config.validation_preemptive,
            speed=self.speed,
            order=self.config.validation_order,
        )
        self._validate_cache[job] = slots
        if self.config.hardened:
            self._validate_ack[job] = list(endorsed)
        if self.trace_on:
            self.trace("validate.member", job=job, endorsed=endorsed)
        self.send_to(
            initiator,
            MSG_VALIDATE_ACK,
            {"job": job, "site": self.sid, "endorsed": endorsed},
            size=float(2 + len(endorsed)),
        )

    def _h_validate_ack(self, msg: Message) -> None:
        job = msg.payload["job"]
        s = self.session
        if s is None or s.job != job or s.phase != AcsSession.VALIDATING:
            if self.config.hardened:
                # Late ack: the round already timed out and moved on.
                self.trace("validate.stale_ack", job=job, member=msg.payload["site"])
                self._count("stale_validate_ack")
                return
            raise ProtocolError(f"site {self.sid}: unexpected VALIDATE_ACK for job {job}")
        site = msg.payload["site"]
        if self.config.hardened and site not in s.enrolled and site != self.sid:
            # Defensive: an empty stale-VALIDATE answer from a site that was
            # never enrolled in this session must not enter the coupling.
            self.trace("validate.foreign_ack", job=job, member=site)
            return
        s.record_endorsement(site, msg.payload["endorsed"])
        if s.validation_complete():
            self._decide_permutation()

    def _decide_permutation(self) -> None:
        s = self.session
        assert s is not None
        self._cancel_ack_timer()
        tm = s.trial_mapping
        perm = compute_permutation(tm.used_procs(), s.endorsements)
        if self.obs_on:
            self.obs.span_end("phase.validate", s.job, self.now, ok=perm is not None)
        if perm is None:
            self.trace("validate.fail", job=s.job)
            self._finish_session(JobOutcome.REJECTED_VALIDATION)
            return
        if self.trace_on:
            self.trace("validate.ok", job=s.job, permutation={p: site for p, site in perm.items()})
        self._dispatch_execution(perm)

    # ------------------------------------------------------------------
    # distributed execution (§11)
    # ------------------------------------------------------------------

    def _dispatch_execution(self, perm: Dict[LogicalProc, SiteId]) -> None:
        s = self.session
        tm = s.trial_mapping
        ctx = s.ctx
        host = {t: perm[tm.assignment[t]] for t in tm.dag}
        preds = {t: list(tm.dag.predecessors(t)) for t in tm.dag}
        succs = {t: list(tm.dag.successors(t)) for t in tm.dag}
        volumes = {t: tm.dag.task(t).data_volume for t in tm.dag}
        payload = {
            "job": s.job,
            "permutation": perm,
            "host": host,
            "preds": preds,
            "succs": succs,
            "volumes": volumes,
            "deadline": ctx.deadline,
        }
        members = s.acs_members()
        code_size = estimate_code_size(tm.dag)
        sphere_broadcast(self, members, MSG_EXECUTE, payload, size=code_size)
        if self.config.hardened and members:
            # EXECUTE is the one fire-and-forget step of the base protocol:
            # a lost copy would strand a locked member and silently shed its
            # task share. Track acks and retransmit.
            self._pending_execute[s.job] = {
                "payload": payload,
                "unacked": set(members),
                "attempts": 0,
                "size": code_size,
                "timer": self.sim.schedule(
                    self._round_budget(members, code_size),
                    lambda job=s.job: self._execute_ack_timeout(job),
                ),
            }
        # The initiator's own share.
        my_procs = [p for p, site in perm.items() if site == self.sid]
        if my_procs:
            self._commit_assignment(s.job, my_procs[0], s.own_slots, host, preds, volumes)
        hosts = sorted(set(perm.values()))
        if self.obs_on:
            self.obs.inc("rtds.distributed_accept")
            self.obs.observe("rtds.acs_size", len(members) + 1)
        self._decide(ctx, JobOutcome.ACCEPTED_DISTRIBUTED, hosts=hosts, acs_size=len(members) + 1)
        s.phase = AcsSession.FINISHED
        self.session = None
        self.admission_cache.invalidate_job(s.job)
        self._release_own_lock(s.job)

    def _h_execute(self, msg: Message) -> None:
        job = msg.payload["job"]
        perm: Dict[LogicalProc, SiteId] = msg.payload["permutation"]
        initiator = msg.origin
        if not self.lock.held_by(initiator, job):
            if self.config.hardened:
                done = self._exec_done.get(job)
                if done is not None and done[0] == initiator:
                    # Duplicate EXECUTE (our ack was lost): re-ack, done.
                    self.trace("execute.re_ack", job=job)
                    self._count("execute_re_ack")
                    self._send_execute_ack(job, initiator)
                    return
                # Lease expired before EXECUTE arrived: the validation slots
                # are gone, so this share cannot be committed truthfully.
                # Stay silent — the initiator's retransmission loop will
                # give up and record the loss.
                self.trace("execute.stale", job=job, by=initiator)
                self._count("stale_execute")
                return
            raise ProtocolError(
                f"site {self.sid}: EXECUTE for ({initiator}, {job}) "
                f"but lock is {self.lock.owner}"
            )
        slots_by_proc = self._validate_cache.pop(job, {})
        self.admission_cache.invalidate_job(job)
        my_procs = [p for p, site in perm.items() if site == self.sid]
        if my_procs:
            self._commit_assignment(
                job,
                my_procs[0],
                slots_by_proc,
                msg.payload["host"],
                msg.payload["preds"],
                msg.payload["volumes"],
            )
        elif self.trace_on:
            self.trace("execute.bystander", job=job)
        if self.config.hardened:
            self._validate_ack.pop(job, None)
            self._exec_done[job] = (initiator, self.now)
            self._cancel_lease()
            self._send_execute_ack(job, initiator)
        self.lock.release(initiator, job)
        self._drain_deferred()

    def _send_execute_ack(self, job: JobId, initiator: SiteId) -> None:
        self.send_to(
            initiator, MSG_EXECUTE_ACK, {"job": job, "site": self.sid}, size=2.0
        )

    def _commit_assignment(
        self,
        job: JobId,
        proc: LogicalProc,
        slots_by_proc: Dict[LogicalProc, list],
        host: Dict[TaskId, SiteId],
        preds: Dict[TaskId, List[TaskId]],
        volumes: Dict[TaskId, float],
    ) -> None:
        slots = slots_by_proc.get(proc)
        if slots is None:
            raise ProtocolError(
                f"site {self.sid}: assigned logical proc {proc} for job {job} "
                "but no cached validation slots (endorsement mismatch)"
            )
        self.hosting.commit(job, slots, host, preds, volumes)
        if self.trace_on:
            self.trace(
                "execute.commit", job=job, proc=proc,
                tasks=sorted({r.task for r in slots}, key=repr),
            )

    def _h_unlock(self, msg: Message) -> None:
        job = msg.payload["job"]
        initiator = msg.origin
        if self.lock.held_by(initiator, job):
            self._validate_cache.pop(job, None)
            self._validate_ack.pop(job, None)
            self.admission_cache.invalidate_job(job)
            self._cancel_lease()
            self.lock.release(initiator, job)
            if self.trace_on:
                self.trace("lock.released", job=job, by=initiator)
            self._drain_deferred()
        elif self.trace_on:
            # Stale unlock (queue-mode race); harmless.
            self.trace("lock.stale_unlock", job=job, by=initiator)

    # ------------------------------------------------------------------
    # session teardown & lock plumbing
    # ------------------------------------------------------------------

    def _finish_session(self, outcome: JobOutcome, unlock_members: bool = True) -> None:
        s = self.session
        assert s is not None
        self._cancel_ack_timer()
        if self.obs_on:
            # whichever phase the session died in: close its span as failed
            # so the trace never leaks an open interval on rejection
            for cat in ("phase.enroll", "phase.map", "phase.validate"):
                self.obs.span_end(cat, s.job, self.now, ok=False)
            self.obs.inc("rtds.reject." + outcome.value)
        ctx = s.ctx
        members = s.acs_members()
        if unlock_members and members:
            sphere_broadcast(self, members, MSG_UNLOCK, {"job": s.job}, size=1.0)
        s.phase = AcsSession.FINISHED
        self.session = None
        self.admission_cache.invalidate_job(s.job)
        self._decide(ctx, outcome, acs_size=len(members) + 1 if members else None)
        self._release_own_lock(s.job)

    def _release_own_lock(self, job: JobId) -> None:
        self.lock.release(self.sid, job)
        self._drain_deferred()

    def _drain_deferred(self) -> None:
        while not self.lock.locked and self.lock.deferred:
            thunk = self.lock.deferred.popleft()
            thunk()

    def _decide(
        self,
        ctx: _JobCtx,
        outcome: JobOutcome,
        hosts: Optional[List[SiteId]] = None,
        acs_size: Optional[int] = None,
    ) -> None:
        if self.trace_on:
            self.trace("job.decision", job=ctx.job, outcome=outcome.value)
        if self.metrics is not None:
            self.metrics.decide(ctx.job, outcome, self.now, hosts=hosts, acs_size=acs_size)

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------

    def prune_history(self, before: Time) -> int:
        """Forget finished work older than ``before`` (long-run hygiene).

        Safe by construction: admission only ever inserts at/after "now",
        and the surplus window looks forward, so dropping reservations that
        *ended* before ``before`` cannot change any future decision.
        Returns the number of plan reservations dropped.
        """
        n = self.plan.prune_before(before)
        self.executor.prune_done_before(before)
        # result-forwarding info for jobs whose local tasks are all gone
        live_jobs = {key[0] for key in self.executor.records()}
        self.hosting.prune(live_jobs)
        # Hardening caches. The EXECUTE duplicate-detection entries are
        # pruned by *age*, not liveness: a bystander member (no local
        # tasks) must keep re-acking while the initiator's retransmission
        # round — state this site cannot see — may still be running, and
        # any such round is long over once the entry predates ``before``.
        for job, (_, when) in list(self._exec_done.items()):
            if when < before:
                del self._exec_done[job]
        for job in list(self._validate_ack):
            if job not in live_jobs:
                del self._validate_ack[job]
        return n

    # ------------------------------------------------------------------
    # sphere envelope
    # ------------------------------------------------------------------

    def _h_sphere(self, msg: Message) -> None:
        inner = handle_sphere_message(self, msg)
        if inner is None:
            return
        unwrapped = Message(
            inner["mtype"],
            msg.src,
            self.sid,
            inner["origin"],
            None,
            inner["payload"],
            msg.size,
        )
        self._dispatch(unwrapped)
