"""The RTDS site: the full distributed protocol (paper §4–§11).

One :class:`RTDSSite` per network node. Each site runs, independently:

* at system start, the phased Bellman–Ford; its PCS (§7) is derived from
  the finished table on first use (most sites of a wide network never
  initiate a round, so they never pay for a sphere);
* on job arrival, the **local test** (§5); if it fails, the site becomes
  *initiator*: it enrolls its PCS into an ACS (§8), runs the Mapper (§9/§12)
  and the adjustment (§12.2), broadcasts the Trial-Mapping for validation
  (§10), computes the coupling, and dispatches the permutation + task code
  (§11);
* as a *member*, it answers enrollments with its surplus, validates task
  sets against its own plan, and commits/unlocks on EXECUTE/UNLOCK
  (:class:`repro.core.member.MemberSide`, reached as ``site.member``);
* as a *host*, its compute processor executes committed reservations and
  forwards task results to the sites hosting successor tasks
  (:class:`repro.core.hosting.HostSide`, ``site.hosting``).

This module is the *initiator's* algorithm — arrival, local test, enroll →
map → validate → dispatch, each phase boundary one named method — on the
substrate every scheduler site shares (:mod:`repro.core.substrate`). Under
a fault plan each ask→answer round is additionally watched by an
:class:`repro.core.rounds.AckRound`; that is the whole of the initiator's
hardening, decided in :meth:`repro.core.rounds.Rounds.watch`.

Locking discipline (DESIGN.md "Lock semantics"): while a site's lock is
held, everything that would mutate its plan — its own job arrivals, foreign
enrollments in ``queue`` mode — is deferred and replayed FIFO at unlock;
in ``refuse`` mode foreign enrollments get an explicit busy-refusal instead.
RESULT messages only open executor gates and pass through locks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.adjustment import adjust_trial_mapping
from repro.core.admission_cache import AdmissionCache
from repro.core.config import RTDSConfig
from repro.core.events import JobOutcome
from repro.core.hosting import HostSide
from repro.core.local_test import local_guarantee_test
from repro.core.mapper import build_trial_mapping
from repro.core.member import MemberSide
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
from repro.core.rounds import Rounds, lease_hint
from repro.core.substrate import SchedulerSite
from repro.core.trial_mapping import LogicalProcSpec
from repro.core.validation import compute_permutation
from repro.errors import ProtocolError
from repro.graphs.dag import Dag
from repro.graphs.serialization import estimate_code_size
from repro.simnet.message import Message
from repro.simnet.network import Network
from repro.spheres.acs import AcsSession, EnrolledSite, SiteLock
from repro.spheres.diameter import sphere_diameter, sphere_radius
from repro.spheres.pcs import PCS, build_pcs, handle_sphere_message, pcs_size, sphere_broadcast
from repro.types import JobId, LogicalProc, SiteId, TaskId, Time

#: queue-mode collection budget, as a fraction of the time left to the
#: job's deadline when its enrollment starts
ENROLL_BUDGET_FRACTION = 0.25
#: the §13 release augmentation: the Trial-Mapping's job release is
#: ``now + factor × (delay radius of the ACS from k)``, covering the
#: validation round trip and the code dispatch (the Mapper itself runs
#: inline, in zero simulated time)
PROTOCOL_MARGIN_FACTOR = 3.0


@dataclass
class _JobCtx:
    """A job waiting for / undergoing the protocol on its arrival site."""

    job: JobId
    dag: Dag
    deadline: Time
    arrival: Time
    was_deferred: bool = False


class RTDSSite(SchedulerSite):
    """A network site running the RTDS protocol."""

    def __init__(
        self,
        sid: SiteId,
        network: Network,
        config: RTDSConfig,
        speed: float = 1.0,
        metrics=None,
        routing_factory=None,
        surplus_window: float = 200.0,
    ) -> None:
        super().__init__(
            sid, network, config.pcs_phases, surplus_window, speed, metrics,
            routing_factory, on_routing_done=self._routing_done,
        )
        self.config = config
        #: §11 host side: gates, RESULT forwarding, RESULT delivery
        self.hosting = HostSide(self, MSG_RESULT)
        #: the PCS memo: built on the first read of :attr:`pcs` after routing
        self._pcs: Optional[PCS] = None
        # One admission cache per network, shared by all sites (cross-site
        # result sharing via the plan state digest); the experiment runner
        # attaches a pre-configured one, standalone sites get a default.
        cache = getattr(network, "admission_cache", None)
        if cache is None:
            cache = AdmissionCache()
            network.admission_cache = cache
        self.admission_cache = cache
        self.lock = SiteLock(sid)
        #: member side: ENROLL / VALIDATE / EXECUTE / UNLOCK and the tenancy
        self.member = MemberSide(self)
        #: initiator-side session (one at a time; the lock enforces it)
        self.session: Optional[AcsSession] = None
        #: hardened ask→answer rounds still waiting for answers (none, ever,
        #: in the paper's loss-less protocol)
        self.rounds = Rounds(self)
        #: jobs submitted before routing finished
        self._pre_routing: List[_JobCtx] = []
        #: queue-mode collection timer (the paper's deadline-fraction budget)
        self._enroll_timer = None

        self.on(MSG_SPHERE, self._h_sphere)
        self.on(MSG_ENROLL_ACK, self._h_enroll_ack)
        self.on(MSG_ENROLL_REFUSE, self._h_enroll_refuse)
        self.on(MSG_VALIDATE_ACK, self._h_validate_ack)
        self.on(MSG_EXECUTE_ACK, self._h_execute_ack)

    # -- initialization ------------------------------------------------------

    @property
    def pcs(self) -> Optional[PCS]:
        """This site's PCS, ``None`` until routing is done.

        Built from the current routing table on the first read and kept
        until routing (re)completes or :meth:`refresh_sphere` drops it.
        """
        pcs = self._pcs
        if pcs is None and self.routing.done:
            pcs = self._pcs = build_pcs(self.routing.table, self.config.h)
        return pcs

    def sphere_size(self) -> Optional[int]:
        """``len(self.pcs)`` without building the sphere (``None`` before
        routing is done)."""
        if not self.routing.done:
            return None
        return pcs_size(self.routing.table, self.config.h)

    def _routing_done(self) -> None:
        self._pcs = None
        if self.trace_on:
            self.trace("pcs.built", h=self.config.h, members=self.sphere_size())
        pending, self._pre_routing = self._pre_routing, []
        for ctx in pending:
            ctx.was_deferred = True
            self._consider(ctx)

    def refresh_sphere(self) -> None:
        """Drop the PCS so the next read derives it from the (repaired)
        routing table.

        The membership layer calls this after an incremental routing
        repair touched this site's row (a join inside the sphere radius).
        Pure re-derivation — no deferred-job replay, no messages: jobs in
        flight keep the decision path they started on.
        """
        if not self.routing.done:
            return
        self._pcs = None
        if self.trace_on:
            self.trace("pcs.refreshed", h=self.config.h, members=self.sphere_size())

    # -- job arrival (driver entry point) ------------------------------------

    def submit_job(self, job: JobId, dag: Dag, deadline: Time) -> None:
        """A sporadic job arrives on this site (absolute ``deadline``)."""
        ctx = _JobCtx(job=job, dag=dag, deadline=deadline, arrival=self.now)
        self.register_arrival(job, dag, deadline)
        if self.trace_on:
            self.trace("job.arrival", job=job, tasks=len(dag), deadline=deadline)
        if not self.routing.done:
            self._pre_routing.append(ctx)
            return
        ctx.was_deferred = not self.lock.may_change_plan()
        self._consider(ctx)

    def _consider(self, ctx: _JobCtx) -> None:
        """Local test, then (if needed) start the distributed protocol —
        once the lock lets the plan change: whatever would mutate it waits."""
        if not self.lock.may_change_plan():
            self.lock.defer(lambda: self._consider(ctx))
            return
        # A deferred job may have become hopeless while waiting: even an
        # ideal schedule needs the critical path length.
        if ctx.was_deferred:
            cp = ctx.dag.critical_path_length() / self.speed
            if self.now + cp > ctx.deadline + 1e-9:
                self.decide(ctx, JobOutcome.REJECTED_TIMEOUT)
                return
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
        if fit is not None:
            slots, gates = fit
            self.plan.commit(slots)
            self.executor.notify_committed(slots, gates)
            if self.trace_on:
                self.trace("job.local_accept", job=ctx.job)
            self.decide(ctx, JobOutcome.ACCEPTED_LOCAL, hosts=[self.sid])
            return
        if self.trace_on:
            self.trace("job.local_reject", job=ctx.job)
        self._initiate(ctx)

    # -- initiator: ACS construction (§8) ------------------------------------

    def _initiate(self, ctx: _JobCtx) -> None:
        pcs = self.pcs
        if pcs is None or len(pcs) == 0:
            self.decide(ctx, JobOutcome.REJECTED_NO_SPHERE)
            return
        members = (
            pcs.nearest(self.config.max_acs_size)
            if self.config.max_acs_size is not None
            else list(pcs.members)
        )
        if not members:
            self.decide(ctx, JobOutcome.REJECTED_NO_SPHERE)
            return
        self.lock.acquire(self.sid, ctx.job)
        session = AcsSession(ctx.job, self.sid, members)
        session.ctx = ctx  # attach the job context
        self.session = session
        if self.trace_on:
            self.trace("acs.enroll", job=ctx.job, asked=len(members))
        if self.config.enroll_mode == "queue":
            # In queue mode a locked member *intentionally* defers its answer
            # until unlock — the deadline-fraction timer already bounds the
            # wait, and a hardened round could not tell "queue-deferred"
            # from "crashed" (it would demote waiting members to refusals and
            # a retransmission would enqueue a second deferred handler). The
            # enroll round is therefore only watched in refuse mode.
            queue_budget = max(0.0, (ctx.deadline - self.now) * ENROLL_BUDGET_FRACTION)
            self._send_enroll(session, members, queue_budget)
            job = ctx.job
            self._enroll_timer = self.sim.schedule(
                queue_budget, lambda: self._enroll_timeout(job)
            )
        else:
            self._send_enroll(session, members)
            self.rounds.watch(
                ctx.job, "enroll", "acs", members, float(5 + len(session.asked) + 1),
                lambda silent: self._send_enroll(session, silent), self._refused,
            )

    def _send_enroll(self, s: AcsSession, targets, queue_budget: Time = 0.0) -> None:
        """Send ENROLL for session ``s`` to ``targets`` — all asked members
        at first, the silent ones on a hardened retransmission."""
        sphere_sites = sorted([*s.asked, self.sid])
        payload = {"job": s.job, "initiator": self.sid, "members": sphere_sites}
        if self.config.hardened:
            # In queue mode the enrollment may legitimately idle for the
            # whole collection budget (deferred members answer at their own
            # unlock, with no lease-renewing contact in between) — early
            # enrollees must not expire while the initiator is still
            # lawfully waiting.
            payload["lease"] = lease_hint(self, s.asked, s.ctx.dag) + queue_budget
        sphere_broadcast(
            self,
            targets,
            MSG_ENROLL,
            payload,
            size=float(2 + len(sphere_sites)),
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
        self.rounds.answered(job, site)
        if s.enrollment_complete():
            self._start_mapping()

    def _h_enroll_refuse(self, msg: Message) -> None:
        job = msg.payload["job"]
        s = self.session
        if s is None or s.job != job or s.phase != AcsSession.ENROLLING:
            return
        self.rounds.answered(job, msg.payload["site"])
        self._refused([msg.payload["site"]])

    def _enroll_timeout(self, job: JobId) -> None:
        s = self.session
        if s is None or s.job != job or s.phase != AcsSession.ENROLLING:
            return
        self.trace("acs.timeout", job=job, enrolled=len(s.enrolled))
        self._start_mapping()

    def _refused(self, members: List[SiteId]) -> None:
        """``members`` are out — busy, or (the hardened round's degrade)
        silent past the retries: proceed with whoever answered once everyone
        asked is accounted for (possibly nobody -> REJECTED_NO_SPHERE)."""
        s = self.session
        for m in members:
            s.record_refusal(m)
        if s.enrollment_complete():
            self._start_mapping()

    # -- initiator: mapping + adjustment (§9, §12) ---------------------------

    def _start_mapping(self) -> None:
        s = self.session
        assert s is not None
        s.phase = AcsSession.MAPPING
        if self._enroll_timer is not None:
            self.sim.cancel(self._enroll_timer)
            self._enroll_timer = None
        self.rounds.close(s.job)
        if not s.enrolled:
            # Nobody available: the job cannot be distributed.
            self._finish_session(JobOutcome.REJECTED_NO_SPHERE, unlock_members=False)
            return
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
        r_map = self.now + PROTOCOL_MARGIN_FACTOR * radius
        # §13 data-volume model: with finite link throughput, every hop of a
        # transfer costs size/throughput on top of propagation delay. The
        # sphere's hop diameter is bounded by 2h, so budgeting 2h transfer
        # quanta keeps ω an over-estimate (the paper's safety direction);
        # likewise the release margin must absorb the VALIDATE round and the
        # task-code dispatch, whose paths are at most h hops.
        tp = self.min_adjacent_throughput() if self.config.volume_aware_omega else None
        if tp is not None:
            max_dv = max((ctx.dag.data_volume(t) for t in ctx.dag), default=0.0)
            omega += (2 * self.config.h) * max_dv / tp
            validate_size = len(ctx.dag) + 2.0
            r_map += self.config.h * (estimate_code_size(ctx.dag) + validate_size) / tp
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
                # read-only: the mapper probes its own tail copy past r_map
                timeline = self.plan.timeline
            specs.append(
                LogicalProcSpec(
                    index=i,
                    surplus=max(surplus, 1e-3),  # a fully busy site still enrolls
                    speed=speed,
                    busyness=busyness,
                    timeline=timeline,
                )
            )
        tm = build_trial_mapping(ctx.job, ctx.dag, specs, omega, r_map)
        adj = adjust_trial_mapping(tm, ctx.deadline, self.config.laxity_mode)
        s.trial_mapping = tm
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

    # -- validation (§10) ----------------------------------------------------

    def _send_validate(self, targets):
        """Send VALIDATE to ``targets`` — the whole ACS at first, the silent
        members on a hardened retransmission; returns ``(procs, size)``."""
        tm = self.session.trial_mapping
        procs: Dict[int, List[Tuple[TaskId, float, Time, Time]]] = {
            p: [
                (t, tm.dag.complexity(t), tm.release[t], tm.deadline[t])
                for t in tm.tasks_on(p)
            ]
            for p in tm.used_procs()
        }
        size = float(sum(len(v) for v in procs.values()) + 2)
        sphere_broadcast(
            self,
            targets,
            MSG_VALIDATE,
            {"job": self.session.job, "initiator": self.sid, "procs": procs},
            size=size,
        )
        return procs, size

    def _start_validation(self) -> None:
        s = self.session
        assert s is not None
        s.phase = AcsSession.VALIDATING
        members = s.acs_members()
        procs, size = self._send_validate(members)
        self.rounds.watch(
            s.job, "validate", "validate", members, size,
            self._send_validate, self._validate_gave_up,
        )
        # The initiator endorses locally with the same test.
        endorsed, s.own_slots = self.endorse(s.job, procs)
        s.record_endorsement(self.sid, endorsed)
        if self.trace_on:
            self.trace("validate.self", job=s.job, endorsed=endorsed)
        if s.validation_complete():
            self._decide_permutation()

    def endorse(self, job: JobId, procs):
        """§10 local satisfiability of the VALIDATE payload ``procs`` against
        this site's plan (memoized network-wide): ``(endorsed, slots)``."""
        return self.admission_cache.endorse(
            self.plan, job, procs, self.now,
            preemptive=self.config.validation_preemptive,
            speed=self.speed, order=self.config.validation_order,
        )

    def _h_validate_ack(self, msg: Message) -> None:
        job = msg.payload["job"]
        site = msg.payload["site"]
        s = self.session
        if s is None or s.job != job or s.phase != AcsSession.VALIDATING:
            # Late ack: the round already timed out and moved on.
            self.tolerate(
                "validate.stale_ack", "stale_validate_ack",
                f"unexpected VALIDATE_ACK for job {job}", job=job, member=site,
            )
            return
        if site not in s.enrolled and site != self.sid:
            # Defensive: an empty stale-VALIDATE answer from a site that was
            # never enrolled in this session must not enter the coupling.
            self.tolerate(
                "validate.foreign_ack", None,
                f"VALIDATE_ACK for job {job} from non-member {site}", job=job, member=site,
            )
            return
        s.record_endorsement(site, msg.payload["endorsed"])
        self.rounds.answered(job, site)
        if s.validation_complete():
            self._decide_permutation()

    def _validate_gave_up(self, silent: List[SiteId]) -> None:
        """Degrade: the silent members endorse nothing."""
        s = self.session
        for m in silent:
            s.record_endorsement(m, [])
        if s.validation_complete():
            self._decide_permutation()

    def _decide_permutation(self) -> None:
        s = self.session
        assert s is not None
        self.rounds.close(s.job)
        tm = s.trial_mapping
        perm = compute_permutation(tm.used_procs(), s.endorsements)
        if perm is None:
            self.trace("validate.fail", job=s.job)
            self._finish_session(JobOutcome.REJECTED_VALIDATION)
            return
        if self.trace_on:
            self.trace("validate.ok", job=s.job, permutation={p: site for p, site in perm.items()})
        self._dispatch_execution(perm)

    # -- distributed execution (§11) -----------------------------------------

    def _dispatch_execution(self, perm: Dict[LogicalProc, SiteId]) -> None:
        s = self.session
        tm = s.trial_mapping
        job = s.job
        host = {t: perm[tm.assignment[t]] for t in tm.dag}
        preds = {t: list(tm.dag.predecessors(t)) for t in tm.dag}
        succs = {t: list(tm.dag.successors(t)) for t in tm.dag}
        volumes = {t: tm.dag.data_volume(t) for t in tm.dag}
        payload = {
            "job": job,
            "permutation": perm,
            "host": host,
            "preds": preds,
            "succs": succs,
            "volumes": volumes,
            "deadline": s.ctx.deadline,
        }
        members = s.acs_members()
        code_size = estimate_code_size(tm.dag)

        def send(targets) -> None:
            sphere_broadcast(self, targets, MSG_EXECUTE, payload, size=code_size)

        send(members)
        if members:
            # EXECUTE is the one fire-and-forget step of the base protocol:
            # a lost copy would strand a locked member and silently shed its
            # task share. Hardened, track acks and retransmit; once retries
            # are spent accept the loss (the share is gone; the miss shows
            # up in the effective ratio — churn is not free).
            self.rounds.watch(job, "execute", "execute", members, code_size, send)
        # The initiator's own share.
        self.member.commit_share(job, perm, s.own_slots, host, preds, volumes)
        self._close_session(
            JobOutcome.ACCEPTED_DISTRIBUTED,
            hosts=sorted(set(perm.values())), acs_size=len(members) + 1,
        )

    def _h_execute_ack(self, msg: Message) -> None:
        job = msg.payload["job"]
        # no round: the late ack of an already-settled one
        if self.rounds.answered(job, msg.payload["site"]):
            self.trace("execute.all_acked", job=job)

    # -- session teardown & lock plumbing ------------------------------------

    def _finish_session(self, outcome: JobOutcome, unlock_members: bool = True) -> None:
        """Reject the session's job: release the members, close."""
        s = self.session
        assert s is not None
        self.rounds.close(s.job)
        members = s.acs_members()
        if unlock_members and members:
            sphere_broadcast(self, members, MSG_UNLOCK, {"job": s.job}, size=1.0)
        self._close_session(outcome, acs_size=len(members) + 1 if members else None)

    def _close_session(
        self,
        outcome: JobOutcome,
        hosts: Optional[List[SiteId]] = None,
        acs_size: Optional[int] = None,
    ) -> None:
        """The one initiator session close, accepted or rejected: forget
        the session, record the decision, unlock the initiator's own lock."""
        s = self.session
        s.phase = AcsSession.FINISHED
        self.session = None
        self.decide(s.ctx, outcome, hosts=hosts, acs_size=acs_size)
        self.unlock(self.sid, s.job)

    def unlock(self, initiator: SiteId, job: JobId) -> None:
        """The one unlock path, whether the initiator's session closes or
        a member's tenancy ends: reclaim the job's cached endorsements,
        then release the lock, which replays what waited behind it."""
        self.admission_cache.invalidate_job(job)
        self.lock.release(initiator, job)

    def tolerate(self, event: str, counter: Optional[str], error: str, **detail) -> None:
        """A message that fits no live state. The loss-less protocol cannot
        produce one, so unhardened it is a :class:`ProtocolError`; under
        faults (late acks, VALIDATE/EXECUTE after a lease expiry) it is
        traced, counted, and left to the caller to answer or ignore."""
        if not self.config.hardened:
            raise ProtocolError(f"site {self.sid}: {error}")
        self.trace(event, **detail)
        if counter is not None:
            self.count(counter)

    # -- maintenance ---------------------------------------------------------

    def prune_history(self, before: Time) -> int:
        """Forget finished work older than ``before`` (long-run hygiene;
        decision-neutral, see :meth:`SchedulerSite.prune_history`)."""
        n = super().prune_history(before)
        # result-forwarding info of local tasks that were reaped
        self.hosting.prune()
        self.member.prune(before)
        return n

    def leaks(self) -> List[str]:
        """Protocol state still open on this site, by name — empty when the
        site is quiescent. After a drained run anything listed leaked: a
        held lock, deferred work never replayed, a session or watched round
        never closed, a tenancy (and its lease) never ended — or host-side
        state that outlived its task: a closed gate, a token waiter or
        run-queue entry without its record, forwarding info of a local task
        that will never complete."""
        found = []
        if self.lock.locked:
            found.append(f"lock held by {self.lock.owner}")
        if self.lock.deferred:
            found.append(f"{len(self.lock.deferred)} deferred thunks")
        if self.session is not None:
            found.append(f"session of job {self.session.job} open ({self.session.phase})")
        if self._enroll_timer is not None:
            found.append("enroll collection timer armed")
        found += [f"{r.name} round of job {job} open" for job, r in self.rounds.open.items()]
        t = self.member.tenancy
        if t is not None:
            found.append(f"tenancy of job {t.job} for initiator {t.initiator} (lease {t.lease})")
        return found + self.executor.leaks() + self.hosting.leaks()

    # -- sphere envelope -----------------------------------------------------

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
