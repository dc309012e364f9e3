"""The member side of the protocol: a site enrolled in a foreign ACS.

A member answers ENROLL with its surplus and locks (§8), validates the
task sets it is offered against its own plan (§10), and commits its share
on EXECUTE or lets go on UNLOCK (§11). Everything it holds on behalf of
the foreign initiator lives in one :class:`Tenancy` record, created when
the lock is taken and ended by exactly one teardown
(:meth:`MemberSide._end_tenancy`) whichever way the tenancy ends: EXECUTE,
UNLOCK, or — hardened only — the lease running out (DESIGN.md §5).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.core.messages import (
    MSG_ENROLL,
    MSG_ENROLL_ACK,
    MSG_ENROLL_REFUSE,
    MSG_EXECUTE,
    MSG_EXECUTE_ACK,
    MSG_UNLOCK,
    MSG_VALIDATE,
    MSG_VALIDATE_ACK,
)
from repro.core.validation import slot_reservations
from repro.errors import ProtocolError
from repro.simnet.message import Message
from repro.types import JobId, LogicalProc, SiteId, TaskId, Time


@dataclass
class Tenancy:
    """One foreign initiator's hold on this site's lock."""

    initiator: SiteId
    job: JobId
    #: lock lease: the member self-releases after this long without
    #: contact from the initiator. None = the paper's loss-less protocol:
    #: nothing expires and EXECUTE is not acknowledged.
    lease: Optional[Time] = None
    lease_timer: Optional[Any] = None
    #: validated slots per logical processor, committed from at EXECUTE
    slots: Dict[LogicalProc, list] = field(default_factory=dict)
    #: the endorsement already answered — a retransmitted VALIDATE is
    #: re-acked from it (recomputing later could endorse differently)
    verdict: Optional[List[LogicalProc]] = None


class MemberSide:
    """The member side of one site (which owns ``lock``, ``plan``, ``hosting``)."""

    def __init__(self, site) -> None:
        self.site = site
        #: the live tenancy (at most one: the site lock enforces it)
        self.tenancy: Optional[Tenancy] = None
        #: jobs whose EXECUTE this site acknowledged -> (initiator, when):
        #: outlives the tenancy so duplicates are re-acked; pruned by age
        self.exec_done: Dict[JobId, Tuple[SiteId, Time]] = {}
        site.on(MSG_ENROLL, self._h_enroll)
        site.on(MSG_VALIDATE, self._h_validate)
        site.on(MSG_EXECUTE, self._h_execute)
        site.on(MSG_UNLOCK, self._h_unlock)

    # -- the tenancy -----------------------------------------------------------

    def _tenant(self, initiator: SiteId, job: JobId) -> Optional[Tenancy]:
        """The tenancy record iff ``(initiator, job)`` holds this site's lock."""
        if not self.site.lock.held_by(initiator, job):
            return None
        if self.tenancy is None:
            # the lock was taken outside ENROLL (a phantom enrollment)
            self.tenancy = Tenancy(initiator, job)
        return self.tenancy

    def _end_tenancy(self, t: Tenancy) -> None:
        """The one member teardown: cancel the lease, drop slots and verdict,
        reclaim the job's cached endorsements, unlock, replay what waited."""
        site = self.site
        if t.lease_timer is not None:
            site.sim.cancel(t.lease_timer)
            t.lease_timer = None
        self.tenancy = None
        site.admission_cache.invalidate_job(t.job)
        site.lock.release(t.initiator, t.job)
        site.drain_deferred()

    def _restart_lease(self, t: Tenancy) -> None:
        """(Re)start the lease clock: the initiator just showed life."""
        if t.lease is None:
            return
        sim = self.site.sim
        if t.lease_timer is not None:
            sim.cancel(t.lease_timer)
        t.lease_timer = sim.schedule_call(t.lease, self._lease_expired, t)

    def _lease_expired(self, t: Tenancy) -> None:
        """The initiator has plausibly died: fall back to local-only operation."""
        t.lease_timer = None
        if t is not self.tenancy:
            return
        self.site.trace("lock.lease_expired", job=t.job, by=t.initiator)
        self.site.count("lease_expired")
        self._end_tenancy(t)

    # -- ENROLL (§8) -----------------------------------------------------------

    def _h_enroll(self, msg: Message) -> None:
        site = self.site
        job = msg.payload["job"]
        initiator = msg.payload["initiator"]
        members = msg.payload["members"]
        t = self._tenant(initiator, job)
        if t is not None:
            # Retransmitted ENROLL (our ACK was lost): re-answer idempotently.
            # Contact from a live initiator also renews the lease.
            site.trace("acs.re_ack", job=job, initiator=initiator)
            site.count("enroll_re_ack")
            self._restart_lease(t)
            self._send_enroll_ack(job, initiator, members)
            return
        if site.lock.locked:
            if site.config.enroll_mode == "refuse":
                site.send_to(
                    initiator,
                    MSG_ENROLL_REFUSE,
                    {"job": job, "site": site.sid},
                    size=2.0,
                )
                site.trace("acs.refuse", job=job, initiator=initiator)
            else:
                site.lock.defer(lambda: self._h_enroll(msg))
            return
        site.lock.acquire(initiator, job)
        # The lease is the initiator's ENROLL hint (it alone knows the
        # sphere's worst round trip — see ``rounds.lease_hint``); an
        # unhardened initiator ships none, and the member holds no lease.
        t = self.tenancy = Tenancy(initiator, job, msg.payload.get("lease"))
        self._restart_lease(t)
        if site.trace_on:
            surplus = site.plan.surplus(site.now)
            site.trace("acs.enrolled", job=job, initiator=initiator, surplus=round(surplus, 4))
        self._send_enroll_ack(job, initiator, members)

    def _send_enroll_ack(self, job: JobId, initiator: SiteId, members: List[SiteId]) -> None:
        site = self.site
        distances = site.routing.table.distances_to(members, exclude=site.sid)
        # one timeline walk: busyness is 1 - surplus by definition
        surplus = site.plan.surplus(site.now)
        site.send_to(
            initiator,
            MSG_ENROLL_ACK,
            {
                "job": job,
                "site": site.sid,
                "surplus": surplus,
                "busyness": 1.0 - surplus,
                "speed": site.speed,
                "distances": distances,
            },
            size=float(5 + len(distances)),
        )

    # -- VALIDATE (§10) --------------------------------------------------------

    def _h_validate(self, msg: Message) -> None:
        site = self.site
        job = msg.payload["job"]
        initiator = msg.payload["initiator"]
        t = self._tenant(initiator, job)
        if t is None:
            # Our enrollment never reached the initiator's session (or the
            # lease expired): we hold no slots, endorse nothing.
            site.tolerate(
                "validate.stale", "stale_validate",
                f"VALIDATE for ({initiator}, {job}) but lock is {site.lock.owner}",
                job=job, initiator=initiator,
            )
            self._send_validate_ack(job, initiator, [])
            return
        self._restart_lease(t)
        if t.verdict is not None:
            # Retransmitted VALIDATE (our ACK was lost): re-answer with the
            # cached verdict — recomputing could endorse differently now.
            site.trace("validate.re_ack", job=job)
            site.count("validate_re_ack")
            self._send_validate_ack(job, initiator, list(t.verdict))
            return
        endorsed, t.slots = site.endorse(job, msg.payload["procs"])
        t.verdict = endorsed
        if site.trace_on:
            site.trace("validate.member", job=job, endorsed=endorsed)
        self._send_validate_ack(job, initiator, endorsed)

    def _send_validate_ack(self, job: JobId, initiator: SiteId, endorsed: List[LogicalProc]) -> None:
        self.site.send_to(
            initiator,
            MSG_VALIDATE_ACK,
            {"job": job, "site": self.site.sid, "endorsed": endorsed},
            size=float(2 + len(endorsed)),
        )

    # -- EXECUTE / UNLOCK (§11) ------------------------------------------------

    def _h_execute(self, msg: Message) -> None:
        site = self.site
        payload = msg.payload
        job = payload["job"]
        initiator = msg.origin
        t = self._tenant(initiator, job)
        if t is None:
            done = self.exec_done.get(job)
            if done is not None and done[0] == initiator:
                # Duplicate EXECUTE (our ack was lost): re-ack, done.
                site.trace("execute.re_ack", job=job)
                site.count("execute_re_ack")
                self._send_execute_ack(job, initiator)
                return
            # Lease expired before EXECUTE arrived: the validation slots
            # are gone, so this share cannot be committed truthfully.
            # Stay silent — the initiator's retransmission loop will
            # give up and record the loss.
            site.tolerate(
                "execute.stale", "stale_execute",
                f"EXECUTE for ({initiator}, {job}) but lock is {site.lock.owner}",
                job=job, by=initiator,
            )
            return
        hosted = self.commit_share(
            job, payload["permutation"], t.slots,
            payload["host"], payload["preds"], payload["volumes"],
        )
        if not hosted and site.trace_on:
            site.trace("execute.bystander", job=job)
        if t.lease is not None:
            self.exec_done[job] = (initiator, site.now)
            self._send_execute_ack(job, initiator)
        self._end_tenancy(t)

    def _send_execute_ack(self, job: JobId, initiator: SiteId) -> None:
        self.site.send_to(
            initiator, MSG_EXECUTE_ACK, {"job": job, "site": self.site.sid}, size=2.0
        )

    def commit_share(
        self,
        job: JobId,
        perm: Dict[LogicalProc, SiteId],
        slots_by_proc: Dict[LogicalProc, list],
        host: Dict[TaskId, SiteId],
        preds: Dict[TaskId, List[TaskId]],
        volumes: Dict[TaskId, float],
    ) -> bool:
        """Commit this site's share of ``job`` under permutation ``perm``
        from its validated slots; False when it hosts nothing (a bystander).
        The initiator, a member of its own ACS, commits its share here too."""
        site = self.site
        my_procs = [p for p, s in perm.items() if s == site.sid]
        if not my_procs:
            return False
        proc = my_procs[0]
        slots = slots_by_proc.get(proc)
        if slots is None:
            raise ProtocolError(
                f"site {site.sid}: assigned logical proc {proc} for job {job} "
                "but no cached validation slots (endorsement mismatch)"
            )
        site.hosting.commit(job, slot_reservations(job, slots), host, preds, volumes)
        if site.trace_on:
            site.trace(
                "execute.commit", job=job, proc=proc,
                tasks=sorted({slot[2] for slot in slots}, key=repr),
            )
        return True

    def _h_unlock(self, msg: Message) -> None:
        site = self.site
        job = msg.payload["job"]
        t = self._tenant(msg.origin, job)
        if t is not None:
            if site.trace_on:
                site.trace("lock.released", job=job, by=msg.origin)
            self._end_tenancy(t)
        elif site.trace_on:
            # Stale unlock (queue-mode race); harmless.
            site.trace("lock.stale_unlock", job=job, by=msg.origin)

    # -- maintenance -----------------------------------------------------------

    def prune(self, before: Time) -> None:
        """Forget EXECUTE duplicate-detection entries older than ``before``.

        Pruned by *age*, not liveness: a bystander member (no local tasks)
        must keep re-acking while the initiator's retransmission round —
        state this site cannot see — may still be running, and any such
        round is long over once the entry predates ``before``. The live
        tenancy (slots, cached verdict) is never touched here.
        """
        for job, (_, when) in list(self.exec_done.items()):
            if when < before:
                del self.exec_done[job]
