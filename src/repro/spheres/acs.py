"""Available Computing Sphere construction state (paper §8).

Initiator side: an :class:`AcsSession` tracks one job's protocol run —
which PCS members were asked, who answered with surplus (enrolled) or
refused, the collected distance maps, and the endorsement lists of the
validation phase.

Member side: a :class:`SiteLock` realises the paper's "mutual exclusion for
enrollment from initiator is guaranteed by a lock variable on each local
site". While locked, a site defers every plan mutation (its own job
arrivals, foreign enrollments in queue mode) so validation endorsements
remain truthful until EXECUTE/UNLOCK — see DESIGN.md "Lock semantics".
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Optional, Set, Tuple, Union

from repro.errors import ProtocolError
from repro.types import JobId, LogicalProc, SiteId, Time


@dataclass
class EnrolledSite:
    """What one enrolled member reported."""

    site: SiteId
    surplus: float
    busyness: float
    speed: float
    #: member's routing distances to the other sphere sites
    distances: Dict[SiteId, Time]


class AcsSession:
    """Initiator-side state machine data for one distributed job."""

    #: phases in protocol order
    ENROLLING = "enrolling"
    MAPPING = "mapping"
    VALIDATING = "validating"
    FINISHED = "finished"

    def __init__(self, job: JobId, initiator: SiteId, asked: List[SiteId]) -> None:
        self.job = job
        self.initiator = initiator
        self.asked: Tuple[SiteId, ...] = tuple(sorted(asked))
        self.phase = self.ENROLLING
        self.enrolled: Dict[SiteId, EnrolledSite] = {}
        self.refused: Set[SiteId] = set()
        self.endorsements: Dict[SiteId, List[LogicalProc]] = {}
        #: filled by the mapper step
        self.trial_mapping = None
        #: initiator's own cached validation slots (proc -> reservations)
        self.own_slots: Dict[LogicalProc, list] = {}
        #: the job context (dag, deadline, arrival) — set by the initiator
        self.ctx: Any = None

    # -- enrollment --------------------------------------------------------

    def record_ack(self, info: EnrolledSite) -> None:
        if self.phase != self.ENROLLING:
            raise ProtocolError(
                f"job {self.job}: ENROLL_ACK from {info.site} in phase {self.phase}"
            )
        if info.site not in self.asked:
            raise ProtocolError(f"job {self.job}: unsolicited ack from {info.site}")
        self.enrolled[info.site] = info

    def record_refusal(self, site: SiteId) -> None:
        if self.phase != self.ENROLLING:
            raise ProtocolError(
                f"job {self.job}: ENROLL_REFUSE from {site} in phase {self.phase}"
            )
        self.refused.add(site)

    def enrollment_complete(self) -> bool:
        return len(self.enrolled) + len(self.refused) >= len(self.asked)

    def acs_members(self) -> List[SiteId]:
        """Enrolled members (initiator excluded), deterministic order."""
        return sorted(self.enrolled)

    # -- validation ----------------------------------------------------------

    def record_endorsement(self, site: SiteId, procs: List[LogicalProc]) -> None:
        if self.phase != self.VALIDATING:
            raise ProtocolError(
                f"job {self.job}: VALIDATE_ACK from {site} in phase {self.phase}"
            )
        if site != self.initiator and site not in self.enrolled:
            raise ProtocolError(f"job {self.job}: endorsement from non-member {site}")
        self.endorsements[site] = list(procs)

    def validation_complete(self) -> bool:
        expected = set(self.enrolled) | {self.initiator}
        return expected.issubset(self.endorsements)


class SiteLock:
    """The per-site lock variable with a deferral queue.

    ``owner`` is ``(initiator, job)`` while held. Whatever would change the
    site's plan asks :meth:`may_change_plan` first and, when the answer is
    no, hands itself to :meth:`defer` as an opaque thunk; :meth:`release`
    replays the thunks in FIFO order. ``deferred`` is an empty tuple until the
    first :meth:`defer`: most sites of a wide network never defer anything.
    """

    def __init__(self, site: SiteId) -> None:
        self.site = site
        self.owner: Optional[Tuple[SiteId, JobId]] = None
        self.deferred: Union[Deque, Tuple[()]] = ()

    @property
    def locked(self) -> bool:
        return self.owner is not None

    def acquire(self, initiator: SiteId, job: JobId) -> None:
        if self.owner is not None:
            raise ProtocolError(
                f"site {self.site}: lock already held by {self.owner}, "
                f"cannot lock for ({initiator}, {job})"
            )
        self.owner = (initiator, job)

    def may_change_plan(self) -> bool:
        """May the site change its plan now? The one question its own job
        arrivals, foreign enrollments and the replay loop all ask; the
        answer is yes exactly while the lock is not held."""
        return self.owner is None

    def release(self, initiator: SiteId, job: JobId) -> None:
        """Unlock, then replay the deferred thunks, FIFO, until one of them
        takes the lock again."""
        if self.owner != (initiator, job):
            raise ProtocolError(
                f"site {self.site}: release by ({initiator}, {job}) "
                f"but lock held by {self.owner}"
            )
        self.owner = None
        while self.may_change_plan() and self.deferred:
            self.deferred.popleft()()

    def held_by(self, initiator: SiteId, job: JobId) -> bool:
        return self.owner == (initiator, job)

    def defer(self, thunk) -> None:
        if not self.deferred:
            self.deferred = deque()
        self.deferred.append(thunk)
