"""The per-site scheduling plan.

Wraps a :class:`~repro.sched.intervals.BusyTimeline` with the paper's
*surplus* measure (§2): the idle fraction of an observation window. We
read the window forward from "now" — admission decisions care about
capacity that still exists, and a forward window makes the surplus of an
empty site exactly 1.0 as the worked example assumes (I=0.5 means "half
the upcoming window is already committed"). Because nothing reads the
past, a plan forgets work one window after it ended (:meth:`prune_before`).
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import SchedulingError
from repro.sched.intervals import BusyTimeline, Reservation
from repro.types import SiteId, Time


class SchedulingPlan:
    """Accepted work of one site's compute processor.

    Parameters
    ----------
    site:
        Owning site id (diagnostics only).
    surplus_window:
        Length ``W`` of the observation window for surplus computation.
    """

    def __init__(self, site: SiteId, surplus_window: Time = 200.0) -> None:
        if surplus_window <= 0:
            raise SchedulingError(f"surplus_window must be > 0, got {surplus_window}")
        self.site = site
        self.surplus_window = surplus_window
        self.timeline = BusyTimeline()
        #: bumped on every state change (commit / prune) — lets
        #: observers detect "plan changed" without diffing the timeline
        self.version = 0

    # -- surplus (paper §2) ----------------------------------------------------

    def surplus(self, now: Time, window: Optional[Time] = None) -> float:
        """Idle fraction of ``[now, now + W]``; 1.0 = fully idle.

        Clamped to [0, 1]; an over-committed plan (possible only through
        bugs) would raise in ``reserve`` long before this could go negative.
        """
        w = self.surplus_window if window is None else window
        idle = self.timeline.idle_time(now, now + w)
        return min(1.0, max(0.0, idle / w))

    def busyness(self, now: Time, window: Optional[Time] = None) -> float:
        """``1 - surplus``; the §13 laxity-dispatching weight."""
        return 1.0 - self.surplus(now, window)

    # -- mutation ---------------------------------------------------------------

    def commit(self, reservations: List[Reservation]) -> None:
        """Insert a batch of reservations atomically.

        Either all succeed or the plan is left untouched (the batch is
        pre-checked on a scratch copy, then applied).
        """
        timeline = self.timeline
        inserted: List[Reservation] = []
        try:
            for r in reservations:
                timeline.reserve(r)
                inserted.append(r)
        except SchedulingError:
            # Roll the partial batch back: the plan must look untouched.
            for r in reversed(inserted):
                timeline.remove_exact(r)
            raise
        if reservations:
            self.version += 1

    def prune_before(self, time: Time) -> int:
        """Forget work that ended at or before ``time``: a bisect and a
        prefix delete. The executor calls this at each completion with
        ``now - surplus_window`` (so a plan holds one window of history),
        the hygiene pass likewise."""
        n = self.timeline.prune_before(time)
        if n:
            self.version += 1
        return n

    # -- queries ------------------------------------------------------------------

    #: visible tails at or below this many reservations digest by value
    #: (cross-site sharing); longer ones digest by (site, version) — O(1)
    #: instead of O(n), and such busy sites virtually never collide anyway
    DIGEST_VALUE_MAX = 16

    def state_digest(self, horizon: Optional[Time] = None) -> tuple:
        """Hashable digest of the plan state feasibility probing sees.

        With a ``horizon`` (the earliest release of the windows about to
        be probed) only the *visible tail* — reservations ending after
        the horizon — enters the digest: finished history cannot affect
        forward probes, so two plans with equal tails answer every
        admission query at or past the horizon identically, *whatever*
        site they belong to. This is the basis of the admission cache's
        cross-site sharing: every site that is free during the job's
        windows digests to ``((), ())``, however different their pasts.

        Long tails fall back to the site-private ``(site, version)``
        pair, trading unlikely sharing for a constant-time digest. Any
        commit/cancel/prune changes both forms, so a cached decision can
        never outlive the state it was computed against; the two forms
        cannot collide (tuple-of-tuples vs (id, int)).
        """
        tl = self.timeline
        if horizon is None:
            if len(tl) <= self.DIGEST_VALUE_MAX:
                return tl.signature()
            return (self.site, self.version)
        if tl.tail_len(horizon) <= self.DIGEST_VALUE_MAX:
            return tl.tail_signature(horizon)
        return (self.site, self.version)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SchedulingPlan(site={self.site}, reservations={len(self.timeline)})"
        )
