"""The one hardened ask→answer round (DESIGN.md §6.3).

The protocol is three ask→answer rounds between one initiator and its
members — ENROLL (§8), VALIDATE (§10), EXECUTE (§11). The paper's
loss-less model sends and waits forever. Under a fault plan the initiator
watches each round with one :class:`AckRound`: a budget sized from the
sphere's physical round trip (:func:`round_budget`), retransmission to the
members still silent, and after ``ack_retries`` a give-up that lets the
caller degrade without them. The unhardened protocol never creates one
(:meth:`Rounds.watch` is the one place that decides).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional, Set

from repro.graphs.dag import Dag
from repro.graphs.serialization import estimate_code_size
from repro.types import JobId, SiteId, Time


def round_budget(site, members, size: float = 0.0) -> Time:
    """Time to allow one ask→answer round before calling members silent.

    The initiator knows its delay distances (§2) and its adjacent link
    throughputs (§13), so the budget is the physical round trip to the
    farthest queried member — propagation and per-hop transfer time of a
    ``size``-unit message — plus ``ack_timeout`` as grace. A flat timeout would misfire on large spheres or under
    the data-volume model and retransmit to perfectly healthy members.
    """
    dmax = 0.0
    hmax = site.config.h
    if site.pcs is not None and members:
        dmax = max(site.pcs.distance.get(m, 0.0) for m in members)
        hmax = max(site.pcs.hops.get(m, site.config.h) for m in members)
    rtt = 2.0 * dmax
    tp = site.min_adjacent_throughput() if size > 0.0 else None
    if tp is not None:
        # Request out + ack back, each paying size/throughput per
        # hop — and the broadcast's fan-out serializes on the FIFO
        # links near the initiator (as do the returning acks), so
        # the last copy waits behind up to |members| earlier ones.
        # Bounding the ack by the request keeps this an
        # over-estimate (the paper's safety direction, like ω).
        rtt += 2.0 * (hmax + max(1, len(members))) * size / tp
    return rtt + site.config.ack_timeout


def lease_hint(site, members, dag: Dag) -> Time:
    """Lock lease the initiator asks its members to hold.

    Only the initiator knows the sphere's worst round trip, so it sizes
    the lease and ships it in ENROLL: three ask→answer rounds (enroll,
    validate, execute), each retried up to ``ack_retries`` times. A
    member-side guess from its own
    distance would make near members of a wide sphere expire mid-way
    through a perfectly healthy session. The round size is bounded by
    the biggest message of the session — the EXECUTE task-code dispatch.
    """
    rounds = 3.0 * (site.config.ack_retries + 1)
    size = max(estimate_code_size(dag), float(6 + len(members)))
    return rounds * round_budget(site, members, size)


class AckRound:
    """One watched round: who is still silent, retries spent, one timer.

    The caller has just asked ``targets`` (send first, arm second — the
    engine breaks time ties by schedule order, so the order is observable).
    ``ask(silent)`` re-sends to the still-silent members on expiry;
    ``give_up(silent)`` runs once the retries are spent. ``name`` labels
    the round in counters, ``prefix`` its trace events;
    ``size`` is the message size the budget must carry. The round lists
    itself in ``book.open`` until it is settled, cancelled or given up on.
    """

    def __init__(
        self,
        book: "Rounds",
        job: JobId,
        name: str,
        prefix: str,
        targets: Iterable[SiteId],
        size: float,
        ask: Callable[[List[SiteId]], Any],
        give_up: Optional[Callable[[List[SiteId]], Any]] = None,
    ) -> None:
        self.book = book
        self.site = book.site
        self.job = job
        self.name = name
        self.prefix = prefix
        self.size = size
        self.ask = ask
        self.give_up = give_up
        self.silent: Set[SiteId] = set(targets)
        #: retransmissions already made
        self.attempts = 0
        self.timer: Optional[Any] = None
        self._arm(self.silent)
        book.open[job] = self

    def _arm(self, targets) -> None:
        self.timer = self.site.sim.schedule(
            round_budget(self.site, targets, self.size), self._expired
        )

    def answered(self, member: SiteId) -> bool:
        """``member`` answered. True when it was the last silent one — the
        round is settled and closed; an answer to a round already closed
        or given up on is ignored."""
        if self.timer is None:
            return False
        self.silent.discard(member)
        if self.silent:
            return False
        self.close()
        return True

    def close(self) -> None:
        """Stop watching (settled, or the caller moved on); idempotent."""
        if self.timer is not None:
            self.site.sim.cancel(self.timer)
            self.timer = None
        self.book.open.pop(self.job, None)

    def _expired(self) -> None:
        """The budget ran out: retransmit to, then give up on, the silent
        members (crashed, partitioned, or their answer was lost)."""
        self.timer = None
        site, job = self.site, self.job
        silent = sorted(self.silent)
        if self.attempts < site.config.ack_retries:
            self.attempts += 1
            site.trace(self.prefix + ".retransmit", job=job, to=silent, attempt=self.attempts)
            site.count(self.name + "_retransmit")
            self.ask(silent)
            self._arm(silent)
            return
        site.trace(self.prefix + ".gave_up", job=job, lost=silent)
        site.count(self.name + "_gave_up")
        self.close()
        if self.give_up is not None:
            self.give_up(silent)


class Rounds:
    """A site's watched rounds, by job: the session's enroll or validate
    round, and EXECUTE rounds (which outlive it). This is where "hardened"
    is decided for the initiator — unhardened, the book stays empty."""

    def __init__(self, site) -> None:
        self.site = site
        self.open: Dict[JobId, AckRound] = {}

    def watch(self, job: JobId, name: str, prefix: str, targets, size: float, ask, give_up=None) -> None:
        """Watch the round just asked of ``targets`` — hardened only; the
        paper's loss-less protocol waits for its answers forever."""
        if self.site.config.hardened:
            AckRound(self, job, name, prefix, targets, size, ask, give_up)

    def answered(self, job: JobId, member: SiteId) -> bool:
        """``member`` answered ``job``'s watched round, if there is one.
        True when that settled the round."""
        rnd = self.open.get(job)
        return rnd is not None and rnd.answered(member)

    def close(self, job: JobId) -> None:
        """The session leaves its current phase: stop watching its round."""
        rnd = self.open.get(job)
        if rnd is not None:
            rnd.close()
