"""Focused addressing + bidding baseline (paper refs [4], [12]).

The Cheng/Stankovic/Ramamritham scheme the paper positions itself against
(their [4] is under-specified; we implement the standard reading used by
[12]-style evaluations):

* every site **periodically broadcasts its surplus to the whole network**
  by flooding — the cost term RTDS eliminates (its traffic grows with
  |E| × sites × time, regardless of where jobs arrive);
* a job that fails the local test triggers *focused addressing*: the origin
  picks the best site from its (possibly stale) surplus table and ships the
  **whole DAG** there; in parallel it runs *bidding* — a request-for-bids to
  the next-best ``BID_COUNT`` sites, whose fresh-surplus answers form a
  fallback chain the DAG walks if the focused site cannot guarantee it;
* each attempt re-runs the §5 local test on the receiving site; exhausting
  the chain rejects the job.

Everything pays real message delays, so stale surplus and transit time are
the scheme's genuine failure modes, as in the original papers.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.baselines.base import BaselineJobCtx, BaselineSite
from repro.core.events import JobOutcome
from repro.graphs.dag import Dag
from repro.graphs.serialization import estimate_code_size
from repro.simnet.message import Message
from repro.simnet.network import Network
from repro.types import JobId, SiteId, Time

MSG_SURPLUS = "F_SURPLUS"
MSG_RFB = "F_RFB"
MSG_BID = "F_BID"
MSG_OFFLOAD = "F_OFFLOAD"

#: time between a site's network-wide surplus floods
BROADCAST_PERIOD = 50.0
#: sites asked for a bid beside the focused addressee
BID_COUNT = 3


class FocusedSite(BaselineSite):
    """A site running focused addressing + bidding."""

    def __init__(
        self,
        sid: SiteId,
        network: Network,
        routing_phases: int,
        bid_wait: float = 10.0,
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
        self.bid_wait = bid_wait
        #: latest known surplus per origin site (stale by design)
        self.known_surplus: Dict[SiteId, float] = {}
        #: latest known computing power per origin site (§13 heterogeneity;
        #: speeds are static, but flooding them with the surplus keeps the
        #: scheme honest — a site only knows what was broadcast to it)
        self.known_speed: Dict[SiteId, float] = {}
        #: flooding dedup: highest sequence seen per origin
        self._seen_seq: Dict[SiteId, int] = {}
        self._seq = 0
        #: job -> (ctx, awaited bidder set, received bids)
        self._pending_bids: Dict[JobId, Tuple[BaselineJobCtx, Set[SiteId], Dict[SiteId, float]]] = {}
        self.on(MSG_SURPLUS, self._h_surplus)
        self.on(MSG_RFB, self._h_rfb)
        self.on(MSG_BID, self._h_bid)
        self.on(MSG_OFFLOAD, self._h_offload)

    def start(self) -> None:
        super().start()
        # Stagger the periodic broadcasts so they do not synchronise.
        offset = (self.sid % 16) * BROADCAST_PERIOD / 16.0
        self.sim.schedule(offset, self._periodic_broadcast)

    # -- periodic network-wide surplus flooding ------------------------------

    def _periodic_broadcast(self) -> None:
        self._seq += 1
        self._flood(
            {
                "origin": self.sid,
                "seq": self._seq,
                "surplus": self.plan.surplus(self.now),
                "speed": self.speed,
            },
            exclude=None,
        )
        self.sim.schedule(BROADCAST_PERIOD, self._periodic_broadcast)

    def _flood(self, payload: Dict, exclude: Optional[SiteId]) -> None:
        for nb in self.neighbors():
            if nb != exclude:
                self.send_neighbor(nb, MSG_SURPLUS, payload, size=3.0)

    def _h_surplus(self, msg: Message) -> None:
        origin = msg.payload["origin"]
        seq = msg.payload["seq"]
        if origin == self.sid or self._seen_seq.get(origin, 0) >= seq:
            return
        self._seen_seq[origin] = seq
        self.known_surplus[origin] = msg.payload["surplus"]
        # pre-heterogeneity senders omit "speed"; treat them as unit speed
        self.known_speed[origin] = msg.payload.get("speed", 1.0)
        self._flood(msg.payload, exclude=msg.src)

    # -- job flow ------------------------------------------------------------

    def submit_job(self, job: JobId, dag: Dag, deadline: Time) -> None:
        ctx = BaselineJobCtx(
            job=job, dag=dag, deadline=deadline, arrival=self.now, origin=self.sid
        )
        self.register_arrival(job, dag, deadline)
        if self.try_commit_whole_dag(ctx):
            self.decide(ctx, JobOutcome.ACCEPTED_LOCAL, hosts=[self.sid])
            return
        self._start_focused(ctx)

    def _candidates(self) -> List[SiteId]:
        """Known sites by descending (stale) effective capacity.

        The ranking weight is ``surplus × speed`` — the idle *work rate*
        a candidate offers, not its idle fraction. On a homogeneous
        network (every speed 1.0) this is exactly the historical
        surplus-only order; with heterogeneous sites, a half-idle speed-4
        site correctly outranks a fully idle speed-1 one.
        """
        return sorted(
            (s for s in self.known_surplus if s != self.sid),
            key=lambda s: (-self.known_surplus[s] * self.known_speed.get(s, 1.0), s),
        )

    def _start_focused(self, ctx: BaselineJobCtx) -> None:
        cands = self._candidates()
        if not cands:
            self.decide(ctx, JobOutcome.REJECTED_NO_SPHERE)
            return
        bidders = set(cands[1 : 1 + BID_COUNT])
        self._pending_bids[ctx.job] = (ctx, set(bidders), {})
        for b in sorted(bidders):
            self.send_to(b, MSG_RFB, {"job": ctx.job, "origin": self.sid}, size=2.0)
        # Focused addressee gets the DAG immediately; bids form the fallback
        # chain attached when they arrive (or when the wait expires).
        focused = cands[0]
        job = ctx.job
        if bidders:
            self.sim.schedule(self.bid_wait, lambda: self._bids_done(job, focused))
        else:
            self._ship(ctx, focused, fallback=[])

    def _h_rfb(self, msg: Message) -> None:
        self.send_to(
            msg.payload["origin"],
            MSG_BID,
            {
                "job": msg.payload["job"],
                "site": self.sid,
                # a bid is fresh effective capacity: surplus × speed
                "surplus": self.plan.surplus(self.now) * self.speed,
            },
            size=2.0,
        )

    def _h_bid(self, msg: Message) -> None:
        job = msg.payload["job"]
        pend = self._pending_bids.get(job)
        if pend is None:
            return  # job already shipped with the bids that had arrived
        ctx, awaited, bids = pend
        bids[msg.payload["site"]] = msg.payload["surplus"]
        if set(bids) >= awaited:
            self._bids_done(job, focused=None)

    def _bids_done(self, job: JobId, focused: Optional[SiteId]) -> None:
        pend = self._pending_bids.pop(job, None)
        if pend is None:
            return
        ctx, _awaited, bids = pend
        chain = sorted(bids, key=lambda s: (-bids[s], s))
        if focused is None:
            # All bids arrived before the timer: focused pick still first.
            cands = self._candidates()
            focused = cands[0] if cands else None
        if focused is None:
            self.decide(ctx, JobOutcome.REJECTED_NO_SPHERE)
            return
        self._ship(ctx, focused, fallback=[s for s in chain if s != focused])

    def _ship(self, ctx: BaselineJobCtx, target: SiteId, fallback: List[SiteId]) -> None:
        payload = self.pack_ctx(ctx)
        payload["fallback"] = fallback
        self.trace("focused.ship", job=ctx.job, target=target, fallback=fallback)
        self.send_to(target, MSG_OFFLOAD, payload, size=estimate_code_size(ctx.dag))

    def _h_offload(self, msg: Message) -> None:
        ctx = self.unpack_ctx(msg.payload)
        fallback: List[SiteId] = list(msg.payload["fallback"])
        if self.try_commit_whole_dag(ctx):
            self.decide(ctx, JobOutcome.ACCEPTED_DISTRIBUTED, hosts=[self.sid])
            return
        while fallback:
            nxt = fallback.pop(0)
            if nxt != self.sid:
                payload = self.pack_ctx(ctx)
                payload["fallback"] = fallback
                self.send_to(nxt, MSG_OFFLOAD, payload, size=estimate_code_size(ctx.dag))
                return
        self.decide(ctx, JobOutcome.REJECTED_VALIDATION)
