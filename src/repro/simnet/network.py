"""The network: sites + links + physical message delivery.

The network only delivers between *adjacent* sites — exactly the power the
distributed algorithm has. Multi-hop communication is implemented by the
protocol layers (sites forward using their routing tables), so hop counts
and message totals in the benchmarks reflect real traffic.

Hot-path notes (DESIGN.md "Performance model & hot path"): delivery is
closure-free — :meth:`Network.transmit` schedules the receiver's cached
bound ``receive`` via ``Simulator.schedule_call_at`` instead of allocating
a lambda per message; ``trace_enabled`` mirrors the tracer's flag so call
sites skip kwargs construction entirely when tracing is off; and sorted
adjacency is cached per site, invalidated on topology mutation.
"""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional, Tuple

from repro.errors import SimulationError, TopologyError
from repro.simnet.engine import PRIORITY_DELIVERY, Simulator, _Event
from repro.simnet.link import Link
from repro.simnet.message import Message
from repro.simnet.trace import MessageStats, Tracer
from repro.types import SiteId, Time

if TYPE_CHECKING:  # pragma: no cover
    from repro.simnet.site import SiteBase


class Network:
    """Simulated communication network.

    Parameters
    ----------
    sim:
        The event loop that drives deliveries.
    tracer:
        Optional tracer; a disabled one is created if omitted.
    """

    def __init__(self, sim: Simulator, tracer: Optional[Tracer] = None) -> None:
        self.sim = sim
        self.tracer = tracer if tracer is not None else Tracer(enabled=False)
        #: fast-path mirror of ``tracer.enabled``: checked before building
        #: the kwargs of a trace emit. Kept in sync automatically — the
        #: tracer notifies us on every ``enabled`` assignment.
        self.trace_enabled = self.tracer.enabled
        self.tracer.on_toggle.append(self._sync_tracing)
        self.stats = MessageStats()
        #: optional transmit interceptor (fault injection): an object with
        #: ``on_transmit(msg, link) -> extra_delay | None`` — ``None`` drops
        #: the message in flight. ``None`` (default) = the paper's faithful
        #: loss-less links, with the delivery arithmetic bit-for-bit
        #: unchanged.
        self.interceptor = None
        self._sites: Dict[SiteId, "SiteBase"] = {}
        self._links: Dict[Tuple[SiteId, SiteId], Link] = {}
        self._adj: Dict[SiteId, Dict[SiteId, Link]] = {}
        #: sid -> bound ``site.receive`` (the closure-free delivery target)
        self._receivers: Dict[SiteId, Callable[[Message], None]] = {}
        #: sid -> cached sorted adjacency; invalidated by :meth:`add_link`
        self._neighbors_cache: Dict[SiteId, Tuple[SiteId, ...]] = {}

    # -- construction --------------------------------------------------

    def add_site(self, site: "SiteBase") -> None:
        if site.sid in self._sites:
            raise TopologyError(f"duplicate site id {site.sid}")
        self._sites[site.sid] = site
        self._adj.setdefault(site.sid, {})
        self._receivers[site.sid] = site.receive

    def add_link(self, u: SiteId, v: SiteId, delay: Time, throughput: Optional[float] = None) -> Link:
        if u not in self._sites or v not in self._sites:
            raise TopologyError(f"link ({u},{v}) references unknown site")
        return self._register_link(u, v, delay, throughput)

    def _register_link(
        self, u: SiteId, v: SiteId, delay: Time, throughput: Optional[float]
    ) -> Link:
        link = Link(u, v, delay, throughput)
        if link.key in self._links:
            raise TopologyError(f"duplicate link {link.key}")
        self._links[link.key] = link
        self._adj[u][v] = link
        self._adj[v][u] = link
        # topology mutation invalidates the cached sorted adjacency
        self._neighbors_cache.pop(u, None)
        self._neighbors_cache.pop(v, None)
        return link

    # -- tracing ---------------------------------------------------------

    def _sync_tracing(self, enabled: bool) -> None:
        self.trace_enabled = enabled
        for site in self._sites.values():
            site.trace_on = enabled

    # -- introspection ---------------------------------------------------

    @property
    def sites(self) -> Dict[SiteId, "SiteBase"]:
        return self._sites

    def site(self, sid: SiteId) -> "SiteBase":
        try:
            return self._sites[sid]
        except KeyError:
            raise TopologyError(f"unknown site {sid}") from None

    def site_ids(self) -> List[SiteId]:
        return sorted(self._sites)

    def neighbors(self, sid: SiteId) -> Tuple[SiteId, ...]:
        """Adjacent site ids, sorted for determinism (cached tuple)."""
        nbrs = self._neighbors_cache.get(sid)
        if nbrs is None:
            nbrs = tuple(sorted(self._adj[sid]))
            self._neighbors_cache[sid] = nbrs
        return nbrs

    def link(self, u: SiteId, v: SiteId) -> Link:
        try:
            return self._adj[u][v]
        except KeyError:
            raise TopologyError(f"no link between {u} and {v}") from None

    def link_delay(self, u: SiteId, v: SiteId) -> Time:
        """Propagation delay of the (existing) link u-v."""
        return self.link(u, v).delay

    def links(self) -> Iterable[Link]:
        return self._links.values()

    def size(self) -> int:
        return len(self._sites)

    # -- delivery --------------------------------------------------------

    def transmit(self, msg: Message) -> None:
        """Send ``msg`` over the physical link ``msg.src -> msg.dst``.

        Arrival is scheduled after the link delay; the receiving site's
        :meth:`SiteBase.receive` runs at arrival (plus any management
        processing overhead the site models).
        """
        src = msg.src
        dst = msg.dst
        if dst == src:
            raise SimulationError(f"message to self: {msg!r}")
        try:
            link = self._adj[src][dst]
        except KeyError:
            raise TopologyError(f"no link between {src} and {dst}") from None
        msg.hops += 1
        size = msg.size
        mtype = msg.mtype
        # the MessageStats counters, one update per physical transmission
        stats = self.stats
        stats.count[mtype] += 1
        stats.volume[mtype] += size
        stats.total += 1
        stats.total_volume += size
        sim = self.sim
        if self.trace_enabled:
            self.tracer.emit(sim.now, "net.send", src, mtype=mtype, dst=dst, uid=msg.uid)
        extra = 0.0
        if self.interceptor is not None:
            extra = self.interceptor.on_transmit(msg, link)
            if extra is None:
                return  # lost in flight (the interceptor did the accounting)
        # inlined Link.delivery_time — identical arithmetic and FIFO clamp
        # (kept in sync with link.py; the method remains the reference)
        tp = link.throughput
        arrival = sim._now + (link.delay if tp is None else link.delay + size / tp) + extra
        if dst == link.v:
            if arrival < link.last_to_v:
                arrival = link.last_to_v
            link.last_to_v = arrival
        else:
            if arrival < link.last_to_u:
                arrival = link.last_to_u
            link.last_to_u = arrival
        try:
            receiver = self._receivers[dst]
        except KeyError:
            raise TopologyError(f"site {dst} is not hosted on this network") from None
        # inlined Simulator.schedule_call_at (friend access): one physical
        # transmission = one delivery event, so the call overhead is pure
        # per-message tax. Semantics identical, including the past-guard.
        if arrival < sim._now:
            raise SimulationError(
                f"cannot schedule in the past: {arrival} < now {sim._now}"
            )
        ev = _Event.__new__(_Event)
        ev.callback = receiver
        ev.arg = msg
        ev.cancelled = False
        heappush(sim._heap, (arrival, PRIORITY_DELIVERY, next(sim._seq), ev))
        sim._live += 1

    def send_adjacent(
        self,
        src: SiteId,
        dst: SiteId,
        mtype: str,
        payload: Optional[dict] = None,
        size: float = 1.0,
        origin: Optional[SiteId] = None,
        final_dst: Optional[SiteId] = None,
    ) -> Message:
        """Convenience constructor + transmit for a single-hop message."""
        msg = Message(
            mtype,
            src,
            dst,
            src if origin is None else origin,
            final_dst,
            payload if payload is not None else {},
            size,
        )
        self.transmit(msg)
        return msg
