"""Site base class: handler dispatch + multi-hop forwarding.

A site owns two logical processors (paper §2): the *management* processor —
modelled here as the message-handler table, which handles a message the
instant it arrives — and the *compute* processor, owned by the local
scheduling plan executor (:mod:`repro.sched.executor`). Protocol work
therefore never steals task execution time, exactly as the paper assumes.

Multi-hop messages (``final_dst`` set) are forwarded along the site's
``next_hop`` table, which the routing layer fills in during PCS
construction. Forwarding is transparent to subclasses: handlers only ever
see messages addressed to *this* site.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.errors import ProtocolError, RoutingError
from repro.simnet.message import Message
from repro.simnet.network import Network
from repro.types import SiteId, Time

Handler = Callable[[Message], None]


class SiteBase:
    """Base class for all protocol sites.

    Subclasses register handlers with :meth:`on` (usually in ``__init__``)
    and send with :meth:`send_to` (multi-hop, routed) or
    :meth:`send_neighbor` (single physical hop).

    Parameters
    ----------
    sid:
        Site id.
    network:
        The network this site attaches to (the site registers itself).
    speed:
        Computing power of the site's *compute* processor (§13
        heterogeneous sites): a task of complexity ``c`` takes ``c /
        speed`` here. 1.0 (the default) is the paper's identical-sites
        model. The management processor is speed-independent.
    """

    def __init__(self, sid: SiteId, network: Network, speed: float = 1.0) -> None:
        self.sid = sid
        self.speed = speed
        self.network = network
        self.sim = network.sim
        self.tracer = network.tracer
        #: fast-path mirror of the tracer's enabled flag: hot protocol code
        #: guards ``self.trace(...)`` calls on it so a disabled tracer costs
        #: not even the kwargs dict. Kept in sync by the tracer's toggle notification.
        self.trace_on = network.trace_enabled
        self._handlers: Dict[str, Handler] = {}
        #: destination -> adjacent next hop; filled by the routing layer and
        #: only ever read with ``get`` (oracle routing rebinds it to a view
        #: of the shared row). Distances live in ``routing.table``.
        self.next_hop: Dict[SiteId, SiteId] = {}
        network.add_site(self)

    # -- handler registration ---------------------------------------------

    def on(self, mtype: str, handler: Handler) -> None:
        """Register ``handler`` for message type ``mtype``."""
        if mtype in self._handlers:
            raise ProtocolError(f"site {self.sid}: duplicate handler for {mtype!r}")
        self._handlers[mtype] = handler

    # -- receiving ----------------------------------------------------------

    def receive(self, msg: Message) -> None:
        """Entry point called by the network at message arrival."""
        final_dst = msg.final_dst
        if final_dst is not None and final_dst != self.sid:
            self._forward(msg)
            return
        self._dispatch(msg)

    def _dispatch(self, msg: Message) -> None:
        handler = self._handlers.get(msg.mtype)
        if handler is None:
            raise ProtocolError(f"site {self.sid}: no handler for {msg.mtype!r} ({msg!r})")
        handler(msg)

    # -- sending ------------------------------------------------------------

    def send_neighbor(
        self, neighbor: SiteId, mtype: str, payload: Optional[dict] = None, size: float = 1.0
    ) -> Message:
        """Send a single-hop message to an adjacent site."""
        return self.network.send_adjacent(self.sid, neighbor, mtype, payload, size)

    def send_to(
        self, dst: SiteId, mtype: str, payload: Optional[dict] = None, size: float = 1.0
    ) -> Message:
        """Send a routed (possibly multi-hop) message to ``dst``.

        The first hop is looked up in this site's ``next_hop`` table;
        intermediate sites forward with *their* tables — the message takes
        the distributed route, not an oracle shortest path.
        """
        if dst == self.sid:
            raise ProtocolError(f"site {self.sid}: send_to self")
        hop = self.next_hop.get(dst)
        if hop is None:
            raise RoutingError(f"site {self.sid}: no route to {dst}")
        msg = Message(
            mtype,
            self.sid,
            hop,
            self.sid,
            dst,
            payload if payload is not None else {},
            size,
        )
        self.network.transmit(msg)
        return msg

    def _forward(self, msg: Message) -> None:
        """Relay a transit message one hop closer to ``final_dst``."""
        hop = self.next_hop.get(msg.final_dst)
        if hop is None:
            raise RoutingError(
                f"site {self.sid}: cannot forward {msg!r}: no route to {msg.final_dst}"
            )
        self.network.transmit(msg.forwarded(self.sid, hop))

    # -- misc ----------------------------------------------------------------

    @property
    def now(self) -> Time:
        return self.sim.now

    def neighbors(self) -> tuple:
        """Adjacent site ids, sorted (the network's cached tuple)."""
        return self.network.neighbors(self.sid)

    def trace(self, category: str, **detail) -> None:
        if self.trace_on:
            self.tracer.emit(self.sim.now, category, self.sid, **detail)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.sid}>"
