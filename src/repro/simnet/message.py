"""Typed protocol messages.

Messages carry a string ``mtype`` tag, a free-form payload dict, and routing
metadata. Every physical transmission goes between *adjacent* sites; the
protocol layer forwards multi-hop messages itself using its routing tables
(``final_dst``/``origin`` support that). ``hops`` counts physical traversals
for the communication-overhead metrics (experiment E2).

``Message`` is a hand-rolled ``__slots__`` class rather than a dataclass:
one instance is allocated per physical transmission, so construction cost
and per-instance memory are on the simulator's hottest path.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Optional

from repro.types import SiteId

_msg_counter = itertools.count()


class Message:
    """One protocol message.

    Attributes
    ----------
    mtype:
        Message type tag, e.g. ``"ENROLL"`` or ``"ROUTING_UPDATE"``.
    src:
        Physical sender of this hop (adjacent to ``dst``).
    dst:
        Physical receiver of this hop.
    origin:
        Site that originated the (possibly multi-hop) message.
    final_dst:
        Ultimate destination; ``None`` means the physical receiver is final.
    payload:
        Free-form content. Treated as immutable by convention; forwarding
        re-uses the same dict.
    size:
        Abstract message size, used only by the §13 data-volume delay model
        (delay += size / link throughput when enabled).
    hops:
        Physical hops travelled so far (incremented by the network).
    uid:
        Globally unique id (diagnostics / tracing); auto-assigned when not
        given.
    """

    __slots__ = ("mtype", "src", "dst", "origin", "final_dst", "payload", "size", "hops", "uid")

    def __init__(
        self,
        mtype: str,
        src: SiteId,
        dst: SiteId,
        origin: SiteId,
        final_dst: Optional[SiteId] = None,
        payload: Optional[Dict[str, Any]] = None,
        size: float = 1.0,
        hops: int = 0,
        uid: Optional[int] = None,
    ) -> None:
        self.mtype = mtype
        self.src = src
        self.dst = dst
        self.origin = origin
        self.final_dst = final_dst
        self.payload = {} if payload is None else payload
        self.size = size
        self.hops = hops
        self.uid = next(_msg_counter) if uid is None else uid

    def forwarded(self, new_src: SiteId, new_dst: SiteId) -> "Message":
        """A copy of this message for the next physical hop."""
        return Message(
            self.mtype,
            new_src,
            new_dst,
            self.origin,
            self.final_dst,
            self.payload,
            self.size,
            self.hops,  # network increments per transmission
            self.uid,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        fd = "" if self.final_dst is None else f"->{self.final_dst}"
        return f"<{self.mtype} {self.src}->{self.dst}{fd} #{self.uid}>"
