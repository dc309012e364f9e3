"""Bidirectional communication links.

Per the paper (§2): links are bidirectional, faithful, loss-less and
order-preserving; each site knows the delay of its adjacent links; delays
need **not** satisfy the triangle inequality (the topology generators can
produce such weightings on purpose — see ``tests/simnet/test_topology.py``).

With a constant per-link propagation delay, FIFO order is automatic for
messages sent at distinct times; for messages sent at the *same* simulated
time the engine's sequence numbers preserve send order. The optional
throughput term (§13 data-volume model) adds ``size / throughput`` to the
delay; because that term is non-decreasing in send order only if sizes are
equal, the link additionally clamps each delivery to be no earlier than the
previous delivery in the same direction — preserving the paper's
order-preserving assumption under the extended model too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.errors import TopologyError
from repro.types import DATACLASS_SLOTS, SiteId, Time


@dataclass(**DATACLASS_SLOTS)
class Link:
    """One bidirectional link ``u <-> v``.

    Attributes
    ----------
    u, v:
        Endpoint site ids (``u < v`` canonically; enforced at construction).
    delay:
        Propagation delay (the paper's communication cost), >= 0.
    throughput:
        Optional data rate for the §13 data-volume model. ``None`` (default)
        means the pure propagation-delay model: transfer time is ``delay``
        regardless of message size.
    """

    u: SiteId
    v: SiteId
    delay: Time
    throughput: Optional[float] = None
    #: last scheduled delivery time towards ``u`` / ``v``, for FIFO clamping
    last_to_u: Time = field(default=0.0, init=False, repr=False)
    last_to_v: Time = field(default=0.0, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.u == self.v:
            raise TopologyError(f"self-loop link on site {self.u}")
        if self.delay < 0:
            raise TopologyError(f"negative delay on link ({self.u},{self.v}): {self.delay}")
        if self.throughput is not None and self.throughput <= 0:
            raise TopologyError(
                f"throughput on link ({self.u},{self.v}) must be > 0, got {self.throughput}"
            )
        if self.u > self.v:
            self.u, self.v = self.v, self.u

    def transfer_time(self, size: float) -> Time:
        """Delay experienced by a message of ``size`` on this link."""
        if self.throughput is None:
            return self.delay
        return self.delay + size / self.throughput

    def delivery_time(self, now: Time, size: float, to: SiteId, extra: Time = 0.0) -> Time:
        """FIFO-clamped arrival time of a message sent now towards ``to``.

        ``extra`` is additional one-off delay (fault-injection jitter); the
        clamp below keeps the link order-preserving even when jitter would
        reorder deliveries.

        Note: ``Network.transmit`` inlines this arithmetic (identical float
        operation order) — keep the two in sync.
        """
        t = now + self.transfer_time(size) + extra
        if to == self.v:
            if t < self.last_to_v:
                t = self.last_to_v
            self.last_to_v = t
        elif to == self.u:
            if t < self.last_to_u:
                t = self.last_to_u
            self.last_to_u = t
        else:
            raise TopologyError(f"site {to} is not an endpoint of link ({self.u},{self.v})")
        return t

    @property
    def key(self) -> Tuple[SiteId, SiteId]:
        """Canonical (u, v) pair with u < v."""
        return (self.u, self.v)
