"""Routing tables.

Each site maintains route lines ``<destination, distance, next hop>``
(paper §7.1) extended with two fields the sphere layer needs:

* ``hops`` — edge count of the path realising ``distance`` (so the PCS can
  check the paper's "diameter in terms of hops is bounded" property);
* ``discovered_phase`` — the logical phase at which the destination first
  entered the table. Because vectors propagate exactly one hop per phase
  regardless of delay values, this equals the BFS hop distance and is what
  defines PCS membership (``discovered_phase <= h``).

Tie-breaking: when two candidate routes have equal distance the lower
next-hop id wins, and an incumbent entry is only replaced by a strictly
shorter one. This makes the minimum-delay path to every destination
*unique and stable* across sites — the paper's "unique minimum
communication delay path" property — and keeps runs deterministic.

The table is the one store of a site's routes. The phased protocol
writes it (``consider``) and sends its ``lines``; the sphere is read off
it (``within_phase``, ``entry``), ENROLL_ACK reads ``distances_to``, and
the site's forwarding map is ``as_next_hop_map``. Oracle mode serves the
same reads from a shared row (:class:`~repro.routing.oracle.LazyRoutingTable`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import RoutingError
from repro.types import DATACLASS_SLOTS, EPS, SiteId, Time


@dataclass(frozen=True, **DATACLASS_SLOTS)
class RouteEntry:
    """One routing-table line (slotted: tables hold one per destination)."""

    dest: SiteId
    distance: Time
    next_hop: SiteId
    hops: int
    discovered_phase: int

    def as_line(self) -> Tuple[SiteId, Time, int]:
        """The wire format of a route line: (destination, distance, hops).

        The next hop is *not* sent — a receiver computes its own (the
        sending neighbour itself), as in distance-vector routing.
        """
        return (self.dest, self.distance, self.hops)


class RoutingTable:
    """The routing table of one site."""

    def __init__(self, owner: SiteId) -> None:
        self.owner = owner
        self._entries: Dict[SiteId, RouteEntry] = {
            owner: RouteEntry(owner, 0.0, owner, 0, 0)
        }

    # -- queries -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def entry(self, dest: SiteId) -> RouteEntry:
        try:
            return self._entries[dest]
        except KeyError:
            raise RoutingError(f"site {self.owner}: no route to {dest}") from None

    def within_phase(self, max_phase: int) -> List[SiteId]:
        """Destinations first discovered at or before ``max_phase``.

        With phase = BFS layer this is "all sites within ``max_phase`` hops"
        — the PCS membership rule.
        """
        return sorted(
            d for d, e in self._entries.items() if e.discovered_phase <= max_phase
        )

    def as_next_hop_map(self) -> Dict[SiteId, SiteId]:
        """dest -> adjacent next hop, for :attr:`SiteBase.next_hop`."""
        return {
            d: e.next_hop for d, e in self._entries.items() if d != self.owner
        }

    def distances_to(
        self, dests: Iterable[SiteId], exclude: Optional[SiteId] = None
    ) -> Dict[SiteId, Time]:
        """Known distances to the ``dests`` present in the table.

        Bulk form of ``entry(d).distance`` for the ENROLL_ACK hot path —
        one dict walk, no per-destination exception machinery. ``exclude``
        (typically the owner) is skipped.
        """
        entries = self._entries
        return {
            d: entries[d].distance
            for d in dests
            if d != exclude and d in entries
        }

    # -- updates -----------------------------------------------------------

    def consider(
        self,
        dest: SiteId,
        distance: Time,
        next_hop: SiteId,
        hops: int,
        phase: int,
    ) -> bool:
        """Offer a candidate route; keep it if strictly better.

        Returns True iff the table changed. "Better" is lexicographic
        (distance, next-hop id) with an EPS guard so float noise cannot flap
        routes; the discovery phase of a destination never changes once set.
        """
        if dest == self.owner:
            return False
        entries = self._entries
        cur = entries.get(dest)
        if cur is None:
            entries[dest] = RouteEntry(dest, distance, next_hop, hops, phase)
            return True
        cd = cur.distance
        if distance < cd - EPS or (abs(distance - cd) <= EPS and next_hop < cur.next_hop):
            entries[dest] = RouteEntry(
                dest, distance, next_hop, hops, cur.discovered_phase
            )
            return True
        return False

    def lines(self) -> List[Tuple[SiteId, Time, int]]:
        """All route lines in wire format, deterministic order."""
        return [self._entries[d].as_line() for d in sorted(self._entries)]
