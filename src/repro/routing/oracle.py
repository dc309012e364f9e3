"""Oracle routing: install vectorized tables without simulating the protocol.

The wide-network scale-out path (DESIGN.md "Wide-network scaling model").
Instead of simulating ``2h`` phases of routing-update messages per site —
the setup cost that dominated wall clock beyond ~100 sites —
:class:`OracleRouting` is a drop-in for
:class:`~repro.routing.bellman_ford.PhasedBellmanFord` that pulls its
rows from one :class:`~repro.routing.vectorized.SharedTables` computed
once per network. Because the vectorized kernel replicates the protocol's
replacement rule and float association exactly, every site ends up with
the *same* next-hop/distance/PCS state a simulated run would have built.

A row holds only the site's ``P``-hop ball (ascending destination ids
plus one value per field), so per-site state is O(1) and lazy:

* :class:`LazyRoutingTable` — the :class:`~repro.routing.table.RoutingTable`
  API over one row; :class:`RouteEntry` objects are materialized (and
  memoized) only for destinations actually touched;
* :class:`NextHopView` / :class:`DistanceView` — read-only mappings the
  site's ``next_hop`` / ``known_distance`` attributes are rebound to,
  replacing the per-site dict copies. A lookup is a bisection over the
  row's destination ids (:meth:`SharedTables.cell`) and plain-int reads
  through memoryviews — no numpy scalar on the per-message path;
* the PCS is built sparsely from the row arrays
  (:meth:`LazyRoutingTable.pcs`), touching only sites inside the sphere
  radius.

Selected per experiment with ``ExperimentConfig.routing_mode="oracle"``;
the default ``"protocol"`` path is byte-for-byte untouched (the identity
goldens pin it).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.errors import RoutingError
from repro.routing.table import RouteEntry
from repro.routing.vectorized import SharedTables
from repro.types import SiteId, Time


class _RowView:
    """Shared base of the read-only row mappings (one site's table row)."""

    __slots__ = ("_shared", "_owner")

    def __init__(self, shared: SharedTables, owner: SiteId) -> None:
        self._shared = shared
        self._owner = owner

    def _known(self) -> "list":
        """Destination ids present in this row (self included)."""
        return self._shared.cols[self._shared.row(self._owner)].tolist()


class NextHopView(_RowView):
    """``dest -> adjacent next hop`` over the shared next-hop row.

    Mapping-compatible with the dict :class:`~repro.simnet.site.SiteBase`
    normally carries; the owner itself is absent (next hop to self is
    undefined), exactly like ``RoutingTable.as_next_hop_map``.
    """

    def get(self, dest: SiteId, default=None):
        """The adjacent hop towards ``dest``, or ``default`` if unrouted."""
        shared = self._shared
        k = shared.cell(self._owner, dest)
        if k < 0 or dest == self._owner:
            return default
        return shared.next_hop_mv[k]

    def __getitem__(self, dest: SiteId) -> SiteId:
        hop = self.get(dest)
        if hop is None:
            raise KeyError(dest)
        return hop

    def __contains__(self, dest: SiteId) -> bool:
        return self.get(dest) is not None

    def __iter__(self) -> Iterator[SiteId]:
        return (d for d in self._known() if d != self._owner)

    def __len__(self) -> int:
        return self._shared.known_count(self._owner) - 1

    def keys(self):
        """Routable destinations (owner excluded)."""
        return list(self)

    def items(self):
        """``(dest, next_hop)`` pairs, destination-ordered."""
        return [(d, self[d]) for d in self]


class DistanceView(_RowView):
    """``dest -> known minimum delay`` over the shared distance row.

    Includes the owner (distance 0), like ``RoutingTable.as_distance_map``.
    """

    def get(self, dest: SiteId, default=None):
        """Known delay to ``dest``, or ``default`` if undiscovered."""
        k = self._shared.cell(self._owner, dest)
        return self._shared.dist_mv[k] if k >= 0 else default

    def __getitem__(self, dest: SiteId) -> Time:
        d = self.get(dest)
        if d is None:
            raise KeyError(dest)
        return d

    def __contains__(self, dest: SiteId) -> bool:
        return self.get(dest) is not None

    def __iter__(self) -> Iterator[SiteId]:
        return iter(self._known())

    def __len__(self) -> int:
        return self._shared.known_count(self._owner)

    def keys(self):
        """Known destinations (owner included), ascending."""
        return self._known()

    def values(self):
        """Known delays, destination-ordered."""
        return self._shared.dist[self._shared.row(self._owner)].tolist()

    def items(self):
        """``(dest, delay)`` pairs, destination-ordered."""
        return list(zip(self._known(), self.values()))


class LazyRoutingTable:
    """The :class:`~repro.routing.table.RoutingTable` API over one shared row.

    Row data lives in the network-wide :class:`SharedTables`;
    :class:`RouteEntry` objects are built on first access per destination
    and memoized, so a site that only ever talks to its sphere
    materializes O(|PCS|) entries, not O(n).
    """

    __slots__ = ("owner", "_shared", "_entries")

    def __init__(self, shared: SharedTables, owner: SiteId) -> None:
        self.owner = owner
        self._shared = shared
        self._entries: Dict[SiteId, RouteEntry] = {}

    def invalidate(self) -> None:
        """Drop memoized entries after the shared rows were repaired.

        The membership layer calls this for every affected row after an
        incremental join repair (:mod:`repro.membership.repair`): the row
        views read the shared arrays live, but materialized
        :class:`RouteEntry` objects would keep serving pre-join routes.
        """
        self._entries.clear()

    def _row(self) -> slice:
        return self._shared.row(self.owner)

    # -- queries (RoutingTable parity) --------------------------------------

    def __contains__(self, dest: SiteId) -> bool:
        return self._shared.cell(self.owner, dest) >= 0

    def __len__(self) -> int:
        return self._shared.known_count(self.owner)

    def __iter__(self) -> Iterator[RouteEntry]:
        return (self.entry(d) for d in self.destinations())

    def entry(self, dest: SiteId) -> RouteEntry:
        """The (memoized) route line for ``dest``."""
        e = self._entries.get(dest)
        if e is not None:
            return e
        s = self._shared
        k = s.cell(self.owner, dest)
        if k < 0:
            raise RoutingError(f"site {self.owner}: no route to {dest}")
        e = RouteEntry(
            int(dest), float(s.dist[k]), int(s.next_hop[k]), int(s.hops[k]), int(s.disc[k])
        )
        self._entries[dest] = e
        return e

    def get(self, dest: SiteId) -> Optional[RouteEntry]:
        """``entry(dest)`` or ``None`` when unrouted."""
        return self.entry(dest) if dest in self else None

    def destinations(self) -> List[SiteId]:
        """Known destination ids, ascending (owner included)."""
        return self._shared.cols[self._row()].tolist()

    def within_phase(self, max_phase: int) -> List[SiteId]:
        """Destinations first discovered at or before ``max_phase``."""
        row = self._row()
        return self._shared.cols[row][self._shared.disc[row] <= max_phase].tolist()

    def as_next_hop_map(self) -> Dict[SiteId, SiteId]:
        """Materialized ``dest -> next hop`` dict (owner excluded)."""
        row = self._row()
        hops = dict(zip(self._shared.cols[row].tolist(), self._shared.next_hop[row].tolist()))
        hops.pop(self.owner, None)
        return hops

    def as_distance_map(self) -> Dict[SiteId, Time]:
        """Materialized ``dest -> delay`` dict (owner included)."""
        row = self._row()
        return dict(zip(self._shared.cols[row].tolist(), self._shared.dist[row].tolist()))

    def distances_to(self, dests, exclude: Optional[SiteId] = None) -> Dict[SiteId, Time]:
        """Bulk known delays to ``dests`` (absent ones skipped)."""
        s = self._shared
        owner = self.owner
        out: Dict[SiteId, Time] = {}
        for d in dests:
            if d != exclude:
                k = s.cell(owner, d)
                if k >= 0:
                    out[d] = s.dist_mv[k]
        return out

    def lines(self) -> List[Tuple[SiteId, Time, int]]:
        """All route lines in wire format, deterministic order."""
        return [self.entry(d).as_line() for d in self.destinations()]

    # -- sphere construction ------------------------------------------------

    def pcs(self, h: int):
        """Sparse PCS build: touch only sites within hop radius ``h``.

        The vectorized counterpart of :func:`repro.spheres.pcs.build_pcs`:
        membership, delays and hop counts come straight from the row
        arrays, and only the member entries are ever materialized.
        Returns the identical :class:`~repro.spheres.pcs.PCS` a protocol
        table would produce.
        """
        from repro.spheres.pcs import PCS

        if h < 1:
            raise RoutingError(f"PCS radius h must be >= 1, got {h}")
        row = self._row()
        disc = self._shared.disc[row]
        inside = (disc >= 1) & (disc <= h)
        member_ids = self._shared.cols[row][inside]
        dist_row = self._shared.dist[row][inside]
        ids = member_ids.tolist()
        distance = dict(zip(ids, dist_row.tolist()))
        hops = dict(zip(ids, disc[inside].tolist()))
        members = tuple(member_ids[np.lexsort((member_ids, dist_row))].tolist())
        return PCS(root=self.owner, h=h, members=members, distance=distance, hops=hops)

    def pcs_size(self, h: int) -> int:
        """Member count of :meth:`pcs` (``h``) without building it."""
        disc = self._shared.disc[self._row()]
        return int(np.count_nonzero((disc >= 1) & (disc <= h)))


class OracleRouting:
    """Drop-in for :class:`~repro.routing.bellman_ford.PhasedBellmanFord`.

    Same constructor shape and post-``start()`` contract — ``done``,
    ``phase``, ``table``, the site's ``next_hop`` / ``known_distance``
    filled, the ``routing.done`` trace event, ``on_done`` fired — but
    ``start()`` completes synchronously at t=0 from the shared
    precomputed tables: no messages, no simulated phases.
    """

    def __init__(
        self,
        site,
        total_phases: int,
        shared: SharedTables,
        on_done: Optional[Callable[[], None]] = None,
    ) -> None:
        if total_phases < 1:
            raise RoutingError(f"total_phases must be >= 1, got {total_phases}")
        if shared.phases != total_phases:
            raise RoutingError(
                f"shared tables were built for {shared.phases} phases, "
                f"site {site.sid} wants {total_phases}"
            )
        if not 0 <= site.sid < shared.n:
            raise RoutingError(f"site {site.sid} outside shared tables (n={shared.n})")
        self.site = site
        self.total_phases = total_phases
        self.on_done = on_done
        self.shared = shared
        self.table = LazyRoutingTable(shared, site.sid)
        self.phase = 1
        self.done = False
        #: protocol-cost counters, zero by construction (nothing is sent)
        self.messages_sent = 0
        self.lines_sent = 0

    def start(self) -> None:
        """Install the precomputed row views and finish immediately."""
        # Rebind the per-site dicts to shared row views: O(1) per site
        # instead of an O(known destinations) dict copy per site.
        self.site.next_hop = NextHopView(self.shared, self.site.sid)
        self.site.known_distance = DistanceView(self.shared, self.site.sid)
        self.phase = self.total_phases
        self.done = True
        self.site.trace(
            "routing.done",
            phase=self.phase,
            routes=len(self.table),
            messages=self.messages_sent,
        )
        if self.on_done is not None:
            self.on_done()


def oracle_routing_factory(shared_by_phases: Dict[int, SharedTables]):
    """A site-level routing factory over per-phase-budget shared tables.

    ``shared_by_phases`` maps a phase budget to the
    :class:`SharedTables` built for it (RTDS sites ask for ``2h``,
    global-routing baselines for the hop diameter). The returned callable
    has the ``(site, total_phases, on_done=None)`` shape
    :class:`~repro.core.rtds.RTDSSite` and the baseline sites expect.
    """

    def factory(site, total_phases: int, on_done=None) -> OracleRouting:
        try:
            shared = shared_by_phases[total_phases]
        except KeyError:
            raise RoutingError(
                f"no shared tables prepared for phase budget {total_phases} "
                f"(have: {sorted(shared_by_phases)})"
            ) from None
        return OracleRouting(site, total_phases, shared, on_done)

    return factory
