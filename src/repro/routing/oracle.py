"""Oracle routing: install vectorized tables without simulating the protocol.

The wide-network scale-out path (DESIGN.md "Wide-network scaling model").
Instead of simulating ``2h`` phases of routing-update messages per site —
the setup cost that dominated wall clock beyond ~100 sites —
:class:`OracleRouting` is a drop-in for
:class:`~repro.routing.bellman_ford.PhasedBellmanFord` that pulls its
rows from one :class:`~repro.routing.vectorized.SharedTables` computed
once per network. Because the vectorized kernel replicates the protocol's
replacement rule and float association exactly, every site ends up with
the *same* next hops, distances and PCS a simulated run would have built.

A row holds only the site's ``P``-hop ball (ascending destination ids
plus one value per field), so per-site state is O(1), and every read goes
to the live row (a membership repair leaves nothing stale):

* :class:`LazyRoutingTable` — the part of the
  :class:`~repro.routing.table.RoutingTable` API a run reads off an
  oracle table: its size, ``within_phase``, ``distances_to`` and the
  sphere;
* :class:`NextHopView` — the read-only ``get`` the site's ``next_hop``
  attribute is rebound to, replacing the per-site dict. A lookup is a
  bisection over the row's destination ids (:meth:`SharedTables.cell`)
  and a plain-int read through a memoryview — no numpy scalar on the
  per-message path;
* the PCS is built sparsely from the row arrays
  (:meth:`LazyRoutingTable.pcs`), touching only sites inside the sphere
  radius.

Selected per experiment with ``ExperimentConfig.routing_mode="oracle"``;
the default ``"protocol"`` path is byte-for-byte untouched (the identity
goldens pin it).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

import numpy as np

from repro.errors import RoutingError
from repro.routing.vectorized import SharedTables
from repro.types import SiteId, Time


class NextHopView:
    """``dest -> adjacent next hop`` over one site's shared next-hop row.

    Stands in for the dict :class:`~repro.simnet.site.SiteBase` carries,
    which is only ever read with ``get``; the owner itself has no next
    hop, exactly like ``RoutingTable.as_next_hop_map``.
    """

    __slots__ = ("_shared", "_owner")

    def __init__(self, shared: SharedTables, owner: SiteId) -> None:
        self._shared = shared
        self._owner = owner

    def get(self, dest: SiteId, default=None):
        """The adjacent hop towards ``dest``, or ``default`` if unrouted."""
        shared = self._shared
        k = shared.cell(self._owner, dest)
        if k < 0 or dest == self._owner:
            return default
        return shared.next_hop_mv[k]


class LazyRoutingTable:
    """The routing-table reads a run makes, over one shared row.

    Row data lives in the network-wide :class:`SharedTables` and is read
    live on every call, so the table holds no per-destination state.
    """

    __slots__ = ("owner", "_shared")

    def __init__(self, shared: SharedTables, owner: SiteId) -> None:
        self.owner = owner
        self._shared = shared

    def _row(self) -> slice:
        return self._shared.row(self.owner)

    def __len__(self) -> int:
        return self._shared.known_count(self.owner)

    def within_phase(self, max_phase: int) -> List[SiteId]:
        """Destinations first discovered at or before ``max_phase``."""
        row = self._row()
        return self._shared.cols[row][self._shared.disc[row] <= max_phase].tolist()

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
    ``phase``, ``table``, the site's ``next_hop`` filled, the
    ``routing.done`` trace event, ``on_done`` fired — but
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
        #: protocol-cost counter, zero by construction (nothing is sent)
        self.messages_sent = 0

    def start(self) -> None:
        """Install the precomputed row view and finish immediately."""
        # Rebind the per-site dict to a shared row view: O(1) per site
        # instead of an O(known destinations) dict copy per site.
        self.site.next_hop = NextHopView(self.shared, self.site.sid)
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
