"""The Potential Computing Sphere (paper §6–§7).

PCS(k) is the set of sites within hop radius ``h`` of ``k``, derived from
the interrupted Bellman–Ford routing table once it is finished: a
destination's ``discovered_phase`` equals its BFS hop distance, so
membership is simply ``discovered_phase <= h``. A site builds its sphere
on first use (:attr:`repro.core.rtds.RTDSSite.pcs`); :func:`pcs_size`
counts the members without building it.

The "communication control structure [...] allowing local broadcast" is the
unique-shortest-path tree implicit in the next-hop tables: to broadcast to a
target set, a site groups the targets by next hop and sends *one* message
per distinct hop carrying the sub-list; each relay repeats the split. The
cost is one transmission per tree edge traversed — this is what keeps RTDS
traffic independent of the network size (experiment E2). The split is
recomputed on every send from the site's live next-hop row: a site keeps
no route memo, so its state is bounded by the sphere, not by how many
distinct target sets it has relayed, and a membership repair that
rewrites a row has nothing to invalidate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import RoutingError
from repro.core.messages import MSG_SPHERE
from repro.routing.table import RoutingTable
from repro.simnet.site import SiteBase
from repro.types import SiteId, Time


@dataclass(frozen=True)
class PCS:
    """The Potential Computing Sphere of one site."""

    root: SiteId
    h: int
    #: members, root excluded, sorted by (delay distance, id)
    members: Tuple[SiteId, ...]
    #: root's delay distance to each member (hop-bounded min delay)
    distance: Dict[SiteId, Time]
    #: BFS hop distance of each member
    hops: Dict[SiteId, int]

    def __contains__(self, sid: SiteId) -> bool:
        return sid == self.root or sid in self.distance

    def __len__(self) -> int:
        return len(self.members)

    def nearest(self, count: int) -> List[SiteId]:
        """The ``count`` members closest in delay (ACS size bounding)."""
        return list(self.members[:count])


def build_pcs(table: RoutingTable, h: int) -> PCS:
    """Derive PCS membership from a finished routing table.

    Tables that know how to build their sphere sparsely (the lazy
    array-backed tables of :mod:`repro.routing.oracle`) are delegated to:
    their ``pcs(h)`` touches only sites within the radius instead of
    walking every table entry. Both paths produce identical spheres.
    """
    if h < 1:
        raise RoutingError(f"PCS radius h must be >= 1, got {h}")
    sparse = getattr(table, "pcs", None)
    if sparse is not None:
        return sparse(h)
    root = table.owner
    members = [d for d in table.within_phase(h) if d != root]
    distance = {d: table.entry(d).distance for d in members}
    hops = {d: table.entry(d).discovered_phase for d in members}
    members.sort(key=lambda d: (distance[d], d))
    return PCS(root=root, h=h, members=tuple(members), distance=distance, hops=hops)


def pcs_size(table: RoutingTable, h: int) -> int:
    """``len(build_pcs(table, h))`` without building the sphere.

    Array-backed tables count their row's cells with ``1 <= disc <= h``
    (``pcs_size(h)``); other tables count ``within_phase(h)`` minus the
    root.
    """
    if h < 1:
        raise RoutingError(f"PCS radius h must be >= 1, got {h}")
    sparse = getattr(table, "pcs_size", None)
    if sparse is not None:
        return sparse(h)
    root = table.owner
    return sum(1 for d in table.within_phase(h) if d != root)


def split_targets_by_hop(
    site: SiteBase, targets: List[SiteId]
) -> Dict[SiteId, List[SiteId]]:
    """Group broadcast targets by this site's next hop towards them.

    Each group comes out sorted. The split is recomputed on every call
    from the site's live ``next_hop`` row, so a membership repair that
    rewrites the row needs no invalidation.
    """
    groups: Dict[SiteId, List[SiteId]] = {}
    for t in sorted(targets):
        hop = site.next_hop.get(t)
        if hop is None:
            raise RoutingError(f"site {site.sid}: no route to broadcast target {t}")
        groups.setdefault(hop, []).append(t)
    return groups


def sphere_broadcast(
    site: SiteBase,
    targets: List[SiteId],
    inner_mtype: str,
    inner_payload: Dict[str, Any],
    size: float = 1.0,
) -> int:
    """Tree-broadcast ``inner`` to ``targets`` along shortest-path routes.

    Returns the number of first-hop transmissions. Relay handling lives in
    :func:`handle_sphere_message`, which every sphere-aware site wires to
    ``MSG_SPHERE``.
    """
    groups = split_targets_by_hop(site, targets)
    for hop, group in sorted(groups.items()):
        site.send_neighbor(
            hop,
            MSG_SPHERE,
            payload={
                "targets": group,
                "inner_mtype": inner_mtype,
                "inner_payload": inner_payload,
                "origin": site.sid,
            },
            size=size,
        )
    return len(groups)


def handle_sphere_message(site: SiteBase, msg) -> Optional[Dict[str, Any]]:
    """Relay/unwrap one SPHERE envelope at ``site``.

    Forwards the remaining targets (splitting further as needed) and, when
    this site is itself a target, returns the inner ``(mtype, payload,
    origin)`` dict for local dispatch; otherwise returns ``None``.
    """
    payload = msg.payload
    targets: List[SiteId] = payload["targets"]
    inner_mtype = payload["inner_mtype"]
    inner_payload = payload["inner_payload"]
    origin = payload["origin"]

    if len(targets) == 1 and targets[0] == site.sid:
        # Leaf delivery (the common case at the broadcast tree's fringe):
        # nothing to relay, skip the split machinery entirely.
        return {"mtype": inner_mtype, "payload": inner_payload, "origin": origin}

    deliver_here = site.sid in targets
    rest = [t for t in targets if t != site.sid]
    if rest:
        for hop, group in sorted(split_targets_by_hop(site, rest).items()):
            site.send_neighbor(
                hop,
                MSG_SPHERE,
                payload={
                    "targets": group,
                    "inner_mtype": inner_mtype,
                    "inner_payload": inner_payload,
                    "origin": origin,
                },
                size=msg.size,
            )
    if deliver_here:
        return {"mtype": inner_mtype, "payload": inner_payload, "origin": origin}
    return None
