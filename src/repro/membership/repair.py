"""Incremental routing-table repair after a membership join.

When site ``j`` joins, every new edge is incident to ``j``. Under the
phased Bellman–Ford with phase budget ``P`` (phase 1 = self + adjacent),
site ``i``'s row after ``P`` phases is realised exclusively by paths of
at most ``P`` edges starting at ``i`` — so a path can traverse ``j`` only
if ``j`` lies within ``P`` hops of ``i`` in the *new* graph. Rows outside
``N_P(j)`` are therefore byte-identical before and after the join, and
only the **affected rows** ``A = N_P(j)`` need recomputation.

Each affected row is itself a pure function of the induced subgraph over
its own ``P``-hop neighbourhood: every candidate offer at phase ``p``
accumulates a neighbour's phase-``(p-1)`` entry, so nothing further than
``P`` hops ever reaches the row. Since every ``i in A`` is within ``P``
hops of ``j``, the union of those neighbourhoods is contained in the
**closure** ``M = N_2P(j)``. The closure sub-solve
(:func:`~repro.routing.vectorized.closure_rows`) on the induced submatrix
``W[M, M]`` therefore reproduces the affected rows *bit for bit*: the
submatrix keeps ids in ascending order (a monotone relabeling), so the
sweep's ascending next-hop iteration and the lower-id tie-break compare
exactly as in the full computation, and candidate delays are the same
floats added in the same association order.

Cost: ``O(|M|^2 * P)`` instead of ``O(n^2 * P)`` — for a join in a
bounded-degree region this is independent of the network size. The
differential tests in ``tests/membership/test_repair.py`` pin the
bit-for-bit claim against full recomputation for randomized join
sequences.
"""

from __future__ import annotations

import numpy as np

from repro.routing.vectorized import NO_ROUTE, SharedTables, closure_rows


def hop_distances(W: np.ndarray, source: int) -> np.ndarray:
    """BFS hop distances from ``source`` over ``W``'s connectivity.

    Returns an ``n``-vector with ``-1`` for unreachable sites (isolated
    latent sites stay at ``-1`` and never enter any neighbourhood).
    """
    n = W.shape[0]
    finite = np.isfinite(W)
    dist = np.full(n, -1, dtype=np.int64)
    dist[source] = 0
    frontier = np.array([source], dtype=np.int64)
    d = 0
    while frontier.size:
        d += 1
        nxt = np.flatnonzero(finite[frontier].any(axis=0) & (dist < 0))
        dist[nxt] = d
        frontier = nxt
    return dist


def repair_after_join(shared: SharedTables, W: np.ndarray, joined: int) -> np.ndarray:
    """Repair ``shared`` in place after site ``joined`` gained its links.

    ``W`` must already contain the new symmetric link delays. Mutates the
    (shared, immutable-dataclass-but-mutable-array) tables so every
    :class:`~repro.routing.oracle.NextHopView` / ``DistanceView`` row view
    sees the repaired state immediately. Returns the affected row ids
    (ascending) so the caller can invalidate memoised per-site caches and
    refresh protocol spheres for exactly those sites.
    """
    P = shared.phases
    hd = hop_distances(W, joined)
    reachable = hd >= 0
    affected = np.flatnonzero(reachable & (hd <= P))
    closure = np.flatnonzero(reachable & (hd <= 2 * P))
    dist, next_hop, hops, disc = closure_rows(
        W[np.ix_(closure, closure)], closure, affected, P
    )

    # Affected rows can only hold entries within their own P-hop
    # neighbourhood, all of which lie inside the closure — so resetting
    # the whole row and writing back the closure columns loses nothing.
    shared.dist[affected, :] = np.inf
    shared.next_hop[affected, :] = NO_ROUTE
    shared.hops[affected, :] = NO_ROUTE
    shared.disc[affected, :] = NO_ROUTE

    cols = np.ix_(affected, closure)
    shared.dist[cols] = dist
    shared.next_hop[cols] = next_hop
    shared.hops[cols] = hops
    shared.disc[cols] = disc
    return affected
