"""Centralized shortest-path oracles.

Protocol code never imports this module; tests and metrics use it as ground
truth for the distributed computation:

* :func:`hop_bounded_distances` — min delay over paths of at most ``max_hops``
  edges (the exact semantics of the interrupted Bellman–Ford after
  ``max_hops`` phases);
* :func:`dijkstra` — unbounded shortest delay paths.

Implemented over plain adjacency dicts so they also work on
:class:`~repro.simnet.topology.Topology` objects without a live network.
"""

from __future__ import annotations

import heapq
from typing import Dict, Mapping, Tuple

from repro.types import SiteId, Time

Adjacency = Mapping[SiteId, Mapping[SiteId, Time]]


def dijkstra(adj: Adjacency, src: SiteId) -> Dict[SiteId, Time]:
    """Exact single-source shortest delay distances."""
    dist: Dict[SiteId, Time] = {src: 0.0}
    heap = [(0.0, src)]
    done = set()
    while heap:
        d, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        for v, w in adj[u].items():
            nd = d + w
            if v not in dist or nd < dist[v] - 1e-15:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


def hop_bounded_distances(
    adj: Adjacency, src: SiteId, max_hops: int
) -> Dict[SiteId, Tuple[Time, int]]:
    """Min delay over paths with at most ``max_hops`` edges.

    Returns ``dest -> (distance, bfs_hops)`` where ``bfs_hops`` is the plain
    hop distance (the phase at which the distributed protocol discovers the
    destination). Destinations farther than ``max_hops`` hops are absent.

    Synchronous Bellman–Ford (Jacobi) iteration: ``dist_p[v] = min(dist_{p-1}[v],
    min_u dist_{p-1}[u] + w(u, v))`` — exactly what the phased protocol
    computes, so tests can require equality, not approximation.
    """
    dist: Dict[SiteId, Time] = {src: 0.0}
    bfs: Dict[SiteId, int] = {src: 0}
    prev = dict(dist)
    for phase in range(1, max_hops + 1):
        nxt: Dict[SiteId, Time] = dict(prev)
        for u, du in prev.items():
            for v, w in adj[u].items():
                nd = du + w
                if v not in nxt or nd < nxt[v] - 1e-15:
                    nxt[v] = nd
                if v not in bfs:
                    bfs[v] = phase
        prev = nxt
    return {d: (prev[d], bfs[d]) for d in prev}


def route_stretch(
    adj: Adjacency, known: Mapping[SiteId, Mapping[SiteId, Time]]
) -> Dict[str, float]:
    """Quality of hop-bounded routing vs true shortest paths.

    ``known[s]`` is site s's ``destination -> distance`` map (e.g. its
    routing table's ``entry(d).distance`` after the phased protocol).
    Returns mean/max *stretch* — the ratio of
    the hop-bounded distance to the Dijkstra distance — over all pairs the
    tables know. Stretch is always >= 1 and converges to 1 as the phase
    budget grows; E4 uses it to quantify what interruption costs.
    """
    stretches = []
    for src, dmap in known.items():
        truth = dijkstra(adj, src)
        for dst, d in dmap.items():
            if dst == src:
                continue
            t = truth[dst]
            if t > 0:
                stretches.append(d / t)
    if not stretches:
        return {"pairs": 0.0, "mean": float("nan"), "max": float("nan")}
    import numpy as np

    return {
        "pairs": float(len(stretches)),
        "mean": float(np.mean(stretches)),
        "max": float(np.max(stretches)),
    }


def hop_diameter(adj: Adjacency) -> int:
    """Max pairwise hop distance."""
    best = 0
    for s in adj:
        hops = {s: 0}
        frontier = [s]
        while frontier:
            nxt = []
            for u in frontier:
                for v in adj[u]:
                    if v not in hops:
                        hops[v] = hops[u] + 1
                        nxt.append(v)
            frontier = nxt
        best = max(best, max(hops.values()))
    return best
