"""Frozen reference oracles for the wide-network stand-up path.

Verbatim copies of ``repro.simnet.topology.random_geometric`` and
``repro.routing.vectorized.phased_tables`` (with its two helpers) as they
stood before the pair scan and the dense temporaries were removed. They
are the loop versions the rewritten kernels must reproduce bit for bit;
``tests/simnet/test_standup_differential.py`` compares against them.
Do not optimise or "fix" this file.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.errors import RoutingError, TopologyError
from repro.routing.vectorized import NO_ROUTE, SharedTables
from repro.simnet.topology import Topology
from repro.types import EPS


def random_geometric_reference(
    n: int,
    radius: float,
    rng: Optional[np.random.Generator] = None,
    delay_scale: float = 10.0,
) -> Topology:
    """``random_geometric`` as of PR 20: dense ``(n, n)`` distances and a
    Python scan of every site pair per connectivity repair."""
    if n < 2:
        raise TopologyError("random_geometric needs n >= 2")
    if radius <= 0:
        raise TopologyError("radius must be > 0")
    rng = rng or np.random.default_rng(0)
    pts = rng.random((n, 2))
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt((diff**2).sum(axis=2))
    iu, ju = np.triu_indices(n, k=1)
    mask = dist[iu, ju] <= radius
    edges = {(int(a), int(b)): float(dist[a, b]) for a, b in zip(iu[mask], ju[mask])}

    # Component repair: greedily connect closest cross-component pair.
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        parent[find(a)] = find(b)
    while True:
        roots = {find(i) for i in range(n)}
        if len(roots) == 1:
            break
        best = None
        for a, b in zip(iu, ju):
            if find(int(a)) != find(int(b)):
                d = float(dist[a, b])
                if best is None or d < best[0]:
                    best = (d, int(a), int(b))
        assert best is not None
        d, a, b = best
        edges[(min(a, b), max(a, b))] = d
        parent[find(a)] = find(b)

    topo_edges = tuple(
        (u, v, delay_scale * d) for (u, v), d in sorted(edges.items())
    )
    topo = Topology(n, topo_edges, f"geo-{n}-r{radius}")
    if not topo.is_connected():
        raise TopologyError("random_geometric repair failed (internal error)")
    return topo


def _neighbor_lists(W: np.ndarray) -> List[np.ndarray]:
    """``lists[u]`` = row indices of the sites adjacent to ``u``."""
    finite = np.isfinite(W)
    return [np.flatnonzero(finite[:, u]) for u in range(W.shape[0])]


def _phase1_state(W: np.ndarray):
    """Phase-1 knowledge matrices: self plus adjacent links."""
    n = W.shape[0]
    ids = np.arange(n)
    finite = np.isfinite(W)
    dist = W.copy()
    np.fill_diagonal(dist, 0.0)
    next_hop = np.where(finite, ids[None, :], NO_ROUTE).astype(np.int64)
    np.fill_diagonal(next_hop, ids)
    hops = np.where(finite, 1, NO_ROUTE).astype(np.int64)
    np.fill_diagonal(hops, 0)
    disc = np.where(finite, 1, NO_ROUTE).astype(np.int64)
    np.fill_diagonal(disc, 0)
    return dist, next_hop, hops, disc


def phased_tables_reference(W: np.ndarray, total_phases: int) -> SharedTables:
    """``phased_tables`` as of PR 20: int64 tables, two whole-matrix copies
    per phase, phase-1 state from ``np.where`` passes over ``W``."""
    if total_phases < 1:
        raise RoutingError(f"total_phases must be >= 1, got {total_phases}")
    n = W.shape[0]
    dist, next_hop, hops, disc = _phase1_state(W)
    neighbors_of = _neighbor_lists(W)
    link_col = [W[neighbors_of[u], u][:, None] for u in range(n)]
    for phase in range(2, total_phases + 1):
        dist_prev = dist.copy()
        hops_prev = hops.copy()
        changed = False
        for u in range(n):
            rows = neighbors_of[u]
            if rows.size == 0:
                continue
            # u's knowledge after the previous phase = the delta+history
            # the protocol has sent; only these columns can carry offers
            cols_u = np.flatnonzero(np.isfinite(dist_prev[u]))
            # candidate delay accumulates exactly like the protocol: my
            # link delay to u, plus u's previous-phase accumulated delay
            cand = link_col[u] + dist_prev[u, cols_u][None, :]
            ix = (rows[:, None], cols_u[None, :])
            cur = dist[ix]
            repl = (cand < cur - EPS) | ((np.abs(cand - cur) <= EPS) & (u < next_hop[ix]))
            # a site never replaces its own self-entry
            repl &= rows[:, None] != cols_u[None, :]
            if not repl.any():
                continue
            changed = True
            rr, cc = np.nonzero(repl)
            ri = rows[rr]
            cj = cols_u[cc]
            dist[ri, cj] = cand[rr, cc]
            next_hop[ri, cj] = u
            hops[ri, cj] = hops_prev[u, cj] + 1
            fresh = disc[ri, cj] < 0
            disc[ri[fresh], cj[fresh]] = phase
        if not changed:
            # Fixpoint: remaining phases are no-ops (the protocol would
            # keep exchanging empty deltas; the tables cannot change).
            break
    return SharedTables(
        n=n, phases=total_phases, dist=dist, next_hop=next_hop, hops=hops, disc=disc
    )
