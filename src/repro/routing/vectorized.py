"""Vectorized routing-table construction (the wide-network setup kernel).

The distributed phased Bellman–Ford (:mod:`repro.routing.bellman_ford`)
is the *protocol*; this module is the same computation done centrally as
batched numpy min-plus sweeps over the link-weight matrix, so a 1000-site
network's routing tables materialize in milliseconds instead of simulating
hundreds of thousands of update messages.

The kernel is **semantics-exact**, not merely value-approximate: each
phase offers candidate routes per next-hop id in ascending order and
applies the same replacement rule as :meth:`RoutingTable.consider`
(strictly shorter within :data:`~repro.types.EPS`, or equal-delay with a
lower next-hop id), and candidate delays are accumulated in the same
association order the protocol uses (``link delay + neighbour's
accumulated delay``). The resulting distance/next-hop/hops/discovery
matrices therefore match a simulated protocol run bit for bit — pinned by
``tests/routing/test_vectorized.py`` — which is what lets the oracle
routing mode (:mod:`repro.routing.oracle`) install them directly into
sites without changing any scheduling decision downstream.

Layout: one :class:`SharedTables` holds four ``n x n`` arrays shared by
*all* sites — row ``i`` is site ``i``'s table. Per-site state is a pair
of row views (O(1) per site); absent routes are ``inf`` delay /
``-1`` next hop / ``-1`` discovery phase.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Union

import numpy as np

from repro.errors import RoutingError
from repro.types import EPS

#: sentinel for "no route" in the integer matrices
NO_ROUTE = -1

#: dtype of the next-hop / hops / discovery matrices: site ids and phase
#: counts of any network whose ``n x n`` tables fit in memory fit in 32 bits
INDEX = np.int32


@dataclass(frozen=True)
class SharedTables:
    """All-site routing tables as shared immutable arrays.

    ``dist[i, j]`` is site ``i``'s known minimum delay to ``j`` (``inf``
    when ``j`` is undiscovered), ``next_hop[i, j]`` the adjacent site the
    route leaves through (``-1`` when absent, ``i`` on the diagonal),
    ``hops[i, j]`` the edge count of the path realising ``dist`` and
    ``disc[i, j]`` the phase at which ``j`` entered ``i``'s table (the
    BFS hop distance; ``0`` on the diagonal). ``phases`` is the phase
    budget the tables were interrupted at.
    """

    n: int
    phases: int
    dist: np.ndarray
    next_hop: np.ndarray
    hops: np.ndarray
    disc: np.ndarray

    def known_count(self, sid: int) -> int:
        """Number of table entries of site ``sid`` (self included)."""
        return int(np.count_nonzero(self.disc[sid] >= 0))


def weight_matrix(topo, sites: Union[np.ndarray, None] = None) -> np.ndarray:
    """The symmetric link-delay matrix of a topology.

    ``W[u, v]`` is the delay of link ``(u, v)`` and ``inf`` where no link
    exists (including the diagonal — self-delay never participates in the
    phased relaxation). Raises :class:`~repro.errors.RoutingError` on
    non-positive delays, mirroring the protocol's start-time guard.

    With ``sites`` (ascending ids): the sub-matrix those sites induce,
    built straight from the edge list, never via the dense ``(n, n)`` one.
    """
    index = None
    m = topo.n
    if sites is not None:
        index = np.full(topo.n, -1, dtype=np.int64)
        index[sites] = np.arange(len(sites))
        m = len(sites)
    W = np.full((m, m), np.inf, dtype=np.float64)
    for u, v, d in topo.edges:
        if d <= 0:
            raise RoutingError(
                f"link ({u},{v}) has non-positive delay {d}; "
                "hop-by-hop forwarding needs strictly positive delays"
            )
        if index is not None:
            u, v = index[u], index[v]
            if u < 0 or v < 0:
                continue
        W[u, v] = d
        W[v, u] = d
    return W


def _links_by_site(W: np.ndarray):
    """The finite cells of ``W`` grouped by column: ``(i, u, bounds)`` with
    ``i[bounds[u]:bounds[u + 1]]`` the sites adjacent to ``u``, ascending."""
    i, u = np.nonzero(np.isfinite(W))
    by_u = np.argsort(u, kind="stable")
    i, u = i[by_u], u[by_u]
    return i, u, np.searchsorted(u, np.arange(W.shape[0] + 1))


def _neighbor_lists(W: np.ndarray) -> List[np.ndarray]:
    """``lists[u]`` = row indices of the sites adjacent to ``u``."""
    i, _, bounds = _links_by_site(W)
    return np.split(i, bounds[1:-1])


def _phase1_state(W: np.ndarray, i: np.ndarray, u: np.ndarray):
    """Phase-1 knowledge matrices: self plus the adjacent links ``i -> u``."""
    n = W.shape[0]
    ids = np.arange(n)
    dist = W.copy()
    dist[ids, ids] = 0.0
    next_hop, hops, disc = (np.full((n, n), NO_ROUTE, dtype=INDEX) for _ in range(3))
    next_hop[i, u] = u
    next_hop[ids, ids] = ids
    for steps in (hops, disc):
        steps[i, u] = 1
        steps[ids, ids] = 0
    return dist, next_hop, hops, disc


def phased_tables(W: np.ndarray, total_phases: int) -> SharedTables:
    """Run ``total_phases`` of the phased Bellman–Ford, batched.

    Phase counting follows the paper (and the protocol): the initial
    table — self plus adjacent links — is phase 1, so ``total_phases``
    phases mean ``total_phases - 1`` synchronous relaxation sweeps. Each
    sweep offers, for every ordered pair ``(i, j)`` and every neighbour
    ``u`` of ``i`` in ascending id order, the candidate route
    ``W[i, u] + dist_prev[u, j]`` and applies the
    :meth:`RoutingTable.consider` replacement rule.

    Each sweep loops over candidate next hops ``u`` in ascending id order
    (the protocol's neighbour processing order) and batches the update
    over all pairs ``(site adjacent to u, destination known to u)`` at
    once. Restricting the destination columns to ``u``'s *known* set —
    the hop-bounded neighbourhood, exactly the lines the protocol would
    put on the wire — keeps early sweeps tiny and bounds the element
    work by ``O(sum_u degree(u) * |knowledge_u|)`` per sweep. (Both a
    ``minimum.reduceat`` edge-list formulation and a degree-padded 3D
    formulation were measured 1.5-6x slower here: small per-site degrees
    make their per-segment/gather overheads dominate.) Cross-checked
    exactly against the simulated protocol and the pure-Python oracle by
    ``tests/routing/test_vectorized.py``.
    """
    if total_phases < 1:
        raise RoutingError(f"total_phases must be >= 1, got {total_phases}")
    n = W.shape[0]
    link_rows, link_u, bounds = _links_by_site(W)
    dist, next_hop, hops, disc = _phase1_state(W, link_rows, link_u)
    neighbors_of = np.split(link_rows[:, None], bounds[1:-1])
    link_col = np.split(W[link_rows, link_u][:, None], bounds[1:-1])
    linked = np.flatnonzero(np.diff(bounds)).tolist()
    for phase in range(2, total_phases + 1):
        # u's knowledge after the previous phase = the delta+history the
        # protocol has sent; only these columns can carry offers. Rows are
        # rewritten as the sweep goes, so the known cells (a few percent of
        # the matrix) are snapshotted first, grouped by row.
        known_row, known_col = np.nonzero(np.isfinite(dist))
        known = np.searchsorted(known_row, np.arange(n + 1)).tolist()
        dist_prev = dist[known_row, known_col]
        hops_prev = hops[known_row, known_col]
        changed = False
        for u in linked:
            mine = slice(known[u], known[u + 1])
            rows = neighbors_of[u]
            cols_u = known_col[mine]
            # candidate delay accumulates exactly like the protocol: my
            # link delay to u, plus u's previous-phase accumulated delay
            cand = link_col[u] + dist_prev[mine]
            ix = (rows, cols_u)
            cur = dist[ix]
            repl = (cand < cur - EPS) | ((np.abs(cand - cur) <= EPS) & (u < next_hop[ix]))
            # a site never replaces its own self-entry
            repl &= rows != cols_u
            if not repl.any():
                continue
            changed = True
            rr, cc = np.nonzero(repl)
            ri = rows[rr, 0]
            cj = cols_u[cc]
            dist[ri, cj] = cand[rr, cc]
            next_hop[ri, cj] = u
            hops[ri, cj] = hops_prev[mine][cc] + 1
            fresh = disc[ri, cj] < 0
            disc[ri[fresh], cj[fresh]] = phase
        if not changed:
            # Fixpoint: remaining phases are no-ops (the protocol would
            # keep exchanging empty deltas; the tables cannot change).
            break
    return SharedTables(
        n=n, phases=total_phases, dist=dist, next_hop=next_hop, hops=hops, disc=disc
    )


def closure_rows(W_closure: np.ndarray, closure: np.ndarray, rows: np.ndarray, phases: int):
    """Rows ``rows`` of the full-network tables, solved on a closure alone.

    ``W_closure`` is the weight matrix induced by ``closure``, ascending
    ids covering the ``phases``-hop neighbourhood of every id in ``rows``
    (why that is bit-exact: :mod:`repro.membership.repair`). Returns
    ``(dist, next_hop, hops, disc)`` — a row per ``rows`` id, a column per
    closure id, next hops relabeled back to network ids.
    """
    sub = phased_tables(W_closure, phases)
    pos = np.searchsorted(closure, rows)
    nh = sub.next_hop[pos]
    next_hop = np.where(nh >= 0, closure[np.clip(nh, 0, None)], NO_ROUTE).astype(nh.dtype)
    return sub.dist[pos], next_hop, sub.hops[pos], sub.disc[pos]


def bfs_hops_matrix(W: np.ndarray) -> np.ndarray:
    """All-pairs hop distances over the connectivity of ``W``.

    Pure breadth-first sweeps on boolean matrices: phase ``p`` marks every
    pair first connected by a ``p``-edge path. ``-1`` marks unreachable
    pairs. ``hops.max()`` is the hop diameter — what the experiment
    runner needs to size global routing for the baselines without the
    per-source pure-Python BFS of :func:`repro.routing.reference.hop_diameter`.
    """
    n = W.shape[0]
    finite = np.isfinite(W)
    hops = np.where(finite, 1, NO_ROUTE).astype(np.int64)
    np.fill_diagonal(hops, 0)
    reached = finite.copy()
    np.fill_diagonal(reached, True)
    neighbors_of = _neighbor_lists(W)
    phase = 1
    while True:
        grown = reached.copy()
        for u in range(n):
            rows = neighbors_of[u]
            if rows.size:
                grown[rows] |= reached[u][None, :]
        fresh = grown & ~reached
        if not fresh.any():
            return hops
        phase += 1
        hops[fresh] = phase
        reached = grown


def hop_diameter_fast(W: np.ndarray) -> int:
    """Max pairwise hop distance (vectorized :func:`~repro.routing.reference.hop_diameter`)."""
    return int(bfs_hops_matrix(W).max())


def true_distance_matrix(W: np.ndarray, max_sweeps: Union[int, None] = None) -> np.ndarray:
    """Exact all-pairs shortest delays by min-plus sweeps to fixpoint.

    Converged Bellman–Ford equals true shortest paths; convergence takes
    at most ``n - 1`` sweeps and in practice about the hop length of the
    longest minimum-delay path. Used by the oracle routing mode to feed
    the centralized baseline's coordinator at scales where per-source
    Dijkstra in Python dominates setup.
    """
    n = W.shape[0]
    dist = W.copy()
    np.fill_diagonal(dist, 0.0)
    neighbors_of = _neighbor_lists(W)
    sweeps = max_sweeps if max_sweeps is not None else max(1, n - 1)
    for _ in range(sweeps):
        prev = dist.copy()
        for u in range(n):
            rows = neighbors_of[u]
            if rows.size == 0:
                continue
            cand = W[rows, u][:, None] + prev[u][None, :]
            block = dist[rows]
            np.minimum(block, cand, out=block)
            dist[rows] = block
        if np.array_equal(dist, prev):
            break
    return dist
