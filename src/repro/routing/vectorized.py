"""Vectorized routing-table construction (the wide-network setup kernel).

The distributed phased Bellman–Ford (:mod:`repro.routing.bellman_ford`)
is the *protocol*; this module is the same computation done centrally as
batched numpy sweeps over the link list, so a 1000-site network's routing
tables materialize in milliseconds instead of simulating hundreds of
thousands of update messages.

The kernel is **semantics-exact**, not merely value-approximate: each
phase offers candidate routes per next-hop id in ascending order and
applies the same replacement rule as :meth:`RoutingTable.consider`
(strictly shorter within :data:`~repro.types.EPS`, or equal-delay with a
lower next-hop id), and candidate delays are accumulated in the same
association order the protocol uses (``link delay + neighbour's
accumulated delay``). The resulting distance/next-hop/discovery
tables therefore match a simulated protocol run bit for bit — pinned by
``tests/routing/test_vectorized.py`` — which is what lets the oracle
routing mode (:mod:`repro.routing.oracle`) install them directly into
sites without changing any scheduling decision downstream.

Layout: one :class:`SharedTables` holds every site's row, and a row holds
only the site's ``P``-hop **ball** — the destinations the interrupted
protocol can ever learn — compressed like a CSR matrix: row offsets,
ascending destination ids, and one value array per field. Nothing on the
oracle path allocates an ``n x n`` array; the dense weight matrix
(:func:`weight_matrix`) is built only for the global-state baselines
(:func:`hop_diameter_fast`, :func:`true_distance_matrix`).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import RoutingError
from repro.types import EPS

#: sentinel for "no route" in the integer matrices
NO_ROUTE = -1

#: dtype of destination ids and of the next-hop / discovery arrays
INDEX = np.int32

#: entries of the ``(rows x n)`` scratch map a solve chunk addresses its
#: cells through (at most 4 MB of int32)
_MAP_CELLS = 1 << 20

#: table cells per solve chunk: bounds every per-step temporary
_CHUNK_CELLS = 1 << 16

#: one word of a layout bit set: 64 rows, least significant bit first
_WORD = np.dtype("<u8")


def _ranges(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Flat indices of the ranges ``[starts[k], starts[k] + lens[k])``, concatenated."""
    ends = np.cumsum(lens)
    total = int(ends[-1]) if ends.size else 0
    return np.repeat(starts - (ends - lens), lens) + np.arange(total)


class Links:
    """A symmetric link set in compressed adjacency form.

    The sites adjacent to ``u`` are ``nbr[ptr[u]:ptr[u + 1]]``, ascending,
    and ``delay`` holds the matching link delays. Built from ``(u, v,
    delay)`` triples — a :class:`~repro.simnet.topology.Topology`'s
    ``edges`` or a live network's links. Raises
    :class:`~repro.errors.RoutingError` on a non-positive delay, mirroring
    the protocol's start-time guard.
    """

    __slots__ = ("n", "ptr", "nbr", "delay")

    def __init__(self, n: int, edges: Iterable[Tuple[int, int, float]]) -> None:
        arr = np.array(list(edges), dtype=np.float64).reshape(-1, 3)
        bad = np.flatnonzero(arr[:, 2] <= 0)
        if bad.size:
            u, v, d = arr[bad[0]]
            raise RoutingError(
                f"link ({int(u)},{int(v)}) has non-positive delay {d}; "
                "hop-by-hop forwarding needs strictly positive delays"
            )
        ends = arr[:, :2].astype(np.int64)
        src = np.concatenate((ends[:, 0], ends[:, 1]))
        dst = np.concatenate((ends[:, 1], ends[:, 0]))
        order = np.lexsort((dst, src))
        self.n = n
        self.ptr = np.searchsorted(src[order], np.arange(n + 1))
        self.nbr = dst[order].astype(INDEX)
        self.delay = np.concatenate((arr[:, 2], arr[:, 2]))[order]

    def degree(self) -> np.ndarray:
        """Links per site."""
        return np.diff(self.ptr)

    def neighbors_of(self, sites: np.ndarray) -> np.ndarray:
        """The sites adjacent to any of ``sites`` (with repeats)."""
        return self.nbr[_ranges(self.ptr[sites], self.ptr[sites + 1] - self.ptr[sites])]


def hop_distances(links: Links, sources, limit: Optional[int] = None) -> np.ndarray:
    """BFS hop distances from the nearest of ``sources`` over the links.

    Returns an ``n``-vector with ``-1`` for sites farther than ``limit``
    hops (or unreachable: isolated latent sites stay at ``-1`` and never
    enter any neighbourhood).
    """
    hd = np.full(links.n, NO_ROUTE, dtype=np.int64)
    frontier = np.unique(np.asarray(sources, dtype=np.int64))
    hd[frontier] = 0
    d = 0
    while frontier.size and (limit is None or d < limit):
        d += 1
        reached = links.neighbors_of(frontier)
        hd[reached[hd[reached] < 0]] = d
        frontier = np.flatnonzero(hd == d)
    return hd


class SharedTables:
    """Every site's routing-table row over its ``P``-hop ball, row-compressed.

    Site ``i``'s row is the cell range ``indptr[i]:indptr[i + 1]``:
    ``cols`` holds the destination ids (ascending), ``dist`` the known
    minimum delay, ``next_hop`` the adjacent site the route leaves through
    (``i`` itself on the self cell) and ``disc`` the phase at which the
    destination entered the table (its BFS hop distance; ``0`` on the self
    cell), which is also the hop count the spheres read.
    Destinations outside the ball are absent, never stored as ``inf``.
    ``phases`` is the phase budget the tables were interrupted at.

    :meth:`take_rows` keeps a subset of the rows non-empty, and a
    membership join replaces the affected rows in place
    (:meth:`replace_rows`), so the row views of
    :mod:`repro.routing.oracle` always read the live arrays.
    """

    __slots__ = (
        "n", "phases", "indptr", "cols", "dist", "next_hop", "disc",
        "_ptr", "_cols", "dist_mv", "next_hop_mv",
    )

    def __init__(self, n: int, phases: int, indptr, cols, dist, next_hop, disc) -> None:
        self.n = n
        self.phases = phases
        self._install(indptr, cols, dist, next_hop, disc)

    def _install(self, indptr, cols, dist, next_hop, disc) -> None:
        self.indptr, self.cols, self.dist = indptr, cols, dist
        self.next_hop, self.disc = next_hop, disc
        # memoryviews index to plain Python ints/floats: the per-message
        # lookups (cell, next hop, delay) never build numpy scalars
        self._ptr = memoryview(indptr)
        self._cols = memoryview(cols)
        self.dist_mv = memoryview(dist)
        self.next_hop_mv = memoryview(next_hop)

    def _arrays(self) -> Tuple[np.ndarray, ...]:
        return (self.cols, self.dist, self.next_hop, self.disc)

    def row(self, sid: int) -> slice:
        """The cell range of site ``sid``'s row."""
        return slice(self._ptr[sid], self._ptr[sid + 1])

    def cell(self, sid: int, dest) -> int:
        """Index of cell ``(sid, dest)``, or ``-1`` when ``dest`` is unknown to ``sid``."""
        lo, hi = self._ptr[sid], self._ptr[sid + 1]
        cols = self._cols
        k = bisect_left(cols, dest, lo, hi)
        return k if k < hi and cols[k] == dest else NO_ROUTE

    def known_count(self, sid: int) -> int:
        """Number of table entries of site ``sid`` (self included)."""
        return self._ptr[sid + 1] - self._ptr[sid]

    def take_rows(self, rows: np.ndarray) -> "SharedTables":
        """The same tables with every row outside ``rows`` (ascending) emptied."""
        lens = np.zeros(self.n, dtype=np.int64)
        lens[rows] = np.diff(self.indptr)[rows]
        pick = _ranges(self.indptr[rows], lens[rows])
        return SharedTables(
            self.n, self.phases, _offsets(lens), *(a[pick] for a in self._arrays())
        )

    def replace_rows(self, rows: np.ndarray, fresh: "SharedTables") -> None:
        """Rows ``rows`` become ``fresh``'s, in place; every other row is kept."""
        take = np.zeros(self.n, dtype=bool)
        take[rows] = True
        lens = np.where(take, np.diff(fresh.indptr), np.diff(self.indptr))
        starts = np.where(take, fresh.indptr[:-1] + self.cols.size, self.indptr[:-1])
        pick = _ranges(starts, lens)
        self._install(
            _offsets(lens),
            *(np.concatenate((mine, theirs))[pick]
              for mine, theirs in zip(self._arrays(), fresh._arrays())),
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, SharedTables):
            return NotImplemented
        return (
            self.n == other.n
            and self.phases == other.phases
            and np.array_equal(self.indptr, other.indptr)
            and all(np.array_equal(a, b) for a, b in zip(self._arrays(), other._arrays()))
        )

    __hash__ = None  # type: ignore[assignment]


def _offsets(lens: np.ndarray) -> np.ndarray:
    """Row offsets (``n + 1``) of rows with ``lens`` cells."""
    indptr = np.zeros(lens.size + 1, dtype=np.int64)
    np.cumsum(lens, out=indptr[1:])
    return indptr


def weight_matrix(topo) -> np.ndarray:
    """The symmetric link-delay matrix of a topology.

    ``W[u, v]`` is the delay of link ``(u, v)`` and ``inf`` where no link
    exists (including the diagonal). Only the global-state baselines read
    it (:func:`hop_diameter_fast`, :func:`true_distance_matrix`). Raises
    :class:`~repro.errors.RoutingError` on non-positive delays (see
    :class:`Links`).
    """
    links = Links(topo.n, topo.edges)
    W = np.full((topo.n, topo.n), np.inf, dtype=np.float64)
    W[np.repeat(np.arange(topo.n), links.degree()), links.nbr] = links.delay
    return W


def _pieces(lens: np.ndarray, cap: int) -> Iterator[slice]:
    """Consecutive slices of at most ``cap`` items and, past the first
    item, at most :data:`_CHUNK_CELLS` summed ``lens``."""
    ends = np.cumsum(lens)
    start = 0
    while start < lens.size:
        base = ends[start] - lens[start]
        stop = int(np.searchsorted(ends, base + _CHUNK_CELLS, side="right"))
        stop = min(max(stop, start + 1), start + cap)
        yield slice(start, stop)
        start = stop


def _balls(links: Links, rows: np.ndarray, phases: int):
    """The table layout: each of ``rows``' ``phases``-hop balls.

    A multi-source BFS per chunk of rows on bit sets: ``reached[v]`` holds
    one bit per chunk row, and a site's next-ring bits are the OR of its
    neighbours' frontier bits, taken over the sites next to the frontier
    only. Each ring is written into a ``(chunk rows x n)`` scratch map,
    which is read back in order. Returns ``(indptr, cols, disc)`` with
    ``disc`` the BFS hop distance — the phase at which the protocol first
    learns the destination. Rows outside ``rows`` stay empty.
    """
    n = links.n
    deg = links.degree()
    cap = max(1, _MAP_CELLS // max(n, 1))
    scratch = np.full(min(cap, rows.size) * n, NO_ROUTE, dtype=INDEX)
    counts = np.zeros(n, dtype=np.int64)
    col_parts: List[np.ndarray] = [np.empty(0, dtype=INDEX)]
    disc_parts: List[np.ndarray] = [np.empty(0, dtype=INDEX)]
    for a in range(0, rows.size, cap):
        chunk = rows[a:a + cap]
        pos = np.arange(chunk.size)
        width = 8 * -(-chunk.size // 64)  # bytes per site
        reached = np.zeros((n, width // 8), dtype=_WORD)
        reached[chunk, pos >> 6] = np.left_shift(_WORD.type(1), (pos & 63).astype(_WORD))
        frontier = reached.copy()
        active = chunk
        scratch[pos * n + chunk] = 0
        for k in range(1, phases + 1):
            near = np.zeros(n, dtype=bool)
            near[links.neighbors_of(active)] = True
            near = np.flatnonzero(near)
            if not near.size:
                break
            # (np.take gathers rows an order of magnitude faster than [])
            grown = np.bitwise_or.reduceat(
                np.take(frontier, links.neighbors_of(near), axis=0),
                _offsets(deg[near])[:-1], axis=0,
            )
            seen = np.take(reached, near, axis=0)
            grown &= ~seen
            reached[near] = seen | grown
            frontier[active] = 0
            frontier[near] = grown
            active = near
            # the ring's (row, site) pairs: the set bits of the nonzero bytes
            byte = grown.view(np.uint8).ravel()
            hit = np.flatnonzero(byte)
            if not hit.size:
                break
            bit = np.flatnonzero(np.unpackbits(byte[hit], bitorder="little"))
            hit = hit[bit >> 3]
            scratch[((hit % width) * 8 + (bit & 7)) * n + near[hit // width]] = k
        keys = np.flatnonzero(scratch[:chunk.size * n] >= 0)
        disc_parts.append(scratch[keys])
        scratch[keys] = NO_ROUTE
        counts[chunk] = np.diff(np.searchsorted(keys, np.arange(chunk.size + 1) * n))
        col_parts.append(np.remainder(keys, n, out=keys).astype(INDEX))
    return _offsets(counts), np.concatenate(col_parts), np.concatenate(disc_parts)


def _solve(links: Links, rows: np.ndarray, phases: int, indptr, cols, disc):
    """``(dist, next_hop)`` over the ball layout, phase by phase.

    Phase 1 is the self cell plus the adjacent links. Each later phase
    ``p`` offers, to every row ``i`` and every neighbour ``u`` of ``i`` in
    ascending id order, ``u``'s phase-``(p - 1)`` cells (read from a
    snapshot) and applies the :meth:`RoutingTable.consider` rule. The
    ``r``-th neighbour of every row is offered in one batch — no two of its
    offers hit the same cell — and batches go in ``r`` order, which is
    each row's ascending-neighbour order.
    """
    n = links.n
    size = cols.size
    lens = np.diff(indptr)
    deg = links.degree()
    dist = np.full(size, np.inf)
    next_hop = np.full(size, NO_ROUTE, dtype=INDEX)
    own = disc == 0
    next_hop[own] = cols[own]
    dist[own] = 0.0
    # a row's hop-1 cells are its links, both in ascending neighbour order
    adjacent = disc == 1
    next_hop[adjacent] = cols[adjacent]
    dist[adjacent] = links.delay[_ranges(links.ptr[rows], deg[rows])]
    if phases < 2 or not size:
        return dist, next_hop

    # Rows go most links first, so a chunk's rows have similar degrees (a
    # chunk runs as many rank batches as its largest degree) and rank r's
    # batch is a prefix of the chunk.
    by_degree = rows[np.argsort(-deg[rows], kind="stable")]
    chunks = []
    for piece in _pieces(lens[by_degree], max(1, _MAP_CELLS // max(n, 1))):
        chunk = by_degree[piece]
        d = deg[chunk]
        alive = np.searchsorted(-d, -np.arange(int(d[0]) if d.size else 0), side="left")
        chunks.append((chunk, alive.tolist()))
    scratch = np.full(max(c.size for c, _ in chunks) * n, NO_ROUTE, dtype=INDEX)

    # A solve restricted to some rows leaves cells of its outermost rows
    # unfilled; they offer inf, which never replaces (inf - inf is the nan
    # the tie test compares false), and only rows past their own validity
    # horizon read them.
    with np.errstate(invalid="ignore"):
        for phase in range(2, phases + 1):
            # what each row knew after the previous phase — the cells its
            # neighbours are offered — snapshotted, since rows change as the
            # sweep goes
            known = disc < phase
            before = np.cumsum(known, dtype=INDEX)
            known_ptr = np.where(indptr > 0, before[np.maximum(indptr - 1, 0)], 0)
            del before
            known_cols = cols[known]
            known_dist = dist[known]
            del known
            changed = False
            for chunk, alive in chunks:
                # the chunk's cells, addressed by (position in chunk, destination)
                cells = _ranges(indptr[chunk], lens[chunk])
                keys = np.repeat(np.arange(chunk.size) * n, lens[chunk]) + cols[cells]
                scratch[keys] = cells
                for rank, m in enumerate(alive):
                    link = links.ptr[chunk[:m]] + rank
                    u = links.nbr[link]
                    offered = known_ptr[u + 1] - known_ptr[u]
                    ends = np.cumsum(offered)
                    src = _ranges(known_ptr[u], offered)
                    tgt = scratch[np.repeat(np.arange(m) * n, offered) + known_cols[src]]
                    # candidate delay accumulates exactly like the protocol: my
                    # link delay to u, plus u's previous-phase accumulated delay
                    cand = np.repeat(links.delay[link], offered) + known_dist[src]
                    cur = dist[tgt]
                    repl = cand < cur - EPS
                    # equal delay (within EPS): the lower next hop wins
                    tie = np.flatnonzero(np.abs(cand - cur) <= EPS)
                    if tie.size:
                        via = u[np.searchsorted(ends, tie, side="right")]
                        repl[tie[via < next_hop[tgt[tie]]]] = True
                    hit = np.flatnonzero(repl)
                    # a site never replaces its own self-entry
                    hit = hit[disc[tgt[hit]] != 0]
                    if not hit.size:
                        continue
                    changed = True
                    t = tgt[hit]
                    dist[t] = cand[hit]
                    next_hop[t] = u[np.searchsorted(ends, hit, side="right")]
                scratch[keys] = NO_ROUTE
            # release this phase's snapshot before the next one is taken
            del known_cols, known_dist
            if not changed:
                # Fixpoint: remaining phases are no-ops (the protocol would
                # keep exchanging empty deltas; the tables cannot change).
                break
    return dist, next_hop


def phased_tables(
    links: Links, total_phases: int, rows: Optional[Sequence[int]] = None
) -> SharedTables:
    """Run ``total_phases`` of the phased Bellman–Ford, batched.

    Phase counting follows the paper (and the protocol): the initial
    table — self plus adjacent links — is phase 1, so ``total_phases``
    phases mean ``total_phases - 1`` synchronous relaxation sweeps. Each
    sweep offers, for every site ``i``, every neighbour ``u`` of ``i`` in
    ascending id order and every destination ``j`` ``u`` knew after the
    previous phase, the candidate route ``delay(i, u) + dist_prev[u, j]``
    and applies the :meth:`RoutingTable.consider` replacement rule.

    The layout pass first lays out each row over its ``total_phases``-hop
    ball — exactly the cells the protocol ever fills — and the solve works
    on those cells alone: per phase, one batch per neighbour rank, sized
    by the balls (``O(sum_i degree(i) * |ball|)`` element work per sweep),
    never an ``n x n`` array. Cross-checked exactly against the simulated
    protocol, the pure-Python oracle and the frozen dense solve by
    ``tests/routing/``.

    With ``rows``, only those rows are kept (the others are empty). A
    row's phase-``p`` offers come from its neighbours' phase-``(p - 1)``
    rows, so only the rows within ``total_phases - 1`` hops of ``rows``
    are solved — a join repair's affected rows.
    """
    if total_phases < 1:
        raise RoutingError(f"total_phases must be >= 1, got {total_phases}")
    if rows is None:
        solve = np.arange(links.n)
    else:
        keep = np.unique(np.asarray(rows, dtype=np.int64))
        solve = np.flatnonzero(hop_distances(links, keep, total_phases - 1) >= 0)
    indptr, cols, disc = _balls(links, solve, total_phases)
    dist, next_hop = _solve(links, solve, total_phases, indptr, cols, disc)
    tables = SharedTables(links.n, total_phases, indptr, cols, dist, next_hop, disc)
    return tables if rows is None else tables.take_rows(keep)


def _neighbor_lists(W: np.ndarray) -> List[np.ndarray]:
    """``lists[u]`` = row indices of the sites adjacent to ``u``, ascending."""
    i, u = np.nonzero(np.isfinite(W))
    by_u = np.argsort(u, kind="stable")
    return np.split(i[by_u], np.searchsorted(u[by_u], np.arange(1, W.shape[0])))


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
