"""Per-shard oracle routing tables — bit-identical owned rows, closure cost.

A shard only ever reads *its own sites'* rows of the phased Bellman–Ford
tables, and under a phase budget ``P`` row ``i`` is a pure function of the
subgraph induced by ``i``'s ``P``-hop neighborhood (the locality argument
proven for :func:`repro.membership.repair.repair_after_join`). So each
worker runs the same closure sub-solve
(:func:`~repro.routing.vectorized.closure_rows`) on the subgraph induced
by the **closure** — every site within ``P`` hops of the shard's owned
set — and keeps only the owned rows. They equal the full-network solve
bit for bit while the memory cost drops from ``O(n^2)`` to
``O(|owned| x |closure|)`` — the difference between an 800 MB dense
matrix and a few-MB slab at 10k sites.

:class:`ShardTables` duck-types the slice of the
:class:`~repro.routing.vectorized.SharedTables` surface that
:mod:`repro.routing.oracle`'s lazy views actually touch: scalar
``[owner, dest]`` lookups, fancy ``[owner, ids]`` gathers and dense-row
``[owner]`` materialization, with ``inf`` / ``NO_ROUTE`` fills for
columns outside the closure (provably unreachable within the budget).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.routing.vectorized import NO_ROUTE, closure_rows, weight_matrix
from repro.simnet.topology import Topology


class _ShardArray:
    """Owned-rows x closure-columns slab posing as a dense ``(n, n)`` array.

    Supports exactly the access patterns the oracle routing views use;
    out-of-closure columns read as the fill value (``inf`` for distances,
    ``NO_ROUTE`` for hops/next-hop/discovery phase).
    """

    __slots__ = ("_rows", "_row_of", "_col_of", "_cols", "_fill", "_n")

    def __init__(
        self,
        rows: np.ndarray,
        row_of: Dict[int, int],
        col_of: np.ndarray,
        cols: np.ndarray,
        fill,
        n: int,
    ) -> None:
        self._rows = rows
        self._row_of = row_of
        self._col_of = col_of
        self._cols = cols
        self._fill = fill
        self._n = n

    def __getitem__(self, key):
        if isinstance(key, tuple):
            i, j = key
            row = self._rows[self._row_of[i]]
            if isinstance(j, (int, np.integer)):
                c = self._col_of[j]
                if c >= 0:
                    return row[c]
                return self._rows.dtype.type(self._fill)
            j = np.asarray(j)
            c = self._col_of[j]
            out = row[np.where(c >= 0, c, 0)]
            if c.size and (c < 0).any():
                out = np.where(c >= 0, out, self._fill).astype(self._rows.dtype)
            return out
        full = np.full(self._n, self._fill, dtype=self._rows.dtype)
        full[self._cols] = self._rows[self._row_of[key]]
        return full


class ShardTables:
    """Duck-typed ``SharedTables`` covering one shard's owned rows.

    ``n`` and ``phases`` are network-global so
    :class:`~repro.routing.oracle.OracleRouting`'s invariant checks hold
    unchanged; array attributes are :class:`_ShardArray` slabs.
    """

    __slots__ = ("n", "phases", "dist", "next_hop", "hops", "disc", "closure", "owned")

    def __init__(
        self,
        n: int,
        phases: int,
        dist: _ShardArray,
        next_hop: _ShardArray,
        hops: _ShardArray,
        disc: _ShardArray,
        closure: np.ndarray,
        owned: np.ndarray,
    ) -> None:
        self.n = n
        self.phases = phases
        self.dist = dist
        self.next_hop = next_hop
        self.hops = hops
        self.disc = disc
        self.closure = closure
        self.owned = owned

    def known_count(self, sid: int) -> int:
        """Destinations ``sid`` discovered within the phase budget."""
        return int(np.count_nonzero(self.disc[sid] >= 0))


def _closure_of(topo: Topology, owned: Sequence[int], radius: int) -> np.ndarray:
    """Sorted ids within ``radius`` hops of the owned set (multi-source BFS)."""
    adj: List[List[int]] = [[] for _ in range(topo.n)]
    for u, v, _d in topo.edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = np.zeros(topo.n, dtype=bool)
    frontier = list(owned)
    seen[frontier] = True
    for _ in range(radius):
        nxt: List[int] = []
        for v in frontier:
            for u in adj[v]:
                if not seen[u]:
                    seen[u] = True
                    nxt.append(u)
        if not nxt:
            break
        frontier = nxt
    return np.flatnonzero(seen)


def shard_tables(topo: Topology, owned: Sequence[int], phases: int) -> ShardTables:
    """Solve the owned rows of ``phased_tables(weight_matrix(topo), phases)``.

    Runs the closure sub-solve
    (:func:`~repro.routing.vectorized.closure_rows`) on the
    closure-induced weight matrix (never the dense ``(n, n)`` one) and
    wraps the owned rows in translating :class:`_ShardArray` slabs.
    """
    n = topo.n
    owned_arr = np.asarray(sorted(owned), dtype=np.int64)
    closure = _closure_of(topo, owned_arr, phases)
    col_of = np.full(n, -1, dtype=np.int64)
    col_of[closure] = np.arange(len(closure))
    dist, next_hop, hops, disc = closure_rows(
        weight_matrix(topo, closure), closure, owned_arr, phases
    )
    row_of = {int(sid): i for i, sid in enumerate(owned_arr)}

    def slab(rows: np.ndarray, fill) -> _ShardArray:
        return _ShardArray(np.ascontiguousarray(rows), row_of, col_of, closure, fill, n)

    return ShardTables(
        n=n,
        phases=phases,
        dist=slab(dist, np.inf),
        next_hop=slab(next_hop, NO_ROUTE),
        hops=slab(hops, NO_ROUTE),
        disc=slab(disc, NO_ROUTE),
        closure=closure,
        owned=owned_arr,
    )
