"""Incremental routing-table repair after a membership join.

When site ``j`` joins, every new edge is incident to ``j``. Under the
phased Bellman–Ford with phase budget ``P`` (phase 1 = self + adjacent),
site ``i``'s row after ``P`` phases is realised exclusively by paths of
at most ``P`` edges starting at ``i`` — so a path can traverse ``j`` only
if ``j`` lies within ``P`` hops of ``i`` in the *new* graph. Rows outside
``N_P(j)`` are therefore byte-identical before and after the join, and
only the **affected rows** ``A = N_P(j)`` need recomputation.

Each affected row is a pure function of its neighbours' earlier-phase
rows: every candidate offer at phase ``p`` accumulates a neighbour's
phase-``(p-1)`` entry. :func:`~repro.routing.vectorized.phased_tables`
with ``rows=A`` therefore solves only the rows within ``P - 1`` hops of
``A`` (inside ``N_2P(j)``), over the network's own links, and reproduces
the affected rows *bit for bit*: ids are global, so the ascending
next-hop order and the lower-id tie-break compare exactly as in the full
solve, and candidate delays are the same floats added in the same
association order. The fresh rows then replace the affected ones
(:meth:`~repro.routing.vectorized.SharedTables.replace_rows`).

Cost: the balls of the rows near the joiner instead of every row — for a
join in a bounded-degree region this is independent of the network size.
The differential tests in ``tests/membership/test_repair.py`` pin the
bit-for-bit claim against full recomputation for randomized join
sequences.
"""

from __future__ import annotations

import numpy as np

from repro.routing.vectorized import Links, SharedTables, hop_distances, phased_tables


def network_links(network) -> Links:
    """The live link set of ``network`` (all its sites, ids ``0..size-1``)."""
    return Links(network.size(), ((l.u, l.v, l.delay) for l in network.links()))


def repair_after_join(shared: SharedTables, links: Links, joined: int) -> np.ndarray:
    """Repair ``shared`` in place after site ``joined`` gained its links.

    ``links`` must already contain the new links. The affected rows are
    replaced in the live tables, so every
    :class:`~repro.routing.oracle.LazyRoutingTable` and
    :class:`~repro.routing.oracle.NextHopView` reads the repaired state
    immediately. Returns the affected row ids (ascending) so the caller
    can refresh protocol spheres for exactly those sites.
    """
    affected = np.flatnonzero(hop_distances(links, [joined], shared.phases) >= 0)
    shared.replace_rows(affected, phased_tables(links, shared.phases, rows=affected))
    return affected
