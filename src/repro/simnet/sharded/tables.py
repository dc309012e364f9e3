"""Per-shard oracle routing tables — bit-identical owned rows, ball cost.

A shard only ever reads *its own sites'* rows of the phased Bellman–Ford
tables, and under a phase budget ``P`` a row's phase-``p`` offers come
from its neighbours' phase-``(p - 1)`` rows (the locality argument of
:func:`repro.membership.repair.repair_after_join`). So each worker solves
only the rows within ``P - 1`` hops of its owned set
(:func:`~repro.routing.vectorized.phased_tables` with ``rows=``) and
keeps the owned ones: a :class:`~repro.routing.vectorized.SharedTables`
whose other rows are empty. Global site ids stay global — no column
translation — and the owned rows equal the full-network solve bit for
bit, at the cost of the owned sites' balls.
"""

from __future__ import annotations

from typing import Sequence

from repro.routing.vectorized import Links, SharedTables, phased_tables
from repro.simnet.topology import Topology


def shard_tables(topo: Topology, owned: Sequence[int], phases: int) -> SharedTables:
    """The owned rows of ``phased_tables(Links(topo.n, topo.edges), phases)``."""
    return phased_tables(Links(topo.n, topo.edges), phases, rows=owned)
