"""The table kernel's scratch is sized by its chunks, not by ``n``.

``phased_tables`` lays rows out and solves them a chunk of rows at a time;
each chunk's scratch — the layout's ring map, the solve's position map,
the rank batches — is bounded by the chunk, so building the tables costs
little beyond the tables themselves. Measured with ``tracemalloc``, not
RSS, so these pass the same on any box.

The solve's position map holds chunk-local cell indices in the narrowest
type that indexes a full chunk (``uint16`` at the real budget); a chunk
of one row whose ball outgrows the budget switches it to ``int32``. That
wide path needs a ball of more than 65 536 cells at the real budget, so
the tests below shrink the budget to 24 cells — narrow is then ``uint8``
— on networks whose largest balls exceed 256 cells, and check the tables
bit for bit against the frozen dense solve.
"""

import tracemalloc

import numpy as np
import pytest

from repro.experiments.widenet import widenet_config
from repro.routing import vectorized
from repro.routing.vectorized import Links, phased_tables, weight_matrix
from repro.simnet.topology import Topology, topology_factory
from tests.frozen_reference import phased_tables_reference
from tests.routing.test_row_tables_differential import assert_rows_match_dense


def test_geometric_1024_tables_peak_within_2_mb_of_what_they_hold():
    cfg = widenet_config("geometric", 1024)
    topo = topology_factory(cfg.topology, rng=np.random.default_rng(0), **cfg.topology_kwargs)
    links = Links(topo.n, topo.edges)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tables = phased_tables(links, cfg.rtds.pcs_phases)
        held, peak = (m - base for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert held >= 20 * tables.cols.size  # the row arrays themselves
    # a (rows x n) int32 scratch map over all 1024 rows alone is 4.2 MB
    assert peak - held <= 2.0e6, f"peak {peak / 1e6:.2f} MB for {held / 1e6:.2f} MB of tables"


def _networks():
    rng = np.random.default_rng(7)
    ba = topology_factory("barabasi_albert", n=300, m=2, rng=rng)
    # integer delays: equal-delay routes, so the lower-next-hop tie-break decides
    ba = Topology(ba.n, tuple((u, v, float(rng.integers(1, 4))) for u, v, _ in ba.edges))
    geo = topology_factory("geometric", n=400, radius=0.15, rng=rng)
    return [(ba, 3), (geo, 4)]


@pytest.mark.parametrize("topo,phases", _networks(), ids=["ba300", "geo400"])
def test_oversized_rows_take_the_wide_map_and_match_the_frozen_solve(monkeypatch, topo, phases):
    links = Links(topo.n, topo.edges)
    budget = 24
    monkeypatch.setattr(vectorized, "_CHUNK_CELLS", budget)
    monkeypatch.setattr(vectorized, "_CHUNK_ROWS", 5)
    tables = phased_tables(links, phases)
    # rows whose ball alone outgrows the chunk budget, and the uint8 range
    assert np.diff(tables.indptr).max() > 256 > budget
    assert_rows_match_dense(tables, phased_tables_reference(weight_matrix(topo), phases))
    monkeypatch.undo()
    assert tables == phased_tables(links, phases)
