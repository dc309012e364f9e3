"""The wide-network stand-up path ≡ its frozen loop versions, bit for bit.

``random_geometric`` (cell list + vectorised closest-cross-component
repair) and ``phased_tables`` (rows over each site's ball) are compared
with the pre-rewrite bodies kept in ``tests/frozen_reference.py``: equal
:class:`Topology` objects — same edge tuple, same floats — and every table
row equal to the finite cells of the frozen dense row. Radii go
far below the connectivity threshold so that graphs need many repairs and
hold isolated single sites; ``delay_scale`` is not the default 10.

The scale tests pin what the rewrites are for: a 4096-site geometric
topology and its tables without any ``n x n`` array.
"""

import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TopologyError
from repro.experiments.widenet import widenet_topology
from repro.routing.vectorized import Links, phased_tables, weight_matrix
from repro.simnet.topology import Topology, random_geometric, topology_factory
from tests.frozen_reference import phased_tables_reference, random_geometric_reference
from tests.routing.test_row_tables_differential import assert_rows_match_dense


@st.composite
def geometric_cells(draw):
    """``(n, radius, seed, delay_scale)``; mean degree ``pi r^2 n`` from 0.05
    (nearly every site isolated) to 12 (connected). The reference scans
    all pairs once per repair, so shattered graphs stay small."""
    shattered = draw(st.booleans())
    n = draw(st.integers(2, 60) if shattered else st.integers(61, 300))
    degree = draw(st.floats(0.05, 3.0) if shattered else st.floats(2.5, 12.0))
    radius = float(np.sqrt(degree / (np.pi * n)))
    return n, radius, draw(st.integers(0, 2**32 - 1)), draw(st.floats(0.25, 40.0))


def _repair_links(topo, radius, delay_scale):
    """Edges longer than ``radius``: only a connectivity repair adds those."""
    return [(u, v) for u, v, d in topo.edges if d > delay_scale * radius * (1 + 1e-12)]


def _assert_tables_equal(topo, phases):
    assert_rows_match_dense(
        phased_tables(Links(topo.n, topo.edges), phases),
        phased_tables_reference(weight_matrix(topo), phases),
    )


@given(geometric_cells())
@settings(max_examples=60, deadline=None)
def test_geometric_equals_frozen_reference(cell):
    n, radius, seed, delay_scale = cell
    new = random_geometric(n, radius, np.random.default_rng(seed), delay_scale)
    ref = random_geometric_reference(n, radius, np.random.default_rng(seed), delay_scale)
    assert new == ref
    assert new.is_connected()


@given(geometric_cells(), st.sampled_from([1, 2, 4, 7]), st.integers(0, 2))
@settings(max_examples=40, deadline=None)
def test_tables_equal_frozen_reference(cell, phases, latent):
    n, radius, seed, delay_scale = cell
    topo = random_geometric(n, radius, np.random.default_rng(seed), delay_scale)
    # latent join sites: link-less rows the solver must leave untouched
    _assert_tables_equal(Topology(n + latent, topo.edges), phases)


@pytest.mark.parametrize("seed", range(4))
def test_many_repairs_and_isolated_sites(seed):
    """Pinned shattered cells: >= 3 repairs, some joining a lone site."""
    n, radius, scale = 120, 0.05, 3.5
    new = random_geometric(n, radius, np.random.default_rng(seed), scale)
    assert new == random_geometric_reference(n, radius, np.random.default_rng(seed), scale)
    repairs = _repair_links(new, radius, scale)
    assert len(repairs) >= 3
    degree = np.bincount(np.array([e[:2] for e in new.edges]).ravel(), minlength=n)
    assert any(degree[u] == 1 or degree[v] == 1 for u, v in repairs)
    _assert_tables_equal(new, 4)


def test_tables_equal_reference_on_a_dense_scale_free_graph():
    """Barabási–Albert tables are ~90 % dense: the snapshot is nearly the
    whole matrix there, the other end of the range from geometric graphs."""
    topo = topology_factory("barabasi_albert", n=200, m=3, rng=np.random.default_rng(5))
    _assert_tables_equal(topo, 4)


def test_edge_validation_names_the_first_bad_edge():
    good = (0, 1, 1.0)
    for bad, message in (
        ((0, 5, 1.0), r"edge \(0,5\) out of range"),
        ((-1, 1, 1.0), r"edge \(-1,1\) out of range"),
        ((2, 1, 1.0), r"edge \(2,1\) not canonical"),
        ((0, 1, 2.0), r"duplicate edge \(0,1\)"),
        ((1, 2, -0.5), r"negative delay on \(1,2\)"),
    ):
        with pytest.raises(TopologyError, match=message):
            Topology(3, (good, bad), name="t")


def test_4096_site_topology_needs_no_n_by_n_temporaries():
    """64 MB is a quarter of one float64 ``4096 x 4096`` array; the old
    generator held several (the ``(n, n, 2)`` difference tensor, its
    square, the distance matrix, two ``triu`` index vectors)."""
    name, kwargs = widenet_topology("geometric", 4096)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        topo = topology_factory(name, rng=np.random.default_rng(0), **kwargs)
        wall = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert topo.n == 4096 and topo.is_connected()
    assert peak < 64e6, f"peak {peak / 1e6:.0f} MB"
    assert wall < 5.0, f"{wall:.1f} s"
