"""Row-compressed tables ≡ the frozen dense solve, row for row.

``phased_tables`` lays each site's row out over its ``P``-hop ball and
solves those cells alone. The claim, for any network: every row's
``(cols, dist, next_hop, disc)`` is exactly the finite cells of
the same row of the frozen dense solve
(``tests/frozen_reference.phased_tables_reference``), float for float.
It must keep holding after joins repaired in place, and for a row
subset (the join-repair path).

The strategy draws geometric, Erdős–Rényi, Barabási–Albert and grid
networks up to 300 sites, phase budgets 1–6, latent link-less sites, and
mostly *integer* delays, so equal-delay routes are common and the EPS
tie and lower-next-hop tie-break decide many cells. Three planted
mutants of the solve each fail this property: dropping the lower-id
tie-break, offering from the live rows instead of the phase ``p - 1``
snapshot, and laying rows out over a ball of radius ``P - 1``.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.membership.repair import repair_after_join
from repro.routing.vectorized import Links, phased_tables, weight_matrix
from repro.simnet.topology import Topology, topology_factory
from tests.frozen_reference import phased_tables_reference


def assert_rows_match_dense(tables, ref):
    """Every row of ``tables`` holds exactly the finite cells of ``ref``'s row."""
    assert (tables.n, tables.phases) == (ref.n, ref.phases)
    known = ref.disc >= 0
    # the dense solve marks a cell known exactly where its delay is finite
    np.testing.assert_array_equal(known, np.isfinite(ref.dist))
    np.testing.assert_array_equal(np.diff(tables.indptr), known.sum(axis=1))
    rows, cols = np.nonzero(known)
    np.testing.assert_array_equal(tables.cols, cols)
    for name in ("dist", "next_hop", "disc"):
        np.testing.assert_array_equal(
            getattr(tables, name), getattr(ref, name)[rows, cols], err_msg=name
        )


def _family(draw, rng):
    kind = draw(st.sampled_from(["geometric", "erdos_renyi", "barabasi_albert", "grid"]))
    if kind == "grid":
        rows = draw(st.integers(1, 17))
        cols = draw(st.integers(2, 300 // rows))
        return topology_factory("grid", rows=rows, cols=cols, rng=rng)
    n = draw(st.integers(2, 300))
    if kind == "geometric":
        degree = draw(st.floats(0.5, 10.0))
        radius = float(np.sqrt(degree / (np.pi * n)))
        return topology_factory("geometric", n=n, radius=radius, rng=rng)
    if kind == "erdos_renyi":
        p = draw(st.floats(0.0, min(1.0, 6.0 / n)))
        return topology_factory("erdos_renyi", n=n, p=p, rng=rng)
    m = draw(st.integers(1, min(4, n - 1)))
    return topology_factory("barabasi_albert", n=n, m=m, rng=rng)


@st.composite
def networks(draw):
    """``(topology, phases, latent)``: ``latent`` link-less sites at the end."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    topo = _family(draw, rng)
    edges = topo.edges
    if draw(st.integers(0, 4)):
        # integer delays: equal-delay routes everywhere
        edges = tuple((u, v, float(rng.integers(1, 4))) for u, v, _ in edges)
    latent = draw(st.integers(0, 3))
    return Topology(topo.n + latent, edges, topo.name), draw(st.integers(1, 6)), latent


def _frozen(topo, phases):
    return phased_tables_reference(weight_matrix(topo), phases)


@given(networks())
@settings(max_examples=60, deadline=None)
def test_rows_equal_the_frozen_dense_solve(cell):
    topo, phases, _ = cell
    assert_rows_match_dense(phased_tables(Links(topo.n, topo.edges), phases), _frozen(topo, phases))


@given(networks(), st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_owned_rows_equal_the_full_solve(cell, seed):
    topo, phases, _ = cell
    links = Links(topo.n, topo.edges)
    full = phased_tables(links, phases)
    rng = np.random.default_rng(seed)
    owned = np.flatnonzero(rng.random(topo.n) < rng.uniform(0.05, 0.6))
    part = phased_tables(links, phases, rows=owned)
    assert part == full.take_rows(owned)
    assert all(part.known_count(s) == 0 for s in set(range(topo.n)) - set(owned.tolist()))


@given(networks(), st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_joins_repaired_in_place_equal_fresh_and_frozen_solves(cell, seed):
    topo, phases, latent = cell
    rng = np.random.default_rng(seed)
    base = topo.n - latent
    edges = list(topo.edges)
    shared = phased_tables(Links(topo.n, edges), phases)
    for joiner in range(base, topo.n):
        peers = rng.choice(joiner, size=min(joiner, int(rng.integers(1, 4))), replace=False)
        edges += [(int(p), joiner, float(rng.integers(1, 4))) for p in peers]
        grown = Topology(topo.n, tuple(sorted(edges)), topo.name)
        links = Links(grown.n, grown.edges)
        repair_after_join(shared, links, joiner)
        assert shared == phased_tables(links, phases)
        assert_rows_match_dense(shared, _frozen(grown, phases))
