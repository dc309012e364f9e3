"""Per-shard tables ≡ full phased Bellman–Ford, bit for bit (owned rows)."""

import math

import numpy as np
import pytest

from repro.routing.vectorized import NO_ROUTE, Links, phased_tables
from repro.simnet.sharded.partition import partition_topology
from repro.simnet.sharded.tables import shard_tables
from repro.simnet.topology import topology_factory


def _grid(seed=0):
    return topology_factory(
        "grid", rows=5, cols=5, delay_range=(0.5, 1.0), rng=np.random.default_rng(seed)
    )


def _geometric(n=40, seed=1):
    radius = math.sqrt(8.0 / (math.pi * n))
    return topology_factory("geometric", n=n, radius=radius, rng=np.random.default_rng(seed))


def _ba(n=40, seed=2):
    return topology_factory(
        "barabasi_albert", n=n, m=3, delay_range=(0.2, 1.0), rng=np.random.default_rng(seed)
    )


def _full(topo, phases):
    return phased_tables(Links(topo.n, topo.edges), phases)


def _row(tables, sid):
    r = tables.row(sid)
    return [a[r] for a in (tables.cols, tables.dist, tables.next_hop, tables.hops, tables.disc)]


@pytest.mark.parametrize("make", [_grid, _geometric, _ba])
@pytest.mark.parametrize("phases", [1, 4])
def test_owned_rows_match_full_solve_bit_for_bit(make, phases):
    topo = make()
    full = _full(topo, phases)
    plan = partition_topology(topo, 3)
    for part in plan.parts:
        st = shard_tables(topo, part, phases)
        assert st.n == topo.n and st.phases == phases
        for sid in range(topo.n):
            if sid in part:
                # the owned row: exact equality, every field
                for got, want in zip(_row(st, sid), _row(full, sid)):
                    np.testing.assert_array_equal(got, want)
                assert st.known_count(sid) == full.known_count(sid)
            else:
                assert st.known_count(sid) == 0


def test_scalar_and_fancy_access_translate_columns():
    """Global ids need no translation: a scalar lookup of every destination,
    inside the ball or not, reads what the full solve holds."""
    topo = _grid()
    phases = 4
    full = _full(topo, phases)
    plan = partition_topology(topo, 4)
    part = plan.parts[0]
    st = shard_tables(topo, part, phases)
    owner = part[0]
    for dest in range(topo.n):
        k, ref = st.cell(owner, dest), full.cell(owner, dest)
        assert (k < 0) == (ref < 0)
        if k >= 0:
            assert st.dist_mv[k] == full.dist_mv[ref]
            assert st.next_hop_mv[k] == full.next_hop_mv[ref]
    # a destination outside the ball is absent, not stored as a fill
    outside = sorted(set(range(topo.n)) - set(st.cols[st.row(owner)].tolist()))
    assert outside and all(st.cell(owner, d) == NO_ROUTE for d in outside)


def test_oracle_views_work_on_shard_tables():
    """The oracle routing layer runs unchanged against a shard's tables."""
    from repro.routing.oracle import oracle_routing_factory

    class _FakeSite:
        def __init__(self, sid):
            self.sid = sid
            self.next_hop = None
            self.known_distance = None

        def trace(self, *a, **k):
            pass

    topo = _geometric()
    phases = 4
    full = _full(topo, phases)
    plan = partition_topology(topo, 3)
    part = plan.parts[1]
    st = shard_tables(topo, part, phases)
    factory = oracle_routing_factory({phases: st})
    for sid in part:
        site = _FakeSite(sid)
        routing = factory(site, phases)
        routing.start()
        assert routing.done
        for dest in range(topo.n):
            k = full.cell(sid, dest)
            got = site.next_hop.get(dest, -1)
            if dest == sid or k < 0:
                # next hop to self is undefined, like RoutingTable.as_next_hop_map
                assert got == -1
            else:
                assert got == int(full.next_hop[k])
            if k >= 0:
                assert site.known_distance.get(dest) == float(full.dist[k])
            else:
                assert site.known_distance.get(dest) is None
