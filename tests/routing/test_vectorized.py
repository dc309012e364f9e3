"""Equivalence tests for the vectorized routing kernels.

The wide-network scale-out rests on one claim: the batched numpy kernel
computes *exactly* what the distributed protocol computes. Three-way
cross-check:

* vs the **simulated protocol** — bit-for-bit equality of distance,
  next hop and discovery phase, per site, per destination;
* vs the **pure-Python oracle** (`hop_bounded_distances`) — distances to
  1e-9 (the oracle accumulates sums from the source side, the
  protocol/kernel from the destination side, so the float association
  differs) and exact discovery phases;
* `hop_diameter_fast` / `true_distance_matrix` vs their dict-based
  references.
"""

import numpy as np
import pytest

from repro.errors import RoutingError
from repro.routing.bellman_ford import run_pcs_phase_protocol
from repro.routing.reference import dijkstra, hop_bounded_distances, hop_diameter
from repro.routing.vectorized import (
    Links,
    bfs_hops_matrix,
    hop_diameter_fast,
    phased_tables,
    true_distance_matrix,
    weight_matrix,
)
from repro.simnet.engine import Simulator
from repro.simnet.topology import (
    Topology,
    barabasi_albert,
    build_network,
    erdos_renyi,
    grid,
    line,
    random_geometric,
    ring,
)
from tests.conftest import RecordingSite

TOPOLOGIES = [
    line(8, delay_range=(1.0, 1.0)),
    ring(7, delay_range=(0.5, 2.0)),
    grid(3, 4, delay_range=(1.0, 4.0)),
    erdos_renyi(14, 0.25, np.random.default_rng(3), delay_range=(1.0, 5.0)),
    erdos_renyi(30, 0.15, np.random.default_rng(7), delay_range=(0.2, 1.0)),
    random_geometric(12, 0.4, np.random.default_rng(5)),
    barabasi_albert(40, 3, np.random.default_rng(9)),
]


def solve(topo, phases):
    return phased_tables(Links(topo.n, topo.edges), phases)


def run_protocol(topo, phases):
    sim = Simulator()
    net = build_network(topo, sim, lambda sid, n: RecordingSite(sid, n))
    protos = run_pcs_phase_protocol([net.site(s) for s in net.site_ids()], phases)
    sim.run()
    return protos


@pytest.mark.parametrize("topo", TOPOLOGIES, ids=lambda t: t.name)
@pytest.mark.parametrize("phases", [1, 2, 4, 6])
def test_kernel_matches_protocol_bit_for_bit(topo, phases):
    tables = solve(topo, phases)
    protos = run_protocol(topo, phases)
    for sid, proto in protos.items():
        dests = proto.table.within_phase(proto.total_phases)
        assert dests == tables.cols[tables.row(sid)].tolist()
        for d in dests:
            e = proto.table.entry(d)
            k = tables.cell(sid, d)
            # exact float equality, not approx: same association order
            assert e.distance == tables.dist[k], (sid, d)
            assert e.next_hop == tables.next_hop[k], (sid, d)
            assert e.discovered_phase == tables.disc[k], (sid, d)


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 11])
@pytest.mark.parametrize("phases", [1, 2, 3, 5])
def test_kernel_matches_oracle_on_random_weighted_graphs(seed, phases):
    rng = np.random.default_rng(seed)
    topo = erdos_renyi(16, 0.3, rng, delay_range=(0.5, 4.0))
    adj = topo.adjacency()
    tables = solve(topo, phases)
    for src in range(topo.n):
        oracle = hop_bounded_distances(adj, src, phases)
        assert set(tables.cols[tables.row(src)].tolist()) == set(oracle)
        for dest, (dist, bfs) in oracle.items():
            k = tables.cell(src, dest)
            assert tables.dist[k] == pytest.approx(dist, abs=1e-9)
            assert tables.disc[k] == bfs


@pytest.mark.parametrize("topo", TOPOLOGIES, ids=lambda t: t.name)
def test_hop_diameter_fast_matches_reference(topo):
    W = weight_matrix(topo)
    assert hop_diameter_fast(W) == hop_diameter(topo.adjacency())


@pytest.mark.parametrize("topo", TOPOLOGIES, ids=lambda t: t.name)
def test_bfs_hops_matrix_is_symmetric_and_zero_diagonal(topo):
    hops = bfs_hops_matrix(weight_matrix(topo))
    assert np.array_equal(hops, hops.T)
    assert np.all(np.diag(hops) == 0)
    assert np.all(hops >= 0)  # connected topologies: everything reachable


@pytest.mark.parametrize("topo", TOPOLOGIES, ids=lambda t: t.name)
def test_true_distance_matrix_matches_dijkstra(topo):
    dist = true_distance_matrix(weight_matrix(topo))
    adj = topo.adjacency()
    for src in range(topo.n):
        exact = dijkstra(adj, src)
        for dest, d in exact.items():
            assert dist[src, dest] == pytest.approx(d, abs=1e-9)


def test_phases_beyond_fixpoint_change_nothing():
    """The kernel's early exit: extra phases after convergence are no-ops."""
    topo = erdos_renyi(12, 0.4, np.random.default_rng(2), delay_range=(0.5, 3.0))
    a = solve(topo, topo.n - 1)
    b = solve(topo, 4 * topo.n)
    for name in ("indptr", "cols", "dist", "next_hop", "disc"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def test_interruption_limits_knowledge_matrixwise():
    """Two phases on a line: site 0 knows exactly sites 0..2."""
    tables = solve(line(8, delay_range=(1.0, 1.0)), 2)
    assert tables.cols[tables.row(0)].tolist() == [0, 1, 2]


def test_rejects_bad_phase_budget_and_bad_delays():
    topo = ring(5, delay_range=(1.0, 1.0))
    with pytest.raises(RoutingError):
        solve(topo, 0)
    bad = Topology(2, ((0, 1, 0.0),), "zero-delay")
    with pytest.raises(RoutingError):
        weight_matrix(bad)
    with pytest.raises(RoutingError, match=r"link \(0,1\)"):
        Links(bad.n, bad.edges)
