"""Tests for topology generators."""

import numpy as np
import pytest

from repro.errors import TopologyError
from repro.routing.reference import hop_diameter
from repro.simnet.engine import Simulator
from repro.simnet.topology import (
    Topology,
    barabasi_albert,
    build_network,
    complete,
    erdos_renyi,
    grid,
    hypercube,
    line,
    random_geometric,
    random_tree,
    ring,
    star,
    topology_factory,
    torus,
    watts_strogatz,
)
from tests.conftest import RecordingSite

GENS = [
    lambda rng: line(8, rng),
    lambda rng: ring(8, rng),
    lambda rng: star(8, rng),
    lambda rng: complete(6, rng),
    lambda rng: grid(3, 4, rng),
    lambda rng: torus(3, 4, rng),
    lambda rng: hypercube(3, rng),
    lambda rng: random_tree(12, rng),
    lambda rng: erdos_renyi(15, 0.2, rng),
    lambda rng: barabasi_albert(15, 2, rng),
    lambda rng: random_geometric(15, 0.3, rng),
    lambda rng: watts_strogatz(12, 4, 0.3, rng),
]


@pytest.mark.parametrize("gen", GENS)
def test_connected_and_valid(gen):
    topo = gen(np.random.default_rng(7))
    assert topo.is_connected()
    assert all(d > 0 for _, _, d in topo.edges)


@pytest.mark.parametrize("gen", GENS)
def test_deterministic(gen):
    t1 = gen(np.random.default_rng(7))
    t2 = gen(np.random.default_rng(7))
    assert t1.edges == t2.edges


def degrees(t):
    """Sorted site degrees of topology ``t``."""
    return sorted(len(nbrs) for nbrs in t.adjacency().values())


class TestShapes:
    def test_line(self):
        t = line(5)
        assert t.n == 5 and len(t.edges) == 4
        assert hop_diameter(t.adjacency()) == 4

    def test_ring(self):
        t = ring(6)
        assert len(t.edges) == 6
        assert degrees(t) == [2] * 6

    def test_star(self):
        t = star(7)
        assert degrees(t) == [1] * 6 + [6]

    def test_complete(self):
        t = complete(5)
        assert len(t.edges) == 10

    def test_grid(self):
        t = grid(3, 3)
        assert t.n == 9 and len(t.edges) == 12

    def test_torus_regular(self):
        t = torus(3, 3)
        assert degrees(t) == [4] * 9

    def test_hypercube(self):
        t = hypercube(4)
        assert t.n == 16
        assert degrees(t) == [4] * 16

    def test_tree_edge_count(self):
        t = random_tree(20)
        assert len(t.edges) == 19

    def test_ba_growth(self):
        t = barabasi_albert(20, 2)
        assert t.n == 20
        # m links per new node after the seed star
        assert len(t.edges) >= 2 * (20 - 3)

    def test_geometric_delay_proportional_to_distance(self):
        t = random_geometric(10, 0.5, np.random.default_rng(1), delay_scale=10.0)
        # delays bounded by scale * sqrt(2)
        assert all(d <= 10.0 * 1.4143 for _, _, d in t.edges)


class TestValidation:
    def test_bad_params(self):
        with pytest.raises(TopologyError):
            ring(2)
        with pytest.raises(TopologyError):
            grid(0, 3)
        with pytest.raises(TopologyError):
            erdos_renyi(5, 1.5)
        with pytest.raises(TopologyError):
            barabasi_albert(5, 5)
        with pytest.raises(TopologyError):
            watts_strogatz(8, 3, 0.1)  # odd k
        with pytest.raises(TopologyError):
            random_geometric(5, 0.0)

    def test_topology_validates_edges(self):
        with pytest.raises(TopologyError):
            Topology(2, ((0, 0, 1.0),))  # u == v not canonical
        with pytest.raises(TopologyError):
            Topology(2, ((0, 1, 1.0), (0, 1, 2.0)))  # duplicate
        with pytest.raises(TopologyError):
            Topology(2, ((0, 5, 1.0),))  # out of range
        with pytest.raises(TopologyError):
            Topology(2, ((0, 1, -1.0),))  # negative delay


class TestFactory:
    def test_by_name(self):
        t = topology_factory("ring", n=5)
        assert t.n == 5

    def test_unknown_kind(self):
        with pytest.raises(TopologyError):
            topology_factory("mobius")

    def test_build_network(self):
        sim = Simulator()
        topo = ring(5)
        net = build_network(topo, sim, lambda sid, n: RecordingSite(sid, n))
        assert net.size() == 5
        assert sorted(link.key for link in net.links()) == sorted((u, v) for u, v, _ in topo.edges)
        assert net.neighbors(0) == (1, 4)

    def test_build_network_with_throughput(self):
        sim = Simulator()
        net = build_network(line(3), sim, lambda sid, n: RecordingSite(sid, n), throughput=5.0)
        assert net.link(0, 1).throughput == 5.0
