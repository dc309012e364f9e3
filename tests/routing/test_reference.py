"""Tests for the centralized shortest-path oracles (vs networkx)."""

import networkx as nx
import numpy as np
import pytest

from repro.routing.reference import (
    dijkstra,
    hop_bounded_distances,
    hop_diameter,
)
from repro.simnet.topology import erdos_renyi, grid


def to_nx(topo):
    g = nx.Graph()
    g.add_nodes_from(range(topo.n))
    for u, v, d in topo.edges:
        g.add_edge(u, v, weight=d)
    return g


@pytest.fixture(scope="module")
def topo():
    return erdos_renyi(20, 0.2, np.random.default_rng(2), delay_range=(1.0, 9.0))


def test_dijkstra_matches_networkx(topo):
    g = to_nx(topo)
    adj = topo.adjacency()
    for src in range(0, topo.n, 3):
        ours = dijkstra(adj, src)
        theirs = nx.single_source_dijkstra_path_length(g, src)
        assert set(ours) == set(theirs)
        for d in ours:
            assert ours[d] == pytest.approx(theirs[d], abs=1e-9)


def test_hop_bounded_converges_to_dijkstra(topo):
    adj = topo.adjacency()
    full = dijkstra(adj, 0)
    bounded = hop_bounded_distances(adj, 0, topo.n)
    for d, (dist, _) in bounded.items():
        assert dist == pytest.approx(full[d], abs=1e-9)


def test_hop_bounded_monotone(topo):
    adj = topo.adjacency()
    prev = None
    for k in range(1, 6):
        cur = hop_bounded_distances(adj, 0, k)
        if prev is not None:
            # more hops: superset of destinations, distances never worse
            assert set(prev).issubset(set(cur))
            for d in prev:
                assert cur[d][0] <= prev[d][0] + 1e-12
        prev = cur


def test_hop_bounded_bfs_layers():
    topo = grid(3, 3, delay_range=(1.0, 1.0))
    adj = topo.adjacency()
    res = hop_bounded_distances(adj, 0, 10)
    g = to_nx(topo)
    bfs = nx.single_source_shortest_path_length(g, 0)
    for d, (_, hops) in res.items():
        assert hops == bfs[d]


def test_hop_bounded_respects_bound():
    # line of 5: from node 0 with 2 hops, nodes 3, 4 invisible
    topo = grid(1, 5, delay_range=(1.0, 1.0))
    res = hop_bounded_distances(topo.adjacency(), 0, 2)
    assert set(res) == {0, 1, 2}


def test_hop_diameter(topo):
    g = to_nx(topo)
    nx_hop = max(
        max(lengths.values()) for _, lengths in nx.all_pairs_shortest_path_length(g)
    )
    assert hop_diameter(topo.adjacency()) == nx_hop
