"""Tests for maximum bipartite matching (the §10 coupling)."""

import numpy as np
import pytest

from repro.sched.matching import (
    hopcroft_karp,
    maximum_matching_bruteforce,
    perfect_left_matching,
)


def check_valid(adjacency, matching):
    used = set()
    for left, right in matching.items():
        assert right in adjacency[left]
        assert right not in used
        used.add(right)


class TestHopcroftKarp:
    def test_empty(self):
        assert hopcroft_karp({}) == {}

    def test_single_edge(self):
        m = hopcroft_karp({"a": ["x"]})
        assert m == {"a": "x"}

    def test_perfect_square(self):
        adj = {i: [i, (i + 1) % 4] for i in range(4)}
        m = hopcroft_karp(adj)
        assert len(m) == 4
        check_valid(adj, m)

    def test_augmenting_path_needed(self):
        # greedy a->x then b stuck; HK must flip a to y
        adj = {"a": ["x", "y"], "b": ["x"]}
        m = hopcroft_karp(adj)
        assert len(m) == 2
        check_valid(adj, m)

    def test_no_edges_left_vertex(self):
        m = hopcroft_karp({"a": [], "b": ["x"]})
        assert m == {"b": "x"}

    def test_deterministic(self):
        adj = {i: [j for j in range(5)] for i in range(5)}
        assert hopcroft_karp(adj) == hopcroft_karp(adj)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_bruteforce_on_random(self, seed):
        rng = np.random.default_rng(seed)
        nl, nr = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        adj = {
            l: [r for r in range(nr) if rng.random() < 0.4] for l in range(nl)
        }
        m = hopcroft_karp(adj)
        check_valid(adj, m)
        assert len(m) == maximum_matching_bruteforce(adj)

    def test_dense_random_is_near_perfect(self):
        """64 left vertices, 8 random right neighbours each out of 64."""
        rng = np.random.default_rng(3)
        adj = {l: [int(r) for r in rng.choice(64, size=8, replace=False)] for l in range(64)}
        m = hopcroft_karp(adj)
        check_valid(adj, m)
        assert len(m) > 48

    def test_matches_networkx(self):
        import networkx as nx

        rng = np.random.default_rng(99)
        for _ in range(10):
            nl, nr = int(rng.integers(2, 9)), int(rng.integers(2, 9))
            adj = {l: [r for r in range(nr) if rng.random() < 0.35] for l in range(nl)}
            g = nx.Graph()
            g.add_nodes_from([("L", l) for l in adj], bipartite=0)
            g.add_nodes_from([("R", r) for r in range(nr)], bipartite=1)
            for l, rs in adj.items():
                for r in rs:
                    g.add_edge(("L", l), ("R", r))
            nx_size = len(nx.max_weight_matching(g, maxcardinality=True))
            assert len(hopcroft_karp(adj)) == nx_size


class TestPerfectLeftMatching:
    def test_perfect_found(self):
        adj = {0: ["a", "b"], 1: ["a"]}
        m = perfect_left_matching(adj)
        assert m == {0: "b", 1: "a"}

    def test_imperfect_rejected(self):
        # both want "a" only
        assert perfect_left_matching({0: ["a"], 1: ["a"]}) is None

    def test_empty_is_perfect(self):
        assert perfect_left_matching({}) == {}

    def test_paper_rule(self):
        """|coupling| < |U| -> reject (None); == |U| -> permutation."""
        procs = [0, 1, 2]
        endorsements_ok = {10: [0, 1], 11: [1, 2], 12: [0, 2]}
        adj = {p: [s for s, es in endorsements_ok.items() if p in es] for p in procs}
        assert perfect_left_matching(adj) is not None
        endorsements_bad = {10: [0], 11: [0], 12: [0, 2]}
        adj2 = {p: [s for s, es in endorsements_bad.items() if p in es] for p in procs}
        assert perfect_left_matching(adj2) is None
