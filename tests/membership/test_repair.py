"""Incremental routing repair ≡ full rebuild — the membership lockdown.

:func:`repro.membership.repair.repair_after_join` must leave every row of
the shared tables **bit-for-bit** equal to re-running
:func:`~repro.routing.vectorized.phased_tables` from scratch on the
grown link set, after any sequence of joins. Randomized trials pin the
common shapes; the Hypothesis property sweeps membership event sequences
(joins with 1..3 links, joiner-to-joiner links included).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.membership.repair import hop_distances, repair_after_join
from repro.routing.vectorized import Links, phased_tables


def _base_edges(n_base, seed, p=0.4):
    """Random connected-ish base graph as a ``{(u, v): delay}`` dict."""
    rng = np.random.default_rng(seed)
    edges = {}
    for i in range(1, n_base):
        # a random spanning tree keeps the base reachable
        j = int(rng.integers(i))
        edges[(j, i)] = float(rng.uniform(0.2, 2.0))
    for i in range(n_base):
        for j in range(i + 1, n_base):
            if rng.random() < p and (i, j) not in edges:
                edges[(i, j)] = float(rng.uniform(0.2, 2.0))
    return edges


def _links(n_total, edges):
    """Links over ``n_total`` sites; ids beyond the base stay latent until linked."""
    return Links(n_total, [(u, v, d) for (u, v), d in sorted(edges.items())])


def _join(edges, joiner, peer, d):
    edges[(min(joiner, peer), max(joiner, peer))] = d


def test_hop_distances_bfs():
    links = Links(4, [(0, 1, 1.0), (1, 2, 5.0)])
    hd = hop_distances(links, 0)
    assert list(hd) == [0, 1, 2, -1]  # site 3 isolated
    assert list(hop_distances(links, 0, limit=1)) == [0, 1, -1, -1]


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("phases", [1, 2, 4])
def test_single_join_equals_rebuild(seed, phases):
    rng = np.random.default_rng(1000 + seed)
    n_base = int(rng.integers(5, 16))
    edges = _base_edges(n_base, seed)
    shared = phased_tables(_links(n_base + 1, edges), phases)
    joiner = n_base
    for peer in rng.choice(n_base, size=2, replace=False):
        _join(edges, joiner, int(peer), float(rng.uniform(0.2, 2.0)))
    links = _links(n_base + 1, edges)
    affected = repair_after_join(shared, links, joiner)
    assert joiner in affected
    assert shared == phased_tables(links, phases)


def test_sequential_joins_including_joiner_links():
    rng = np.random.default_rng(7)
    n_base, n_joins, phases = 10, 3, 3
    edges = _base_edges(n_base, 7)
    n_total = n_base + n_joins
    shared = phased_tables(_links(n_total, edges), phases)
    for k in range(n_joins):
        joiner = n_base + k
        # peers may include earlier joiners: membership grows on itself
        for peer in rng.choice(joiner, size=2, replace=False):
            _join(edges, joiner, int(peer), float(rng.uniform(0.2, 2.0)))
        links = _links(n_total, edges)
        repair_after_join(shared, links, joiner)
        assert shared == phased_tables(links, phases)


@st.composite
def membership_sequences(draw):
    seed = draw(st.integers(min_value=0, max_value=10_000))
    n_base = draw(st.integers(min_value=4, max_value=12))
    phases = draw(st.integers(min_value=1, max_value=5))
    n_joins = draw(st.integers(min_value=1, max_value=3))
    links = [
        draw(st.integers(min_value=1, max_value=3)) for _ in range(n_joins)
    ]
    return seed, n_base, phases, links


@given(membership_sequences())
@settings(max_examples=40, deadline=None)
def test_any_membership_sequence_equals_rebuild(params):
    """After every join of any event sequence, repaired == rebuilt."""
    seed, n_base, phases, n_links = params
    rng = np.random.default_rng(seed)
    n_total = n_base + len(n_links)
    edges = _base_edges(n_base, seed)
    shared = phased_tables(_links(n_total, edges), phases)
    for k, count in enumerate(n_links):
        joiner = n_base + k
        for peer in rng.choice(joiner, size=min(count, joiner), replace=False):
            _join(edges, joiner, int(peer), float(rng.uniform(0.2, 2.0)))
        links = _links(n_total, edges)
        affected = repair_after_join(shared, links, joiner)
        # the affected set is exactly the <=P-hop in-neighbourhood
        hd = hop_distances(links, joiner)
        expected = np.flatnonzero((hd >= 0) & (hd <= phases))
        np.testing.assert_array_equal(affected, expected)
        assert shared == phased_tables(links, phases)
