"""Tests for the DAG generator families."""

import numpy as np
import pytest

from repro.errors import DagError
from repro.graphs.dag import Dag
from repro.graphs.generators import (
    fork_join_dag,
    gaussian_elimination_dag,
    layered_dag,
    linear_chain_dag,
    paper_example_dag,
    random_dag,
)
from repro.graphs.workflows import mapreduce_dag
from repro.workloads.traces import trace_dag_factory

ALL_FAMILIES = [
    lambda rng: linear_chain_dag(8, rng),
    lambda rng: fork_join_dag(6, rng),
    lambda rng: mapreduce_dag(4, 3, rng),
    lambda rng: trace_dag_factory("montage")(rng),
    lambda rng: trace_dag_factory("epigenomics")(rng),
    lambda rng: gaussian_elimination_dag(5, rng),
    lambda rng: layered_dag(3, 5, rng, jitter=False),
    lambda rng: random_dag(20, rng, p_edge=0.5),
    lambda rng: layered_dag(4, 3, rng),
    lambda rng: random_dag(15, rng),
]


@pytest.mark.parametrize("factory", ALL_FAMILIES)
def test_all_families_valid_and_deterministic(factory):
    d1 = factory(np.random.default_rng(42))
    d2 = factory(np.random.default_rng(42))
    assert isinstance(d1, Dag)
    assert d1.edges == d2.edges
    assert [d1.complexity(t) for t in d1] == [d2.complexity(t) for t in d2]
    # ids form a topological order for integer-id families
    order = list(d1.topological_order())
    pos = {t: i for i, t in enumerate(order)}
    for u, v in d1.edges:
        assert pos[u] < pos[v]


@pytest.mark.parametrize("factory", ALL_FAMILIES)
def test_complexities_positive(factory):
    d = factory(np.random.default_rng(1))
    assert all(d.complexity(t) > 0 for t in d)


class TestChain:
    def test_size(self):
        assert len(linear_chain_dag(5)) == 5

    def test_structure(self):
        d = linear_chain_dag(4)
        assert set(d.edges) == {(0, 1), (1, 2), (2, 3)}

    def test_n1(self):
        assert len(linear_chain_dag(1)) == 1

    def test_invalid(self):
        with pytest.raises(DagError):
            linear_chain_dag(0)


class TestForkJoin:
    def test_shape(self):
        d = fork_join_dag(5)
        assert len(d) == 7
        assert d.sources() == (0,)
        assert d.sinks() == (6,)
        assert len(d.successors(0)) == 5

    def test_invalid(self):
        with pytest.raises(DagError):
            fork_join_dag(0)


class TestGaussian:
    def test_size(self):
        # size s: sum_{k=0}^{s-2} (1 + (s-1-k)) pivots+updates
        d = gaussian_elimination_dag(4)
        assert len(d) == 3 + (3 + 2 + 1)

    def test_single_source(self):
        d = gaussian_elimination_dag(5)
        assert len(d.sources()) == 1  # P(0)

    def test_invalid(self):
        with pytest.raises(DagError):
            gaussian_elimination_dag(1)


class TestLayered:
    def test_each_task_has_prev_layer_pred(self):
        d = layered_dag(5, 4, np.random.default_rng(0), jitter=False)
        depth = {}
        for t in d.topological_order():
            depth[t] = 1 + max((depth[p] for p in d.predecessors(t)), default=-1)
        assert max(depth.values()) == 4
        for t in d:
            if t >= 4:  # not first layer
                assert d.predecessors(t)

    def test_invalid_p(self):
        with pytest.raises(DagError):
            layered_dag(3, 3, p_edge=1.5)


class TestRandomDag:
    def test_edge_probability_extremes(self):
        rng = np.random.default_rng(0)
        d0 = random_dag(10, rng, p_edge=0.0)
        assert d0.edge_count() == 0
        d1 = random_dag(10, np.random.default_rng(0), p_edge=1.0)
        assert d1.edge_count() == 45

    def test_invalid(self):
        with pytest.raises(DagError):
            random_dag(0)
        with pytest.raises(DagError):
            random_dag(5, p_edge=2.0)


def test_paper_example_fixed():
    d = paper_example_dag()
    assert d.name == "paper-fig2"
    assert len(d) == 5
