"""Tests for the scientific-workflow DAG families."""

import numpy as np
import pytest

from repro.errors import DagError
from repro.graphs.dag import Dag
from repro.graphs.workflows import mapreduce_dag, montage_shape
from repro.workloads.traces import trace_dag_factory

FAMILIES = [
    lambda rng: mapreduce_dag(6, 3, rng),
    lambda rng: trace_dag_factory("montage")(rng),
    lambda rng: trace_dag_factory("epigenomics")(rng),
    lambda rng: trace_dag_factory("grid-mix")(rng),
]


def _shape_dag(shape):
    """The unit-weight DAG of a workflow shape."""
    name, n, edges = shape
    return Dag.from_weights([1.0] * n, edges, name)


@pytest.mark.parametrize("factory", FAMILIES)
def test_valid_and_deterministic(factory):
    d1 = factory(np.random.default_rng(5))
    d2 = factory(np.random.default_rng(5))
    assert d1.edges == d2.edges
    pos = {t: i for i, t in enumerate(d1.topological_order())}
    for u, v in d1.edges:
        assert pos[u] < pos[v]


class TestMapReduce:
    def test_shape(self):
        d = mapreduce_dag(4, 2)
        assert len(d) == 1 + 4 + 2 + 1
        assert len(d.sources()) == 1 and len(d.sinks()) == 1
        # shuffle is all-to-all
        assert d.edge_count() == 4 + 4 * 2 + 2

    def test_width(self):
        # the split fans out to all 8 maps at once
        assert len(mapreduce_dag(8, 2).successors(0)) == 8

    def test_invalid(self):
        with pytest.raises(DagError):
            mapreduce_dag(0, 2)


class TestMontage:
    def test_single_sink(self):
        d = _shape_dag(montage_shape(5))
        assert len(d.sinks()) == 1

    def test_projection_feeds_two_diffs(self):
        d = _shape_dag(montage_shape(5))
        # the first 5 ids are projections; each feeds 2 diffs + 1 bgcorrect
        for p in range(5):
            assert len(d.successors(p)) == 3

    def test_small(self):
        d = _shape_dag(montage_shape(2))
        assert len(d.sources()) == 2

    def test_invalid(self):
        with pytest.raises(DagError):
            montage_shape(1)


class TestEndToEnd:
    def test_workflows_through_rtds(self):
        """All four families run through the full protocol soundly."""

        from repro.experiments.runner import ExperimentConfig, run_experiment
        from repro.experiments.verify import verify_execution

        idx = {"n": 0}

        def factory(rng):
            fams = FAMILIES
            f = fams[idx["n"] % len(fams)]
            idx["n"] += 1
            return f(rng)

        cfg = ExperimentConfig(
            topology_kwargs={"n": 8, "p": 0.4, "delay_range": (0.2, 0.8)},
            rho=0.6,
            duration=150.0,
            seed=9,
            algorithm="rtds",
            dag_factory=factory,
        )
        res = run_experiment(cfg)
        assert res.summary.n_jobs > 0
        assert verify_execution(res) == []
