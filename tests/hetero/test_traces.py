"""Trace-driven workflow workloads: structure, runtimes, determinism."""

import numpy as np
import pytest

from repro.errors import ConfigError, WorkloadError
from repro.graphs.dag import Dag
from repro.graphs.workflows import epigenomics_shape, montage_shape
from repro.workloads.traces import (
    EPIGENOMICS_RUNTIMES,
    EPIGENOMICS_STAGES,
    MONTAGE_RUNTIMES,
    epigenomics_task_types,
    epigenomics_trace_dag,
    montage_task_types,
    montage_trace_dag,
    parse_workload,
    trace_dag_factory,
    trace_names,
)


class TestEpigenomicsDag:
    def test_structure(self):
        name, n, edges = epigenomics_shape(lanes=3, stages=4)
        dag = Dag.from_weights([1.0] * n, edges, name)
        assert len(dag) == 1 + 3 * 4 + 2
        # split fans out to each lane head; lanes are chains; merge fans in
        assert len(dag.successors(0)) == 3
        merge, final = len(dag) - 2, len(dag) - 1
        assert len(dag.predecessors(merge)) == 3
        assert dag.successors(merge) == (final,)
        # the critical path runs through a full lane
        assert dag.critical_path_length() == 1 + 4 + 2

    def test_rejects_degenerate_shapes(self):
        with pytest.raises(Exception):
            epigenomics_shape(lanes=0)


class TestTraceFactories:
    @pytest.mark.parametrize("name", ["montage", "epigenomics", "grid-mix"])
    def test_catalogue_and_determinism(self, name):
        factory = trace_dag_factory(name)
        a = factory(np.random.default_rng(7))
        b = factory(np.random.default_rng(7))
        assert a.name == b.name
        assert [a.complexity(t) for t in a] == [b.complexity(t) for t in b]
        assert a.edges == b.edges

    def test_unknown_trace_rejected(self):
        with pytest.raises(WorkloadError):
            trace_dag_factory("nope")
        assert "montage" in trace_names()

    def test_type_layouts_match_generators(self):
        for tiles in (2, 3, 4, 8):
            _, n, _ = montage_shape(tiles)
            assert len(montage_task_types(tiles)) == n
        for lanes in (1, 3, 6):
            _, n, _ = epigenomics_shape(lanes, stages=len(EPIGENOMICS_STAGES))
            assert len(epigenomics_task_types(lanes)) == n

    def test_runtimes_follow_type_models(self):
        """Heavy types must dominate light ones in the sampled DAGs
        (averaged over many draws — the distributions are heavy-tailed)."""
        rng = np.random.default_rng(0)
        project, diff = [], []
        for _ in range(50):
            dag = montage_trace_dag(rng, tiles=(6, 6))
            types = montage_task_types(6)
            for tid, ttype in zip(sorted(dag, key=lambda t: t), types):
                if ttype == "project":
                    project.append(dag.complexity(tid))
                elif ttype == "diff":
                    diff.append(dag.complexity(tid))
        assert np.mean(project) > 2.0 * np.mean(diff)
        assert MONTAGE_RUNTIMES["project"].mean > MONTAGE_RUNTIMES["diff"].mean

    def test_epigenomics_map_stage_dominates(self):
        rng = np.random.default_rng(1)
        by_type = {t: [] for t in EPIGENOMICS_RUNTIMES}
        for _ in range(50):
            dag = epigenomics_trace_dag(rng, lanes=(4, 4))
            for tid, ttype in zip(sorted(dag, key=lambda t: t), epigenomics_task_types(4)):
                by_type[ttype].append(dag.complexity(tid))
        assert np.mean(by_type["map"]) > np.mean(by_type["fastq2bfq"])

    def test_structure_sharing_equals_a_full_rebuild(self):
        """Trace jobs share one structure per shape; each must still be the
        DAG the full constructor builds from the sorted edge list."""
        rng = np.random.default_rng(5)
        for _ in range(30):
            for name in trace_names():
                dag = trace_dag_factory(name)(rng)
                rebuilt = Dag(list(dag.tasks.values()), dag.edges, name=dag.name)
                for t in dag.tasks:
                    assert dag.predecessors(t) == rebuilt.predecessors(t)
                    assert dag.successors(t) == rebuilt.successors(t)
                assert list(dag.tasks) == list(rebuilt.tasks)
                assert dag.topological_order() == rebuilt.topological_order()
                assert dag.bottom_levels() == rebuilt.bottom_levels()

    def test_all_complexities_positive(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            for name in trace_names():
                dag = trace_dag_factory(name)(rng)
                assert all(dag.complexity(t) > 0 for t in dag)


class TestWorkloadSpecParsing:
    def test_parse_workload(self):
        assert parse_workload("synthetic") == ("synthetic", "")
        assert parse_workload("trace:montage") == ("trace", "montage")
        for bad in ("trace:", "trace:nope", "montage", ""):
            with pytest.raises(WorkloadError):
                parse_workload(bad)

    def test_config_validates_workload(self):
        from repro.experiments.runner import ExperimentConfig

        with pytest.raises(ConfigError):
            ExperimentConfig(workload="trace:nope")
        with pytest.raises(ConfigError):
            ExperimentConfig(workload="montage")
        with pytest.raises(ConfigError):
            # ambiguous: a custom factory and a trace spec at once
            ExperimentConfig(workload="trace:montage", dag_factory=lambda rng: None)

    def test_runner_replays_trace_workload(self):
        from repro.experiments.runner import ExperimentConfig, run_experiment

        cfg = ExperimentConfig(duration=60.0, workload="trace:montage", seed=4)
        res = run_experiment(cfg)
        assert res.summary.n_jobs > 0
        names = {spec.dag.name for spec in res.workload}
        assert all(n.startswith("montage-") for n in names)
