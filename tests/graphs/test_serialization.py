"""Tests for DAG serialization."""

import pytest

from repro.errors import DagError
from repro.graphs.dag import Dag, Task
from repro.graphs.generators import layered_dag, paper_example_dag
from repro.graphs.serialization import (
    dag_from_dict,
    dag_to_dict,
    estimate_code_size,
)


class TestRoundtrip:
    def test_dict_roundtrip_paper(self):
        d = paper_example_dag()
        d2 = dag_from_dict(dag_to_dict(d))
        assert d2.edges == d.edges
        assert [d2.complexity(t) for t in d2] == [d.complexity(t) for t in d]
        assert d2.name == d.name

    def test_data_volume_preserved(self):
        d = Dag([Task(0, 1.0, data_volume=7.5), Task(1, 2.0)], [(0, 1)])
        d2 = dag_from_dict(dag_to_dict(d))
        assert d2.task(0).data_volume == 7.5


class TestValidation:
    def test_missing_keys(self):
        with pytest.raises(DagError):
            dag_from_dict({"tasks": []})

    def test_bad_complexity(self):
        with pytest.raises(DagError):
            dag_from_dict({"tasks": [{"tid": 1, "complexity": "x"}], "edges": []})

    def test_dict_cycle_detected(self):
        data = {
            "tasks": [{"tid": 1, "complexity": 1.0}, {"tid": 2, "complexity": 1.0}],
            "edges": [[1, 2], [2, 1]],
        }
        with pytest.raises(Exception):
            dag_from_dict(data)


class TestCodeSize:
    def test_grows_with_tasks(self):
        small = estimate_code_size(layered_dag(2, 2))
        big = estimate_code_size(layered_dag(6, 6))
        assert big > small

    def test_positive(self):
        assert estimate_code_size(paper_example_dag()) > 0
