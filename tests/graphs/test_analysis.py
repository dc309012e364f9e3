"""Tests for the per-job DAG quantities RTDS reads: the §12 bottom levels
and the critical-path length that sets deadlines (both read off
:class:`~repro.graphs.dag.Dag`; only the length is memoised)."""

import pytest

from repro.graphs.dag import Dag, Task
from repro.graphs.generators import linear_chain_dag, paper_example_dag


class TestBottomLevels:
    def test_paper_example_priorities(self):
        """§12: the priorities that drive the Mapper's list scheduling."""
        bl = paper_example_dag().bottom_levels()
        assert bl == {1: 15.0, 2: 13.0, 3: 9.0, 4: 7.0, 5: 5.0}

    def test_single_task(self):
        d = Dag([Task(0, 4.0)])
        assert d.bottom_levels() == {0: 4.0}

    def test_chain_accumulates(self):
        d = Dag([Task(i, 2.0) for i in range(4)], [(i, i + 1) for i in range(3)])
        assert d.bottom_levels() == {0: 8.0, 1: 6.0, 2: 4.0, 3: 2.0}


class TestCriticalPath:
    def test_paper_example_length(self):
        assert paper_example_dag().critical_path_length() == pytest.approx(15.0)

    def test_paper_example_path(self):
        """Figure 2's critical path is 1 → 3 → 5: a source-to-sink path
        whose complexities sum to the critical-path length."""
        d = paper_example_dag()
        path = [1, 3, 5]
        assert not d.predecessors(path[0]) and not d.successors(path[-1])
        for u, v in zip(path, path[1:]):
            assert v in d.successors(u)
        assert sum(d.complexity(t) for t in path) == d.critical_path_length()

    def test_chain_is_whole_graph(self):
        d = linear_chain_dag(5, c_range=(2.0, 2.0))
        assert d.critical_path_length() == pytest.approx(d.total_complexity()) == pytest.approx(10.0)
