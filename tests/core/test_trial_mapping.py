"""Unit tests for the TrialMapping structure and LogicalProcSpec."""

import pytest

from repro.core.mapper import build_trial_mapping
from repro.core.trial_mapping import LogicalProcSpec, TrialMapping
from repro.errors import MappingError
from repro.graphs.generators import paper_example_dag


def paper_tm():
    procs = [LogicalProcSpec(index=0, surplus=0.5), LogicalProcSpec(index=1, surplus=0.4)]
    return build_trial_mapping(0, paper_example_dag(), procs, 3.0, 0.0)


class TestLogicalProcSpec:
    def test_duration_estimates(self):
        p = LogicalProcSpec(index=0, surplus=0.5, speed=2.0)
        assert p.estimated_duration(10.0) == pytest.approx(10.0)  # c/(I*speed)
        assert p.optimistic_duration(10.0) == pytest.approx(5.0)  # c/speed

    def test_invalid_surplus(self):
        with pytest.raises(MappingError):
            LogicalProcSpec(index=0, surplus=0.0)
        with pytest.raises(MappingError):
            LogicalProcSpec(index=0, surplus=1.5)

    def test_invalid_speed(self):
        with pytest.raises(MappingError):
            LogicalProcSpec(index=0, surplus=0.5, speed=0.0)


class TestTrialMapping:
    def test_makespan_relative_to_release(self):
        tm = paper_tm()
        assert tm.makespan == pytest.approx(33.0)

    def test_used_procs(self):
        tm = paper_tm()
        assert tm.used_procs() == [0, 1]

    def test_comm_delay(self):
        tm = paper_tm()
        assert tm.comm_delay(1, 3) == 0.0  # same proc
        assert tm.comm_delay(2, 3) == 3.0  # cross proc

    def test_window_table_requires_adjustment(self):
        tm = paper_tm()
        assert not tm.adjusted()
        with pytest.raises(MappingError):
            tm.window_table()

    def test_validate_consistency_catches_bad_duration(self):
        tm = paper_tm()
        tm.finish[1] = tm.start[1] + 1.0  # corrupt
        with pytest.raises(MappingError):
            tm.validate_consistency()

    def test_validate_consistency_catches_precedence_violation(self):
        tm = paper_tm()
        tm.start[5] = 0.0  # t5 now starts before its predecessors finish
        tm.finish[5] = 10.0
        with pytest.raises(MappingError):
            tm.validate_consistency()
