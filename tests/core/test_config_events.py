"""Tests for RTDSConfig validation and job records."""

import pytest

from repro.core.config import RTDSConfig
from repro.core.events import JobOutcome, JobRecord
from repro.errors import ConfigError, ReproError


class TestConfig:
    def test_defaults_valid(self):
        cfg = RTDSConfig()
        assert cfg.h == 2 and cfg.pcs_phases == 4

    def test_pcs_phases_is_2h(self):
        assert RTDSConfig(h=3).pcs_phases == 6

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"h": 0},
            {"surplus_window": 0.0},
            {"enroll_mode": "maybe"},
            {"enroll_timeout": 0.0},
            {"enroll_timeout": 1.5},
            {"max_acs_size": 0},
            {"laxity_mode": "magic"},
            {"protocol_margin_factor": -1.0},
            {"validation_order": "fifo"},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            RTDSConfig(**kwargs)

    def test_frozen(self):
        cfg = RTDSConfig()
        with pytest.raises(Exception):
            cfg.h = 5


class TestJobRecord:
    def rec(self):
        return JobRecord(job=1, origin=0, arrival=10.0, deadline=50.0, n_tasks=2, total_work=8.0)

    def test_initial_state(self):
        r = self.rec()
        assert r.outcome is JobOutcome.PENDING
        assert not r.completed
        assert r.met_deadline is None
        assert r.decision_latency is None

    def test_accepted_outcomes(self):
        assert JobOutcome.ACCEPTED_LOCAL.accepted
        assert JobOutcome.ACCEPTED_DISTRIBUTED.accepted
        assert not JobOutcome.REJECTED_MAPPER.accepted
        assert not JobOutcome.PENDING.accepted

    def test_completion_flow(self):
        r = self.rec()
        r.outcome = JobOutcome.ACCEPTED_LOCAL
        r.add_task("a", 0, [(26.0, 30.0)])
        assert not r.completed
        r.add_task("b", 1, [(40.0, 42.0), (43.0, 45.0)])  # split in two chunks
        assert r.completed
        assert r.completion_time == 45.0
        assert r.met_deadline is True
        assert r.completions == {"a": 30.0, "b": 45.0}
        assert list(r.executions()) == [
            ("a", 0, [(26.0, 30.0)]),
            ("b", 1, [(40.0, 42.0), (43.0, 45.0)]),
        ]
        with pytest.raises(ReproError):
            r.add_task("a", 0, [(50.0, 51.0)])

    def test_missed_deadline(self):
        r = self.rec()
        r.outcome = JobOutcome.ACCEPTED_DISTRIBUTED
        r.add_task("a", 0, [(26.0, 30.0)])
        r.add_task("b", 0, [(47.0, 51.0)])
        assert r.met_deadline is False

    def test_rejected_never_completes(self):
        r = self.rec()
        r.outcome = JobOutcome.REJECTED_VALIDATION
        r.add_task("a", 0, [(0.0, 1.0)])
        r.add_task("b", 0, [(1.0, 2.0)])
        assert not r.completed
        assert r.met_deadline is None

    def test_decision_latency(self):
        r = self.rec()
        r.decided_at = 12.5
        assert r.decision_latency == pytest.approx(2.5)
