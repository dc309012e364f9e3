"""Tests for metrics collection, stats, and summaries."""

import numpy as np
import pytest

from repro.core.events import JobOutcome, JobRecord
from repro.errors import ReproError
from repro.metrics.collector import MetricsCollector
from repro.metrics.stats import mean_confidence_interval, t_quantile_95
from repro.metrics.summary import summarize


def rec(job, outcome=JobOutcome.PENDING, n_tasks=2):
    return JobRecord(
        job=job, origin=0, arrival=0.0, deadline=100.0, n_tasks=n_tasks, total_work=5.0
    )


class TestCollector:
    def test_register_and_decide(self):
        c = MetricsCollector()
        c.register_job(rec(1))
        c.decide(1, JobOutcome.ACCEPTED_LOCAL, 3.0, hosts=[0])
        assert c.jobs[1].outcome is JobOutcome.ACCEPTED_LOCAL
        assert c.jobs[1].decision_latency == 3.0

    def test_duplicate_register_rejected(self):
        c = MetricsCollector()
        c.register_job(rec(1))
        with pytest.raises(ReproError):
            c.register_job(rec(1))

    def test_double_decide_rejected(self):
        c = MetricsCollector()
        c.register_job(rec(1))
        c.decide(1, JobOutcome.ACCEPTED_LOCAL, 1.0)
        with pytest.raises(ReproError):
            c.decide(1, JobOutcome.REJECTED_MAPPER, 2.0)

    def test_unknown_decide_rejected(self):
        with pytest.raises(ReproError):
            MetricsCollector().decide(9, JobOutcome.ACCEPTED_LOCAL, 1.0)

    def test_completions_flow(self):
        c = MetricsCollector()
        c.register_job(rec(1))
        c.decide(1, JobOutcome.ACCEPTED_LOCAL, 1.0)
        c.on_task_complete(1, "a", 10.0, 0, [(9.0, 10.0)])
        c.on_task_complete(1, "b", 20.0, 0, [(19.0, 20.0)])
        assert c.jobs[1].completed
        assert c.jobs[1].completions == {"a": 10.0, "b": 20.0}
        assert list(c.executions()) == [(1, "a", 0, [(9.0, 10.0)]), (1, "b", 0, [(19.0, 20.0)])]
        with pytest.raises(ReproError):
            c.on_task_complete(1, "a", 30.0, 0, [(29.0, 30.0)])

    def test_unknown_job_completion_ignored(self):
        c = MetricsCollector()
        c.on_task_complete(42, "x", 1.0, 0, [(0.0, 1.0)])  # no raise: cross-run task

    def test_ratios(self):
        c = MetricsCollector()
        for i, out in enumerate(
            [JobOutcome.ACCEPTED_LOCAL, JobOutcome.ACCEPTED_DISTRIBUTED,
             JobOutcome.REJECTED_MAPPER, JobOutcome.REJECTED_VALIDATION]
        ):
            c.register_job(rec(i))
            c.decide(i, out, 1.0)
        # complete job 0 in time; job 1 late
        c.on_task_complete(0, "a", 10.0, 0, [(9.0, 10.0)])
        c.on_task_complete(0, "b", 20.0, 0, [(19.0, 20.0)])
        c.on_task_complete(1, "a", 10.0, 0, [(9.0, 10.0)])
        c.on_task_complete(1, "b", 200.0, 0, [(199.0, 200.0)])
        assert c.guarantee_ratio() == pytest.approx(0.5)
        assert c.effective_ratio() == pytest.approx(0.25)
        assert c.n_missed() == 1
        assert c.n_unfinished() == 0


class TestStats:
    def test_t_quantiles(self):
        assert t_quantile_95(1) == pytest.approx(12.706)
        assert t_quantile_95(30) == pytest.approx(2.042)
        assert t_quantile_95(1000) == pytest.approx(1.96)

    def test_t_quantiles_vs_scipy(self):
        from scipy import stats as sps

        for dof in [1, 2, 5, 10, 29]:
            assert t_quantile_95(dof) == pytest.approx(
                sps.t.ppf(0.975, dof), abs=2e-3
            )

    def test_mean_ci(self):
        mean, half = mean_confidence_interval([1.0, 2.0, 3.0])
        assert mean == pytest.approx(2.0)
        expected_half = t_quantile_95(2) * np.std([1, 2, 3], ddof=1) / np.sqrt(3)
        assert half == pytest.approx(expected_half)

    def test_mean_ci_degenerate(self):
        mean, half = mean_confidence_interval([5.0])
        assert mean == 5.0 and half == 0.0
        mean, half = mean_confidence_interval([])
        assert np.isnan(mean)


class TestSummary:
    def test_summarize(self):
        c = MetricsCollector()
        c.register_job(rec(0))
        c.decide(0, JobOutcome.ACCEPTED_LOCAL, 1.0, hosts=[0])
        c.register_job(rec(1))
        c.decide(1, JobOutcome.ACCEPTED_DISTRIBUTED, 2.0, hosts=[1, 2], acs_size=3)
        c.register_job(rec(2))
        c.decide(2, JobOutcome.REJECTED_MAPPER, 0.5)
        s = summarize("test", c, n_sites=4, total_messages=120, setup_messages=20)
        assert s.n_jobs == 3
        assert s.n_accepted == 2
        assert s.guarantee_ratio == pytest.approx(2 / 3)
        assert s.protocol_messages == 100
        assert s.messages_per_job == pytest.approx(100 / 3)
        assert s.mean_acs_size == pytest.approx(3.0)
        assert s.rejected_by == {"rejected_mapper": 1}
        row = s.row()
        assert row["label"] == "test" and row["jobs"] == 3
