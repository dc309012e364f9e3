"""Record folding: bounded-memory aggregation must be loss-free.

``fold_before`` is what keeps the E12 soak flat in RSS; these tests pin
its two contracts — only *settled* records fold, and every scalar the
summary reports survives folding exactly.
"""

from dataclasses import fields as dc_fields

import pytest

from repro.core.events import JobOutcome, JobRecord
from repro.experiments.runner import ExperimentConfig, run_experiment
from repro.metrics.collector import MetricsCollector
from repro.metrics.summary import scalars_equal, summarize


def _record(job, outcome=JobOutcome.PENDING, arrival=0.0, deadline=10.0,
            n_tasks=1):
    return JobRecord(
        job=job, origin=0, arrival=arrival, deadline=deadline,
        n_tasks=n_tasks, total_work=1.0, outcome=outcome,
    )


def _settled(collector, job, outcome, *, arrival=0.0, deadline=10.0,
             decided_at=None, complete_at=None, acs_size=None):
    rec = _record(job, arrival=arrival, deadline=deadline)
    collector.register_job(rec)
    collector.decide(
        job, outcome, decided_at if decided_at is not None else arrival,
        acs_size=acs_size,
    )
    if complete_at is not None:
        collector.on_task_complete(job, "t0", complete_at, 0, [(arrival, complete_at)])
    return rec


class TestFoldEligibility:
    def test_pending_records_never_fold(self):
        c = MetricsCollector()
        c.register_job(_record(0, deadline=5.0))
        assert c.fold_before(100.0) == 0
        assert c.n_arrived() == 1 and c.n_folded == 0

    def test_future_deadline_never_folds(self):
        c = MetricsCollector()
        _settled(c, 0, JobOutcome.REJECTED_MAPPER, deadline=50.0)
        assert c.fold_before(20.0) == 0
        assert c.fold_before(50.0) == 1  # inclusive boundary

    def test_accepted_but_unfinished_never_folds(self):
        """The soak's leak audit depends on unfinished jobs staying live."""
        c = MetricsCollector()
        rec = _record(0, deadline=5.0)
        c.register_job(rec)
        c.decide(0, JobOutcome.ACCEPTED_LOCAL, 0.0)
        assert c.fold_before(100.0) == 0
        assert c.n_unfinished() == 1
        # once the task lands, it folds
        c.on_task_complete(0, "t0", 4.0, 0, [(3.0, 4.0)])
        assert c.fold_before(100.0) == 1
        assert c.n_unfinished() == 0

    def test_folded_records_leave_live_set(self):
        c = MetricsCollector()
        _settled(c, 0, JobOutcome.REJECTED_NO_SPHERE, deadline=5.0)
        _settled(c, 1, JobOutcome.ACCEPTED_LOCAL, deadline=8.0, complete_at=6.0)
        assert c.fold_before(10.0) == 2
        assert c.records() == []
        assert len(c.jobs) == 0


class TestFoldedAggregates:
    def test_queries_include_folded(self):
        c = MetricsCollector()
        _settled(c, 0, JobOutcome.ACCEPTED_LOCAL, deadline=8.0,
                 decided_at=1.0, complete_at=6.0)
        _settled(c, 1, JobOutcome.ACCEPTED_DISTRIBUTED, deadline=9.0,
                 decided_at=2.5, complete_at=9.5, acs_size=4)  # missed
        _settled(c, 2, JobOutcome.REJECTED_MAPPER, deadline=7.0, decided_at=0.5)
        before = {
            "arrived": c.n_arrived(), "accepted": c.n_accepted(),
            "in_time": c.n_completed_in_time(), "missed": c.n_missed(),
            "local": c.count(JobOutcome.ACCEPTED_LOCAL),
        }
        assert c.fold_before(10.0) == 3
        assert c.n_arrived() == before["arrived"] == 3
        assert c.n_accepted() == before["accepted"] == 2
        assert c.n_completed_in_time() == before["in_time"] == 1
        assert c.n_missed() == before["missed"] == 1
        assert c.count(JobOutcome.ACCEPTED_LOCAL) == before["local"] == 1
        assert c.guarantee_ratio() == pytest.approx(2.0 / 3.0)
        assert c.effective_ratio() == pytest.approx(1.0 / 3.0)

    def test_latency_and_acs_sums_exact(self):
        c = MetricsCollector()
        _settled(c, 0, JobOutcome.ACCEPTED_DISTRIBUTED, arrival=1.0,
                 deadline=8.0, decided_at=3.0, complete_at=7.0, acs_size=5)
        _settled(c, 1, JobOutcome.REJECTED_VALIDATION, arrival=2.0,
                 deadline=9.0, decided_at=2.5)
        c.fold_before(10.0)
        assert c.folded_latency_n == 2
        assert c.folded_latency_sum == pytest.approx(2.0 + 0.5)
        assert c.folded_acs_n == 1
        assert c.folded_acs_sum == pytest.approx(5.0)

    def test_fold_is_incremental(self):
        c = MetricsCollector()
        for j in range(6):
            _settled(c, j, JobOutcome.REJECTED_MAPPER, deadline=float(j))
        assert c.fold_before(2.0) == 3  # deadlines 0, 1, 2
        assert c.fold_before(2.0) == 0  # idempotent
        assert c.fold_before(5.0) == 3
        assert c.n_folded == 6


def _scalars(summary):
    return {
        f.name: getattr(summary, f.name)
        for f in dc_fields(summary)
        if isinstance(getattr(summary, f.name), (int, float))
    }


class TestSummaryUnderFolding:
    def test_summarize_identical_with_and_without_folding(self):
        """A real run summarized live vs. after folding everything."""
        cfg = ExperimentConfig(
            topology_kwargs={"n": 10, "p": 0.35, "delay_range": (0.2, 1.0)},
            duration=120.0,
            rho=0.5,
            seed=11,
        )
        live = run_experiment(cfg)
        folded = run_experiment(cfg)
        horizon = max(r.deadline for r in folded.collector.records()) + 1.0
        n = folded.collector.fold_before(horizon)
        assert n > 0
        a = _scalars(summarize("x", live.collector, 10, 0))
        b = _scalars(summarize("x", folded.collector, 10, 0))
        # float means may differ only in rounding; everything else exact
        for key in ("mean_decision_latency", "mean_acs_size"):
            assert b.pop(key) == pytest.approx(a.pop(key), rel=1e-9, nan_ok=True)
        assert scalars_equal(a, b)
