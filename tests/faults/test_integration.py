"""End-to-end fault runs: zero-plan identity, hardened survival, reporting.

These are the tier-1 versions of the acceptance criteria that
``benchmarks/bench_e7_faults.py`` measures at benchmark scale.
"""

from dataclasses import replace

import pytest

from repro.core.config import RTDSConfig
from repro.core.events import JobOutcome
from repro.errors import ConfigError
from repro.experiments.campaign import sweep_fault_plans
from repro.experiments.runner import ExperimentConfig, run_experiment
from repro.faults import ChurnSpec, FaultPlan, LinkDownWindow, SiteDownWindow, hardened
from repro.metrics.faults import fault_report

BASE = ExperimentConfig(
    topology="erdos_renyi",
    topology_kwargs={"n": 12, "p": 0.3, "delay_range": (0.2, 1.0)},
    duration=120.0,
    seed=5,
    rtds=hardened(RTDSConfig(), ack_timeout=5.0),
)


def records(res):
    return [
        (r.job, r.outcome, r.decided_at, tuple(sorted(r.completions.items())))
        for r in res.collector.records()
    ]


def test_zero_plan_bit_for_bit_identity():
    pristine = run_experiment(replace(BASE, faults=None))
    zeroed = run_experiment(replace(BASE, faults=FaultPlan()))
    assert records(pristine) == records(zeroed)
    assert pristine.summary.row() == zeroed.summary.row()
    assert pristine.network.stats.snapshot() == zeroed.network.stats.snapshot()
    assert zeroed.faults is None


def test_unhardened_rtds_rejects_nonzero_plan():
    with pytest.raises(ConfigError):
        ExperimentConfig(
            algorithm="rtds", faults=FaultPlan(loss_prob=0.1), rtds=RTDSConfig()
        )


def test_lossy_run_decides_every_job_and_releases_every_lock():
    res = run_experiment(replace(BASE, faults=FaultPlan(loss_prob=0.15, seed=2)))
    for rec in res.collector.records():
        assert rec.outcome is not JobOutcome.PENDING, f"job {rec.job} hung"
    for sid in res.network.site_ids():
        site = res.network.site(sid)
        # a RESULT lost for good leaves its gated task abandoned; this run
        # has no hygiene tick, so do the fault-run reap by hand
        site.executor.reap_abandoned(res.network.sim.now)
        site.hosting.prune()
        assert site.leaks() == [], f"site {sid} leaked"
    rep = fault_report(res)
    assert rep.lost_messages > 0
    assert rep.retransmissions > 0
    assert rep.guarantee_ratio > 0.3  # hardened protocol still schedules


def test_crashed_arrival_site_drops_jobs_into_the_metric():
    plan = FaultPlan(site_windows=tuple(SiteDownWindow(s, 0.0, 120.0) for s in range(12)))
    res = run_experiment(replace(BASE, faults=plan))
    # every site partitioned for the whole workload: everything is lost
    assert res.faults.stats.jobs_dropped == res.summary.n_jobs > 0
    assert res.collector.count(JobOutcome.LOST_SITE_DOWN) == res.summary.n_jobs
    assert res.summary.guarantee_ratio == 0.0


def test_guarantee_degrades_with_loss_in_expectation():
    plans = [(f"loss={p}", FaultPlan(loss_prob=p, seed=1)) for p in (0.0, 0.3)]
    rows = sweep_fault_plans(BASE, plans, seeds=(5, 6))
    assert rows[1]["GR"] < rows[0]["GR"]
    assert rows[0]["lost"] == 0 < rows[1]["lost"]


def test_full_churn_deterministic():
    plan = FaultPlan(
        loss_prob=0.05,
        delay_jitter=0.4,
        link_churn=ChurnSpec(4, 15.0),
        site_churn=ChurnSpec(2, 15.0),
        seed=3,
    )
    a = run_experiment(replace(BASE, faults=plan))
    b = run_experiment(replace(BASE, faults=plan))
    assert records(a) == records(b)
    assert a.faults.stats.row() == b.faults.stats.row()
    assert a.faults.link_windows == b.faults.link_windows


def test_fault_report_on_pristine_run_is_all_zero():
    res = run_experiment(replace(BASE, faults=None))
    rep = fault_report(res)
    assert rep.lost_messages == 0
    assert rep.degraded_phases == 0
    assert rep.jobs_dropped == 0
    assert rep.guarantee_ratio == res.summary.guarantee_ratio


def test_fault_viz_overlay():
    """The injector materializes exactly the planned windows (times
    relative to workload start); a pristine run has no injector."""
    plan = FaultPlan(
        site_windows=(SiteDownWindow(1, 10.0, 30.0),),
        link_windows=(LinkDownWindow(0, 2, 5.0, 15.0),),
    )
    res = run_experiment(replace(BASE, faults=plan))
    sites = {(w.site, w.start, w.end) for w in res.faults.site_windows}
    links = {(w.u, w.v, w.start, w.end) for w in res.faults.link_windows}
    assert sites == {(1, 10.0, 30.0)}
    assert links == {(0, 2, 5.0, 15.0)}
    assert run_experiment(replace(BASE, faults=None)).faults is None
