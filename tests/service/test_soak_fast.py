"""Tier-1 soak regression (~10^4 jobs): memory flatness, zero leaks.

The full 10^5-job soak runs inline in the nightly workflow, and the e2e
workload ``soak48`` pins the seeded 48-site outcomes; this is the fast
always-on variant that keeps the resident-service contracts from
regressing in ordinary CI:

* bounded queue depth (never exceeds the configured capacity),
* zero leaked ``_unfinished`` plan records after drain,
* all collector records folded away (live set empty at the end),
* RSS growth over the final 80% of the run below a fixed slope.
"""

import math

from repro.experiments.soak import SoakConfig, run_soak

_CFG = SoakConfig(
    n_sites=24,
    target_jobs=10_000,
    rho=0.5,
    queue_capacity=512,
    sample_every=2000,
    seed=3,
)


def test_fast_soak_contracts(soak_residents):
    report = run_soak(_CFG)

    # throughput/accounting: every injected job was decided and settled
    assert report.n_jobs == 10_000
    assert report.folded_total == 10_000
    assert report.live_records_final == 0

    # leak audit: PlanExecutor retains nothing after drain, and no site
    # holds protocol or host-side state
    assert report.leaked_unfinished == 0
    for site in soak_residents[0].resident.sites:
        assert site.leaks() == [], f"site {site.sid} leaked"

    # backpressure: the bounded queue is the only buffer
    assert report.max_queue_depth <= _CFG.queue_capacity

    # the protocol actually admitted work (not a degenerate run)
    assert 0.5 <= report.guarantee_ratio <= 1.0
    # p50 can legitimately be 0.0 (locally guaranteed at submission time);
    # the tail must show real negotiation latency
    assert report.lat_p99 > report.lat_p50 >= 0.0
    assert not math.isnan(report.lat_mean)

    # memory flatness: RSS over the final 80% of jobs grows < 10% of peak
    assert report.rss_growth_final80 < 0.10

    # sampling cadence: one sample per 2000 decisions plus the final one
    assert len(report.samples) >= 5
    assert report.samples[-1].jobs_decided == 10_000


def test_fast_soak_deterministic_outcomes():
    """Seeded soak outcomes are machine-independent: a second run decides
    the same jobs with the same guarantee ratio and latency percentiles."""
    a = run_soak(_CFG)
    b = run_soak(_CFG)
    assert a.guarantee_ratio == b.guarantee_ratio
    assert a.lat_p50 == b.lat_p50
    assert a.lat_p99 == b.lat_p99
    assert a.sim_time == b.sim_time


def test_degraded_floor_switches_a_fault_free_soak_to_the_lossy_intake():
    """A floor the network cannot meet trips the breaker, and the soak then
    sheds (counted) instead of queueing; every offered job is either
    decided or shed."""
    cfg = SoakConfig(n_sites=8, target_jobs=1500, sample_every=500, degraded_floor=0.99)
    report = run_soak(cfg)
    shed = report.shed_queue_full + report.shed_degraded
    assert report.shed_degraded > 0 and report.degraded_entered >= 1
    assert report.submitted == cfg.target_jobs == report.n_jobs + shed
    assert report.backpressure_waits == 0
    # no fault plan: the survivability ledger is all zeros
    assert report.joins_applied == report.site_down_events == report.jobs_dropped == 0
    assert report.tables_converged == 1
