"""E13 chaos-soak contracts at tier-1 scale (~10^3 jobs).

The full 10^5-job campaign is the nightly workflow's
``api.chaos(ChaosConfig())`` heredoc; this is the fast always-on variant
that keeps the survivability contracts from regressing in ordinary CI:

* every planned join applies and the repaired routing tables converge
  bit-for-bit against a from-scratch rebuild,
* zero leaked executor records after drain (abandoned records reaped),
* the report's survivability ledger is internally consistent.
"""

import pytest

from repro.errors import ConfigError
from repro.experiments.chaos import ChaosConfig, run_chaos

_CFG = ChaosConfig(
    n_sites=12,
    joins=2,
    join_links=2,
    site_churn=4,
    mean_downtime=25.0,
    rho=0.5,
    target_jobs=800,
    queue_capacity=256,
    sample_every=200,
    degraded_window=200,
    seed=1,
)


def test_chaos_config_requires_chaos():
    with pytest.raises(ConfigError, match="needs chaos"):
        ChaosConfig(joins=0, site_churn=0)
    with pytest.raises(ConfigError):
        ChaosConfig(joins=-1)


def test_fault_spec_composition():
    assert _CFG.fault_spec() == "sites=4,downtime=25,joins=2,join_links=2"
    churn_only = ChaosConfig(joins=0, site_churn=3, mean_downtime=10.0)
    assert churn_only.fault_spec() == "sites=3,downtime=10"
    join_only = ChaosConfig(joins=1, site_churn=0)
    assert join_only.fault_spec() == "joins=1,join_links=3"


def test_soak_config_shape():
    soak = _CFG.soak_config()
    assert soak.algorithm == "rtds"
    assert soak.routing_mode == "oracle"
    assert soak.faults == _CFG.fault_spec()
    assert soak.degraded_floor == _CFG.degraded_floor


def test_chaos_run_contracts(soak_residents):
    report = run_chaos(_CFG)

    # accounting: everything submitted either decided or was shed/dropped
    assert report.submitted == _CFG.target_jobs
    shed = report.shed_queue_full + report.shed_degraded
    assert report.n_jobs + shed == report.submitted
    assert report.n_jobs + shed >= report.folded_total

    # survivability ledger: every planned join applied and repaired rows
    assert report.joins_applied == _CFG.joins
    assert report.links_added == _CFG.joins * _CFG.join_links
    assert report.repaired_rows > 0
    assert report.spheres_refreshed > 0
    assert report.site_down_events > 0

    # the repaired tables equal a from-scratch rebuild, bit for bit
    assert report.tables_converged == 1

    # leak audit: no gate-blocked executor records survive the drain, and
    # no site holds protocol or host-side state
    assert report.leaked_unfinished == 0
    for site in soak_residents[0].resident.sites:
        assert site.leaks() == [], f"site {site.sid} leaked"

    # chaos did not collapse admission
    assert report.guarantee_ratio > 0.5

    # sampling: the final sample carries the closing ledger
    assert report.samples
    last = report.samples[-1]
    assert last.joins_applied == report.joins_applied
    assert last.rejoins == report.rejoins


def test_chaos_deterministic():
    a = run_chaos(_CFG)
    b = run_chaos(_CFG)
    assert a.guarantee_ratio == b.guarantee_ratio
    assert a.n_jobs == b.n_jobs
    assert a.sim_time == b.sim_time
    assert a.repaired_rows == b.repaired_rows
    assert a.rejoins == b.rejoins


def test_chaos_report_serializes():
    report = run_chaos(_CFG)
    scalars = report.scalar_metrics()
    assert scalars["n_jobs"] == report.n_jobs
    assert "samples" not in scalars
    assert "config" not in scalars


def test_chaos_samples_jsonl(tmp_path):
    report = run_chaos(_CFG)
    out = tmp_path / "samples.jsonl"
    report.write_samples_jsonl(out)
    lines = out.read_text().splitlines()
    assert len(lines) == len(report.samples)
    import json

    first = json.loads(lines[0])
    assert "guarantee_ratio" in first and "joins_applied" in first


#: CI's chaos smoke cell (``rtds chaos --sites 10 --joins 1 --join-links 2
#: --site-churn 2 --mean-downtime 20 --target-jobs 500 --sample-every 200
#: --seed 1``)
_SMOKE = ChaosConfig(
    n_sites=10,
    joins=1,
    join_links=2,
    site_churn=2,
    mean_downtime=20.0,
    target_jobs=500,
    sample_every=200,
    seed=1,
)


def test_smoke_cell_simulated_fields_are_pinned(monkeypatch):
    """The simulated half of the smoke cell's report, and the batches the
    lossy intake pumps (one per 64 submissions, the rest at the drain),
    as the asyncio-driven service produced them."""
    from repro.service.resident import ResidentSimulation

    batches = []
    pump = ResidentSimulation.pump

    def recording(self, jobs):
        batches.append(len(jobs))
        return pump(self, jobs)

    monkeypatch.setattr(ResidentSimulation, "pump", recording)
    report = run_chaos(_SMOKE)

    assert batches == [64] * 7 + [52]
    simulated = {
        k: getattr(report, k)
        for k in (
            "n_jobs", "sim_time", "guarantee_ratio", "lat_p50", "lat_p99", "lat_mean",
            "max_queue_depth", "folded_total", "jobs_dropped", "abandoned_reaped",
            "tables_converged",
        )
    }
    assert simulated == {
        "n_jobs": 500,
        "sim_time": 2707.1537739260093,
        "guarantee_ratio": 0.962,
        "lat_p50": 0.0,
        "lat_p99": 10.251581797845752,
        "lat_mean": 2.0671288473709906,
        "max_queue_depth": 64,
        "folded_total": 500,
        "jobs_dropped": 0,
        "abandoned_reaped": 0,
        "tables_converged": 1,
    }
