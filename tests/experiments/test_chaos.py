"""E13 chaos-soak contracts at tier-1 scale (~10^3 jobs).

A chaos soak is the E12 soak with a fault plan: a :class:`SoakConfig`
with a ``faults`` spec, oracle routing and a ``degraded_floor`` (the
lossy intake). The full 10^5-job campaign is the nightly workflow's
``api.soak(api.SoakConfig(n_sites=32, ..., faults=...))`` heredoc; this
is the fast always-on variant that keeps the survivability contracts
from regressing in ordinary CI:

* every planned join applies and the repaired routing tables converge
  bit-for-bit against a from-scratch rebuild,
* zero leaked executor records after drain (abandoned records reaped),
* the report's survivability ledger is internally consistent,
* without ``fault_horizon`` the plan's events span the whole stream.
"""

from repro.core.config import RTDSConfig
from repro.experiments.soak import SoakConfig, run_soak
from repro.faults import FaultPlan, hardened

_CFG = SoakConfig(
    n_sites=12,
    rho=0.5,
    target_jobs=800,
    queue_capacity=256,
    sample_every=200,
    routing_mode="oracle",
    faults="sites=4,downtime=25,joins=2,join_links=2",
    degraded_floor=0.2,
    seed=1,
)


def test_soak_config_shape():
    cfg = _CFG.experiment_config()
    assert cfg.algorithm == "rtds"
    assert cfg.routing_mode == "oracle"
    assert cfg.faults == FaultPlan.from_spec(_CFG.faults)
    # churn perturbs the network, so the protocol runs with its timeouts on
    assert cfg.rtds == hardened(RTDSConfig())


def test_chaos_run_contracts(soak_residents):
    report = run_soak(_CFG)

    # accounting: everything submitted either decided or was shed/dropped
    assert report.submitted == _CFG.target_jobs
    shed = report.shed_queue_full + report.shed_degraded
    assert report.n_jobs + shed == report.submitted
    assert report.n_jobs + shed >= report.folded_total

    # survivability ledger: every planned join applied and repaired rows
    assert report.joins_applied == 2
    assert report.links_added == 2 * 2
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
    a = run_soak(_CFG)
    b = run_soak(_CFG)
    assert a.guarantee_ratio == b.guarantee_ratio
    assert a.n_jobs == b.n_jobs
    assert a.sim_time == b.sim_time
    assert a.repaired_rows == b.repaired_rows
    assert a.rejoins == b.rejoins


def test_chaos_report_serializes():
    report = run_soak(_CFG)
    scalars = report.scalar_metrics()
    assert scalars["n_jobs"] == report.n_jobs
    assert "samples" not in scalars
    assert "config" not in scalars


def test_chaos_samples_jsonl(tmp_path):
    report = run_soak(_CFG)
    out = tmp_path / "samples.jsonl"
    report.write_samples_jsonl(out)
    lines = out.read_text().splitlines()
    assert len(lines) == len(report.samples)
    import json

    first = json.loads(lines[0])
    assert "guarantee_ratio" in first and "joins_applied" in first


#: CI's chaos smoke cell (``rtds soak --sites 10 --rho 0.5 --routing oracle
#: --degraded-floor 0.2 --faults "sites=2,downtime=20,joins=1,join_links=2"
#: --target-jobs 500 --sample-every 200 --seed 1``)
_SMOKE = SoakConfig(
    n_sites=10,
    rho=0.5,
    target_jobs=500,
    sample_every=200,
    routing_mode="oracle",
    faults="sites=2,downtime=20,joins=1,join_links=2",
    degraded_floor=0.2,
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
    report = run_soak(_SMOKE)

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


def test_faulted_soak_spans_the_stream_by_default(soak_residents):
    """Without ``fault_horizon`` the plan draws its churn and join times
    over the stream's expected span, not the batch ``duration`` of 600."""
    cfg = SoakConfig(
        n_sites=10,
        rho=0.5,
        target_jobs=500,
        sample_every=250,
        routing_mode="oracle",
        faults="sites=4,downtime=20,joins=2,join_links=2",
        seed=1,
    )
    assert cfg.fault_horizon is None and cfg.experiment_config().duration == 600.0
    run_soak(cfg)
    resident = soak_residents[0].resident
    starts = [w.start for w in resident.injector.site_windows]
    starts += [ev.time for ev in resident.membership.events]
    assert len(starts) == 6
    assert max(starts) > 600.0
    assert max(starts) < cfg.fault_span()
