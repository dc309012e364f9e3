"""Tests for campaigns (multi-seed aggregation) and the protocol
statistics a telemetry run records online."""

from dataclasses import replace

import pytest

from repro.errors import ConfigError
from repro.experiments.campaign import Aggregate, Campaign
from repro.experiments.runner import ExperimentConfig, run_experiment

SMALL = ExperimentConfig(
    topology_kwargs={"n": 8, "p": 0.4, "delay_range": (0.2, 0.8)},
    rho=0.7,
    duration=120.0,
)


class TestCampaign:
    def test_aggregate_shape(self):
        camp = Campaign(SMALL, seeds=[1, 2, 3])
        agg = camp.run("local")
        assert agg.n_runs == 3
        assert 0.0 <= agg.mean["GR"] <= 1.0
        assert agg.ci["GR"] >= 0.0
        assert len(agg.per_seed["GR"]) == 3

    def test_results_cached(self):
        camp = Campaign(SMALL, seeds=[1, 2])
        camp.run("local")
        before = dict(camp._cache)
        camp.run("local")
        assert camp._cache == before  # no re-runs

    def test_paired_comparison(self):
        camp = Campaign(replace(SMALL, duration=200.0), seeds=[1, 2, 3])
        diff = camp.compare("rtds", "local", metric="GR")
        assert diff.n == 3
        # cooperation never hurts on matched workloads
        assert diff.mean_diff > -0.02

    def test_unknown_metric_rejected(self):
        camp = Campaign(SMALL, seeds=[1])
        with pytest.raises(ConfigError):
            camp.compare("rtds", "local", metric="speedup")

    def test_empty_seeds_rejected(self):
        with pytest.raises(ConfigError):
            Campaign(SMALL, seeds=[])

    def test_table_rows(self):
        camp = Campaign(SMALL, seeds=[1, 2])
        rows = camp.table(["local"])
        assert rows[0]["label"] == "local"
        assert "±" in str(rows[0]["GR"])

    def test_aggregate_row_format(self):
        agg = Aggregate(
            label="x", n_runs=2, mean={"GR": 0.5}, ci={"GR": 0.1}, per_seed={}
        )
        assert agg.row()["GR"] == "0.5±0.1"


class TestProtocolStats:
    def observed_run(self):
        cfg = replace(SMALL, algorithm="rtds", rho=1.0, duration=200.0, telemetry=True, seed=5)
        return run_experiment(cfg)

    @staticmethod
    def distributed(res, category):
        return {
            s.key: s for s in res.telemetry.spans
            if s.category == category and (s.labels or {}).get("kind") != "local"
        }

    def test_stats_populated(self):
        res = self.observed_run()
        obs = res.telemetry
        runs = len(self.distributed(res, "phase.enroll"))
        assert runs > 0
        assert 0.0 <= obs.counters.get("rtds.reject.rejected_validation", 0.0) / runs <= 1.0
        enrolled = [s.labels["enrolled"] for s in self.distributed(res, "phase.map").values()]
        assert enrolled and sum(enrolled) / len(enrolled) >= 1.0

    def test_hosting_at_most_enrolled(self):
        res = self.observed_run()
        mapped = self.distributed(res, "phase.map")
        executed = self.distributed(res, "phase.execute")
        assert mapped.keys() & executed.keys(), "no distributed job executed"
        for job in mapped.keys() & executed.keys():
            # hosts come from the enrolled members plus the initiator itself
            assert executed[job].labels["hosts"] <= mapped[job].labels["enrolled"] + 1

    def test_rows_render(self):
        from repro.experiments.reporting import format_table
        from repro.obs.export import metrics_records

        rows = metrics_records(self.observed_run().telemetry)
        names = {row["name"] for row in rows}
        assert {"phase.enroll", "phase.map", "phase.validate", "rtds.acs_size"} <= names
        assert "phase.validate" in format_table(rows)
