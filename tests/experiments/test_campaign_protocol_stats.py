"""Tests for campaigns (multi-seed aggregation) and the protocol
statistics read off a traced run."""

from dataclasses import replace

import pytest

from repro.api import campaign
from repro.errors import ConfigError
from repro.experiments.campaign import mean_ci, paired_difference
from repro.experiments.parallel import CellResult
from repro.experiments.runner import ExperimentConfig, run_experiment
from repro.metrics.stats import mean_confidence_interval
from repro.obs import run_telemetry

SMALL = ExperimentConfig(
    topology_kwargs={"n": 8, "p": 0.4, "delay_range": (0.2, 0.8)},
    rho=0.7,
    duration=120.0,
)


class TestCampaign:
    def test_aggregate_shape(self):
        (row,) = campaign(SMALL, ["local"], seeds=[1, 2, 3])
        assert row["runs"] == 3
        gr = row["per_seed"]["GR"]
        assert len(gr) == 3 and all(0.0 <= v <= 1.0 for v in gr)
        mean, half = row["GR"].split("±")
        assert 0.0 <= float(mean) <= 1.0 and float(half) >= 0.0

    def test_results_cached(self):
        """A cell two rows share runs once and feeds both rows."""
        executed = []
        rows = campaign(
            SMALL, ["local", "local"], seeds=[1, 2],
            progress=lambda r, done, total: executed.append(r.key),
        )
        assert len(executed) == 2
        assert rows[0] == rows[1]

    def test_paired_comparison(self):
        rtds, local = campaign(replace(SMALL, duration=200.0), ["rtds", "local"], seeds=[1, 2, 3])
        diff, _ = paired_difference(rtds["per_seed"]["GR"], local["per_seed"]["GR"])
        # cooperation never hurts on matched workloads
        assert diff > -0.02

    def test_empty_seeds_rejected(self):
        with pytest.raises(ConfigError):
            campaign(SMALL, ["local"], seeds=[])

    def test_table_rows(self):
        rows = campaign(SMALL, ["local"], seeds=[1, 2])
        assert rows[0]["label"] == "local"
        assert "±" in str(rows[0]["GR"])

    def test_aggregate_row_format(self):
        """``mean±ci`` to 4 and 2 significant digits, NaN seeds skipped."""
        reps = [
            CellResult("k", "x", seed, "x", "ok", metrics={"guarantee_ratio": v})
            for seed, v in enumerate([0.4, float("nan"), 0.6])
        ]
        assert mean_ci("guarantee_ratio")(reps) == "0.5±1.3"

    def test_paired_difference_skips_undefined_seeds(self):
        diff, half = paired_difference([0.5, float("nan"), 0.7], [0.4, 0.1, 0.5])
        assert diff == pytest.approx(0.15)
        assert half == pytest.approx(mean_confidence_interval([0.1, 0.2])[1])


class TestProtocolStats:
    def observed_run(self):
        cfg = replace(SMALL, algorithm="rtds", rho=1.0, duration=200.0, trace=True, seed=5)
        return run_telemetry(run_experiment(cfg))

    @staticmethod
    def distributed(obs, category):
        return {
            s.key: s for s in obs.spans
            if s.category == category and (s.labels or {}).get("kind") != "local"
        }

    def test_stats_populated(self):
        obs = self.observed_run()
        runs = len(self.distributed(obs, "phase.enroll"))
        assert runs > 0
        assert 0.0 <= obs.counters.get("rtds.reject.rejected_validation", 0.0) / runs <= 1.0
        enrolled = [s.labels["enrolled"] for s in self.distributed(obs, "phase.map").values()]
        assert enrolled and sum(enrolled) / len(enrolled) >= 1.0

    def test_hosting_at_most_enrolled(self):
        obs = self.observed_run()
        mapped = self.distributed(obs, "phase.map")
        executed = self.distributed(obs, "phase.execute")
        assert mapped.keys() & executed.keys(), "no distributed job executed"
        for job in mapped.keys() & executed.keys():
            # hosts come from the enrolled members plus the initiator itself
            assert executed[job].labels["hosts"] <= mapped[job].labels["enrolled"] + 1

    def test_rows_render(self):
        from repro.experiments.reporting import format_table
        from repro.obs.export import metrics_records

        rows = metrics_records(self.observed_run())
        names = {row["name"] for row in rows}
        assert {"phase.enroll", "phase.map", "phase.validate", "rtds.acs_size"} <= names
        assert "phase.validate" in format_table(rows)
