"""Tests for the experiment runner and evaluation sweeps."""

from dataclasses import replace

import pytest

from repro.errors import ConfigError
from repro.experiments.evaluation import (
    sweep_ablations,
    sweep_load,
    sweep_network_size,
    sweep_sphere_radius,
    sweep_uniform_machines,
)
from repro.experiments.reporting import format_kv, format_table
from repro.experiments.runner import ExperimentConfig, run_experiment

SMALL = ExperimentConfig(
    topology_kwargs={"n": 8, "p": 0.4, "delay_range": (0.2, 0.8)},
    rho=0.5,
    duration=120.0,
    seed=11,
)


class TestRunner:
    @pytest.mark.parametrize("algo", ["rtds", "local", "centralized", "focused", "random"])
    def test_all_algorithms_run(self, algo):
        res = run_experiment(replace(SMALL, algorithm=algo))
        s = res.summary
        assert s.n_jobs > 5
        assert 0.0 <= s.guarantee_ratio <= 1.0
        assert s.n_accepted == s.n_accepted_local + s.n_accepted_distributed
        assert s.n_accepted + s.n_rejected == s.n_jobs
        # nothing still pending
        from repro.core.events import JobOutcome

        assert res.collector.count(JobOutcome.PENDING) == 0

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(algorithm="quantum")

    @pytest.mark.parametrize(
        "change",
        [
            {"hygiene_interval": 0.0},
            {"hygiene_interval": -1.0},
            pytest.param({"rho": float("inf")}, id="rho-inf"),
            pytest.param({"duration": float("inf")}, id="duration-inf"),
        ],
    )
    def test_bad_run_horizon_rejected_at_construction(self, change):
        """A zero hygiene interval would reschedule its tick at one instant
        forever, a negative one fails only once the network is built, and
        an infinite load or duration overflows the arrival sizing."""
        with pytest.raises(ConfigError, match=next(iter(change))):
            replace(SMALL, **change)

    def test_deterministic_same_seed(self):
        r1 = run_experiment(replace(SMALL, algorithm="rtds"))
        r2 = run_experiment(replace(SMALL, algorithm="rtds"))
        assert r1.summary.row() == r2.summary.row()

    def test_different_seed_differs(self):
        r1 = run_experiment(replace(SMALL, algorithm="rtds"))
        r2 = run_experiment(replace(SMALL, algorithm="rtds", seed=99))
        assert r1.summary.n_jobs != r2.summary.n_jobs or (
            r1.summary.guarantee_ratio != r2.summary.guarantee_ratio
        )

    def test_rtds_no_pending_locks(self):
        res = run_experiment(replace(SMALL, algorithm="rtds"))
        for sid, site in res.network.sites.items():
            assert site.leaks() == [], f"site {sid} leaked"

    def test_light_load_no_misses(self):
        """Under light load the guarantee must be honoured (no deadline
        misses among accepted jobs)."""
        res = run_experiment(replace(SMALL, algorithm="rtds", rho=0.25))
        assert res.summary.n_missed == 0
        assert res.summary.n_unfinished == 0

    def test_rtds_beats_local_only(self):
        """The paper's headline claim at moderate load."""
        rtds = run_experiment(replace(SMALL, algorithm="rtds", rho=0.7, duration=250.0))
        local = run_experiment(replace(SMALL, algorithm="local", rho=0.7, duration=250.0))
        assert rtds.summary.guarantee_ratio > local.summary.guarantee_ratio

    def test_setup_messages_separated(self):
        res = run_experiment(replace(SMALL, algorithm="rtds"))
        assert res.setup_messages > 0
        assert res.summary.setup_messages == res.setup_messages

    def test_speeds_supported(self):
        cfg = replace(SMALL, algorithm="rtds", site_speeds=[1.0, 2.0], rho=0.4)
        res = run_experiment(cfg)
        assert res.summary.n_jobs > 0
        assert res.summary.n_missed == 0 or res.summary.effective_ratio > 0.5

class TestSweeps:
    def test_sweep_load_rows(self):
        rows = sweep_load(SMALL, ["rtds", "local"], [0.3, 0.8])
        assert len(rows) == 4
        assert {r["algorithm"] for r in rows} == {"rtds", "local"}
        for r in rows:
            assert 0.0 <= r["GR"] <= 1.0

    def test_guarantee_ratio_decreases_with_load(self):
        rows = sweep_load(SMALL, ["local"], [0.2, 1.2])
        by_rho = {r["rho"]: r["GR"] for r in rows}
        assert by_rho[1.2] < by_rho[0.2]

    def test_sweep_network_size(self):
        rows = sweep_network_size(SMALL, ["rtds"], [6, 10])
        assert [r["sites"] for r in rows] == [6, 10]

    def test_sweep_radius(self):
        rows = sweep_sphere_radius(replace(SMALL, duration=80.0), [1, 2])
        assert [r["h"] for r in rows] == [1, 2]
        assert rows[1]["mean_PCS"] >= rows[0]["mean_PCS"]

    def test_sweep_ablations_runs(self):
        rows = sweep_ablations(replace(SMALL, duration=60.0))
        names = [r["variant"] for r in rows]
        assert "base" in names and "preemptive" in names

    def test_sweep_uniform_machines(self):
        rows = sweep_uniform_machines(
            replace(SMALL, duration=60.0),
            {"homogeneous": [1.0], "mixed": [0.5, 2.0]},
        )
        assert len(rows) == 2


class TestReporting:
    def test_format_table(self):
        rows = [{"a": 1, "b": 2.5}, {"a": 10, "b": 0.123456}]
        out = format_table(rows, title="T")
        assert "T" in out and "a" in out and "10" in out
        assert "0.1235" in out  # 4 sig figs

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([])

    def test_format_kv(self):
        out = format_kv("K", {"x": 1.23456, "yy": "z"})
        assert "K" in out and "x" in out and "1.235" in out
