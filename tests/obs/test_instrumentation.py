"""Integration contracts of the post-run readers.

A traced run's telemetry is read off its trace: spans for every admitted
job, counters that agree with the run's own totals, a loud refusal on an
untraced run — and per-cell snapshots that survive the JSONL store round
trip.
"""

from dataclasses import replace

import pytest

from repro.core.config import RTDSConfig
from repro.errors import ConfigError
from repro.experiments.parallel import CellResult, run_cell
from repro.experiments.runner import ExperimentConfig, run_experiment
from repro.obs import run_telemetry, timeline


def small_config(**overrides) -> ExperimentConfig:
    base = ExperimentConfig(
        topology="erdos_renyi",
        topology_kwargs={"n": 8, "p": 0.4, "delay_range": (0.2, 1.0)},
        duration=80.0,
        rho=0.7,
        rtds=RTDSConfig(h=2),
        seed=3,
        trace=True,
    )
    return replace(base, **overrides)


class TestTelemetryObserves:
    def test_run_result_carries_registry(self):
        res = run_experiment(small_config())
        obs = run_telemetry(res)
        assert obs.counters["engine.events"] == res.network.sim.events_processed
        assert obs.gauges["run.jobs_arrived"] == res.collector.n_arrived()
        assert obs.gauges["run.sim_time"] == res.network.sim.now
        assert obs.counters["rtds.local_accept"] == res.summary.n_accepted_local

    def test_off_run_has_no_registry(self):
        """An untraced run has no record to read: both readers say so."""
        res = run_experiment(small_config(trace=False))
        for read in (timeline, run_telemetry):
            with pytest.raises(ConfigError, match="trace=True"):
                read(res)

    def test_every_admitted_job_has_phase_spans(self):
        res = run_experiment(small_config())
        spans = timeline(res)
        admitted = [r for r in res.collector.records() if r.outcome.accepted]
        assert admitted, "scenario must admit jobs to be meaningful"
        for cat in ("phase.enroll", "phase.validate", "phase.execute"):
            keys = {s.key for s in spans if s.category == cat}
            missing = [r.job for r in admitted if r.job not in keys]
            assert not missing, f"jobs {missing} lack a {cat} span"

    def test_no_span_leaks_at_run_end(self):
        """Every protocol run the trace opened is closed by the drained
        run's end: one enroll span per ``acs.enroll`` event."""
        res = run_experiment(small_config())
        opened = {e.detail["job"] for e in res.tracer.of("acs.enroll")}
        assert opened, "scenario must run the distributed protocol"
        enrolls = [
            s.key for s in timeline(res)
            if s.category == "phase.enroll" and (s.labels or {}).get("kind") != "local"
        ]
        assert sorted(enrolls) == sorted(opened)

    def test_spans_have_sane_extents(self):
        res = run_experiment(small_config())
        for s in timeline(res):
            assert s.t1 >= s.t0 >= 0.0


class TestCellObsSnapshot:
    def test_run_cell_collects_obs_unconditionally(self):
        r = run_cell(small_config(trace=False))
        assert r.ok
        assert r.obs["events"] > 0
        assert r.obs["events_per_sec"] > 0
        # obs rides outside metrics: the identity contract compares metrics
        assert "events" not in r.metrics

    def test_store_round_trip_preserves_obs(self):
        r = run_cell(small_config(trace=False))
        back = CellResult.from_json(r.to_json())
        assert back.obs == r.obs
        assert back.metrics == r.metrics

    def test_from_json_tolerates_pre_observability_lines(self):
        line = (
            '{"key": "k", "algorithm": "rtds", "seed": 0, "label": "rtds",'
            ' "status": "ok", "metrics": {"guarantee_ratio": 1.0},'
            ' "elapsed": 0.1}'
        )
        r = CellResult.from_json(line)
        assert r.obs == {}
        assert r.ok
