"""Integration contracts of the instrumented runtime.

The tentpole guarantee under test: telemetry is an *observer*. Turning it
on changes no metric, no trace event, no cell key — and turning it on
actually observes: spans for every admitted job, engine counters, per-cell
snapshots that survive the JSONL store round trip.
"""

from dataclasses import replace

from repro.core.config import RTDSConfig
from repro.experiments.parallel import (
    CellResult,
    cell_key,
    config_fingerprint,
    run_cell,
)
from repro.experiments.runner import ExperimentConfig, run_experiment
from repro.simnet.trace import trace_digest


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


class TestTelemetryInvisibility:
    def test_metrics_and_trace_identical_on_vs_off(self):
        off = run_experiment(small_config(telemetry=False))
        on = run_experiment(small_config(telemetry=True))
        assert off.scalar_metrics() == on.scalar_metrics()
        assert trace_digest(off.tracer.events) == trace_digest(on.tracer.events)

    def test_cell_key_ignores_telemetry_flag(self):
        off = small_config(telemetry=False)
        on = small_config(telemetry=True)
        assert config_fingerprint(off) == config_fingerprint(on)
        assert cell_key(off) == cell_key(on)


class TestTelemetryObserves:
    def test_run_result_carries_registry(self):
        res = run_experiment(small_config(telemetry=True))
        obs = res.telemetry
        assert obs is not None and obs.enabled
        assert obs.counters["engine.events"] > 0
        assert obs.gauges["engine.events_per_sec"] > 0
        assert obs.gauges["run.jobs_arrived"] == res.collector.n_arrived()
        assert obs.timers["run.workload"].count == 1

    def test_off_run_has_no_registry(self):
        res = run_experiment(small_config(telemetry=False))
        assert res.telemetry is None

    def test_every_admitted_job_has_phase_spans(self):
        res = run_experiment(small_config(telemetry=True))
        obs = res.telemetry
        admitted = [r for r in res.collector.records() if r.outcome.accepted]
        assert admitted, "scenario must admit jobs to be meaningful"
        for cat in ("phase.enroll", "phase.validate", "phase.execute"):
            keys = {s.key for s in obs.spans if s.category == cat}
            missing = [r.job for r in admitted if r.job not in keys]
            assert not missing, f"jobs {missing} lack a {cat} span"

    def test_no_span_leaks_at_run_end(self):
        res = run_experiment(small_config(telemetry=True))
        assert res.telemetry.open_spans() == []

    def test_spans_have_sane_extents(self):
        res = run_experiment(small_config(telemetry=True))
        for s in res.telemetry.spans:
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
