"""Protocol-phase latencies, as the timeline reads them off the trace.

:func:`repro.obs.timeline` rebuilds one ``phase.enroll`` / ``phase.map`` /
``phase.validate`` span per protocol run on the initiator's lane (a
locally admitted job gets ``kind="local"`` enroll/validate spans instead),
and every span recorded on a :class:`Telemetry` feeds the timer of its
category. These tests read the breakdown off the Figure-1 scenario: job 0
is admitted locally, job 1 takes the distributed path.
"""

import math
from types import SimpleNamespace

import pytest

from repro.core.events import JobOutcome
from repro.experiments.paper_example import run_fig1_scenario
from repro.obs import Telemetry, timeline

PHASES = ("phase.enroll", "phase.map", "phase.validate")


@pytest.fixture(scope="module")
def run():
    tracer, collector, job = run_fig1_scenario()
    obs = Telemetry()
    for s in timeline(SimpleNamespace(tracer=tracer, collector=collector)):
        obs.span(s.category, s.t0, s.t1, site=s.site, key=s.key, ok=s.ok, **(s.labels or {}))
    return SimpleNamespace(telemetry=obs, collector=collector, distributed_job=job)


def protocol_runs(res):
    """job -> {phase: span} for every distributed protocol run."""
    runs = {}
    for s in res.telemetry.spans:
        if s.category in PHASES and (s.labels or {}).get("kind") != "local":
            runs.setdefault(s.key, {})[s.category] = s
    return runs


def complete_runs(res):
    runs = {j: r for j, r in protocol_runs(res).items() if len(r) == len(PHASES)}
    assert runs, "the scenario must reach validation to be meaningful"
    return runs


class TestPhaseLatencies:
    def test_fig1_scenario_breakdown(self, run):
        records = {r.job: r for r in run.collector.records()}
        runs = complete_runs(run)
        assert list(runs) == [run.distributed_job]  # job 0 was local
        for job, spans in runs.items():
            enroll, mapping, validate = (spans[c] for c in PHASES)
            # enroll and validation are round trips over unit delays
            assert enroll.duration > 0 and validate.duration > 0
            # the phases tile the protocol run and fit in the decision latency
            assert enroll.t1 == mapping.t0 and mapping.t1 == validate.t0
            total = enroll.duration + mapping.duration + validate.duration
            assert total <= records[job].decision_latency + 1e-9

    def test_mean_breakdown(self, run):
        runs = complete_runs(run)
        records = {r.job: r for r in run.collector.records()}
        assert run.telemetry.timers["phase.map"].count == sum(
            "phase.map" in r for r in protocol_runs(run).values()
        )
        enroll_map = [r["phase.enroll"].duration + r["phase.map"].duration for r in runs.values()]
        totals = [records[j].decision_latency for j in runs]
        assert sum(totals) / len(totals) >= sum(enroll_map) / len(enroll_map)

    def test_local_only_jobs_excluded(self, run):
        local = {
            r.job for r in run.collector.records() if r.outcome is JobOutcome.ACCEPTED_LOCAL
        }
        assert local, "the scenario must admit jobs locally too"
        assert not local & set(protocol_runs(run))
        for s in run.telemetry.spans:
            if s.key in local and s.category in PHASES:
                assert s.category != "phase.map" and s.labels["kind"] == "local"

    def test_empty_tracer(self):
        obs = Telemetry()
        assert obs.spans == []
        assert math.isnan(obs.timer("phase.enroll").mean)


class TestPhasePercentiles:
    def test_single_run_percentiles_collapse_to_sample(self, run):
        spans = next(iter(complete_runs(run).values()))
        obs = Telemetry()
        for cat, s in spans.items():
            obs.span(cat, s.t0, s.t1, site=s.site, key=s.key)
            # one sample: every quantile is that sample (degenerate stream)
            p = obs.timers[cat].percentiles()
            assert p == {"p50": s.duration, "p95": s.duration, "p99": s.duration}

    def test_percentiles_consistent_with_means(self, run):
        for cat in PHASES:
            t = run.telemetry.timers[cat]
            p = t.percentiles()
            assert t.min <= p["p50"] <= p["p95"] <= p["p99"] <= t.max
            assert t.min <= t.mean <= t.max

    def test_empty_tracer_is_all_nan(self, run):
        # an unhardened run never retransmits: that phase has no timer, and
        # a phase with no samples reports all-NaN rather than raising
        assert "phase.retransmission" not in run.telemetry.timers
        p = Telemetry().timer("phase.retransmission").percentiles()
        assert p and all(math.isnan(v) for v in p.values())

    def test_custom_quantiles(self, run):
        p = run.telemetry.timers["phase.validate"].percentiles((25.0, 75.0))
        assert set(p) == {"p25", "p75"}
