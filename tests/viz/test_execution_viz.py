"""What a finished run actually executed, as the shipped views show it.

The executors' records hold the actual chunks per site, the collector
records where each job was placed, and ``rtds trace`` renders one lane
per site with a ``phase.execute`` span for every admitted job.
"""


import pytest

from repro.experiments.runner import ExperimentConfig, run_experiment
from repro.obs import chrome_trace, run_telemetry
from repro.viz.gantt import render_gantt


@pytest.fixture(scope="module")
def run():
    return run_experiment(
        ExperimentConfig(
            topology_kwargs={"n": 6, "p": 0.5, "delay_range": (0.2, 0.6)},
            rho=0.7,
            duration=100.0,
            seed=4,
            algorithm="rtds",
            trace=True,
        )
    )


class TestExecutionItems:
    def test_chunks_ordered_per_site(self, run):
        chunks_on = {}
        for _job, _task, sid, spans in run.collector.executions():
            chunks_on.setdefault(sid, []).extend(spans)
        assert chunks_on
        for chunks in chunks_on.values():
            chunks.sort()
            for (s1, e1), (s2, e2) in zip(chunks, chunks[1:]):
                assert s2 >= e1 - 1e-9  # single processor


class TestRendering:
    def test_render_contains_rows(self, run):
        events = chrome_trace(run_telemetry(run))["traceEvents"]
        lanes = {e["tid"]: e["args"]["name"] for e in events if e["ph"] == "M"}
        executed = [e for e in events if e["name"] == "phase.execute"]
        assert executed
        # every admitted job's execution renders on its origin site's lane
        assert all(lanes[e["tid"]] == f"site {e['tid']}" for e in executed)
        admitted = {r.job for r in run.collector.records() if r.outcome.accepted}
        assert {e["args"]["key"] for e in executed} == admitted

    def test_gantt_width_respected(self):
        out = render_gantt([("r", "x", 0.0, 10.0)], width=30)
        row = [l for l in out.splitlines() if l.startswith("r ")][0]
        assert len(row) <= 3 + 30 + 2

    def test_placement_summary_sorted(self, run):
        ran_on = {}
        for job, _task, sid, _spans in run.collector.executions():
            ran_on.setdefault(job, set()).add(sid)
        finished = [
            r for r in run.collector.records() if r.outcome.accepted and r.job in ran_on
        ]
        assert finished
        # the collector's placement is where the job's tasks actually ran
        for rec in finished:
            assert ran_on[rec.job] == set(rec.hosts)
