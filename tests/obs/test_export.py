"""Exporter tests: Chrome trace-event schema and the metrics JSONL stream."""

import json

from repro.obs.export import (
    chrome_trace,
    metrics_jsonl,
    metrics_records,
    parse_metrics_jsonl,
    validate_chrome_trace,
    write_chrome_trace,
    write_metrics_jsonl,
)
from repro.obs.telemetry import Telemetry


def sample_obs() -> Telemetry:
    obs = Telemetry()
    obs.span("phase.enroll", 0.0, 3.0, site=0, key=1, asked=2)
    obs.span("phase.validate", 3.0, 5.0, site=0, key=1)
    obs.span("phase.execute", 5.0, 20.0, site=1, key=1, ok=False)
    obs.span("run.horizon", 0.0, 20.0)  # site-less -> control lane
    obs.inc("net.msgs.ENROLL", 4)
    obs.gauge("run.rss_mb", 41.5)
    obs.gauge("run.bad", float("nan"))
    return obs


class TestChromeTrace:
    def test_document_is_valid(self):
        doc = chrome_trace(sample_obs())
        assert validate_chrome_trace(doc) == []

    def test_lane_metadata_and_span_events(self):
        doc = chrome_trace(sample_obs())
        events = doc["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        assert {m["args"]["name"] for m in meta} == {"site 0", "site 1", "control"}
        xs = [e for e in events if e["ph"] == "X"]
        assert len(xs) == 4
        enroll = next(e for e in xs if e["name"] == "phase.enroll")
        assert enroll["ts"] == 0.0 and enroll["dur"] == 3.0
        assert enroll["args"] == {"ok": True, "key": 1, "asked": 2}
        execute = next(e for e in xs if e["name"] == "phase.execute")
        assert execute["args"]["ok"] is False
        control = next(e for e in xs if e["name"] == "run.horizon")
        site_tids = {e["tid"] for e in xs if e["name"] != "run.horizon"}
        assert control["tid"] > max(site_tids)  # control lane sorts last

    def test_counter_events_at_trace_end(self):
        doc = chrome_trace(sample_obs())
        cs = [e for e in doc["traceEvents"] if e["ph"] == "C"]
        assert len(cs) == 1
        assert cs[0]["args"] == {"net.msgs.ENROLL": 4.0}
        assert cs[0]["ts"] == 20.0  # max span t1

    def test_json_serializable_and_writable(self, tmp_path):
        path = tmp_path / "trace.json"
        n = write_chrome_trace(sample_obs(), str(path))
        loaded = json.loads(path.read_text())
        assert len(loaded["traceEvents"]) == n
        assert validate_chrome_trace(loaded) == []


class TestValidateChromeTrace:
    def test_missing_trace_events(self):
        assert validate_chrome_trace({}) == ["traceEvents missing or not a list"]

    def test_empty_trace_events_flagged(self):
        assert "traceEvents is empty" in validate_chrome_trace({"traceEvents": []})

    def test_bad_complete_event(self):
        doc = {
            "traceEvents": [
                {"name": "x", "ph": "X", "pid": 1, "ts": -1.0, "dur": 1.0, "tid": 0}
            ]
        }
        assert any("bad 'ts'" in p for p in validate_chrome_trace(doc))

    def test_metadata_without_name(self):
        doc = {"traceEvents": [{"name": "thread_name", "ph": "M", "pid": 1, "args": {}}]}
        assert any("without args.name" in p for p in validate_chrome_trace(doc))

    def test_unknown_phase_flagged(self):
        doc = {"traceEvents": [{"name": "x", "ph": "Z", "pid": 1}]}
        assert any("unsupported phase" in p for p in validate_chrome_trace(doc))


class TestMetricsStream:
    def test_record_kinds_and_sorting(self):
        recs = metrics_records(sample_obs())
        kinds = [r["kind"] for r in recs]
        assert kinds == sorted(kinds)  # counter < gauge < timer blocks
        by_kind = {k: [r for r in recs if r["kind"] == k] for k in set(kinds)}
        assert [r["name"] for r in by_kind["timer"]] == sorted(
            r["name"] for r in by_kind["timer"]
        )
        timer = next(r for r in by_kind["timer"] if r["name"] == "phase.enroll")
        assert timer["count"] == 1 and isinstance(timer["count"], int)
        assert timer["mean"] == 3.0

    def test_nan_gauge_serializes_null(self):
        recs = metrics_records(sample_obs())
        bad = next(r for r in recs if r["name"] == "run.bad")
        assert bad["value"] is None
        # the whole stream must be strict JSON (no NaN literals)
        for line in metrics_jsonl(sample_obs()).splitlines():
            json.loads(line)

    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        n = write_metrics_jsonl(sample_obs(), str(path))
        recs = parse_metrics_jsonl(path.read_text().splitlines())
        assert len(recs) == n
        assert recs == metrics_records(sample_obs())

    def test_parse_tolerates_blank_lines(self):
        recs = parse_metrics_jsonl(["", '{"kind": "counter", "name": "a", "value": 1}', "  "])
        assert len(recs) == 1

    def test_empty_registry_yields_empty_stream(self):
        assert metrics_records(Telemetry()) == []
        assert metrics_jsonl(Telemetry()) == ""
