"""CLI smoke tests for the observability commands: trace, stats, profile."""

import json
import re

from repro import api
from repro.cli import main
from repro.experiments.paper_example import paper_example_config
from repro.obs import run_telemetry
from repro.obs.export import validate_chrome_trace


def run_cli(capsys, *args):
    rc = main(list(args))
    out = capsys.readouterr().out
    return rc, out


class TestTraceCommand:
    def test_paper_example_trace(self, capsys, tmp_path):
        trace = tmp_path / "trace.json"
        metrics = tmp_path / "metrics.jsonl"
        rc, out = run_cli(
            capsys, "trace", "--paper-example", "--duration", "80",
            "--out", str(trace), "--metrics", str(metrics),
        )
        assert rc == 0
        doc = json.loads(trace.read_text())
        assert validate_chrome_trace(doc) == []
        names = {e["name"] for e in doc["traceEvents"]}
        for phase in ("phase.enroll", "phase.validate", "phase.execute"):
            assert phase in names
        assert metrics.read_text().strip()  # non-empty JSONL stream
        assert "admitted jobs" in out
        # read off the trace after the run: the same command exports the
        # same timeline and metrics, byte for byte
        again, again_metrics = tmp_path / "again.json", tmp_path / "again.jsonl"
        rc, _ = run_cli(
            capsys, "trace", "--paper-example", "--duration", "80",
            "--out", str(again), "--metrics", str(again_metrics),
        )
        assert rc == 0
        assert again.read_bytes() == trace.read_bytes()
        assert again_metrics.read_bytes() == metrics.read_bytes()

    def test_paper_example_honours_an_explicit_duration(self, capsys, tmp_path):
        """``--duration`` reshapes the paper example; left unset, the example
        runs its own default length."""

        def cli_spans(*extra):
            rc, out = run_cli(
                capsys, "trace", "--paper-example", *extra, "--out", str(tmp_path / "t.json")
            )
            assert rc == 0
            return int(re.search(r"(\d+) spans", out).group(1))

        def spans(**kwargs):
            result, _ = api.trace(paper_example_config(**kwargs))
            return len(run_telemetry(result).spans)

        short = spans(duration=100.0)
        assert short < spans()
        assert cli_spans("--duration", "100") == short
        assert cli_spans() == spans()

    def test_synthetic_trace(self, capsys, tmp_path):
        trace = tmp_path / "trace.json"
        rc, out = run_cli(
            capsys, "trace", "--sites", "6", "--duration", "50",
            "--out", str(trace),
        )
        assert rc == 0
        assert validate_chrome_trace(json.loads(trace.read_text())) == []


class TestStatsCommand:
    def test_stats_over_store_dir_and_file(self, capsys, tmp_path):
        store = tmp_path / "store"
        rc, _ = run_cli(
            capsys, "campaign", "--algorithms", "rtds", "--runs", "2",
            "--sites", "6", "--duration", "50", "--store", str(store),
        )
        assert rc == 0
        rc, out = run_cli(capsys, "stats", str(store))
        assert rc == 0
        assert "campaign" in out and "ev/s p50" in out
        rc, out_file = run_cli(capsys, "stats", str(store / "campaign.jsonl"))
        assert rc == 0
        assert "campaign" in out_file

    def test_stats_missing_store_fails(self, capsys, tmp_path):
        rc = main(["stats", str(tmp_path / "nope")])
        captured = capsys.readouterr()
        assert rc == 1
        assert "no store" in captured.err


class TestProfileBackends:
    def test_cprofile_backend_still_default(self, capsys):
        rc, out = run_cli(
            capsys, "profile", "--sites", "4", "--duration", "30", "--limit", "5"
        )
        assert rc == 0
        assert "cumulative" in out  # pstats table header
