"""Campaign dashboard tests with an injectable clock and in-memory stream."""

import io

from repro.experiments.parallel import CellResult
from repro.obs.dashboard import CampaignDashboard


def cell(seed=0, status="ok", gr=0.8, elapsed=0.5, error=None):
    return CellResult(
        key=f"k{seed}",
        algorithm="rtds",
        seed=seed,
        label="rtds",
        status=status,
        metrics={"guarantee_ratio": gr} if status == "ok" else {},
        error=error,
        elapsed=elapsed,
    )


class FakeClock:
    """Deterministic perf_counter stand-in: returns scripted instants."""

    def __init__(self, *ticks):
        self.ticks = list(ticks)

    def __call__(self):
        return self.ticks.pop(0)


class TestCampaignDashboard:
    def make(self, *ticks):
        stream = io.StringIO()
        dash = CampaignDashboard(stream=stream, clock=FakeClock(*ticks))
        return dash, stream

    def test_gauges_track_throughput_and_eta(self):
        dash, _ = self.make(0.0, 2.0)
        dash(cell(seed=0), 1, 4)
        dash(cell(seed=1), 2, 4)
        assert dash.done == 2
        assert dash.elapsed == 2.0
        assert dash.rate == 1.0  # 2 cells / 2s
        assert dash.eta == 2.0  # 2 remaining at 1 cell/s

    def test_first_cell_rate_uses_cell_elapsed(self):
        # the clock starts at the first completion; the cell's own wall
        # time bounds the rate away from infinity
        dash, _ = self.make(10.0)
        dash(cell(elapsed=0.5), 1, 8)
        assert dash.rate == 2.0

    def test_output_lines_and_footer(self):
        dash, stream = self.make(0.0, 1.0)
        dash(cell(seed=0, gr=0.75), 1, 2)
        dash(cell(seed=1, gr=0.25), 2, 2)
        out = stream.getvalue()
        assert "[1/2]" in out and "[2/2]" in out
        assert "GR=0.7500" in out
        assert "2/2 cells" in out
        assert "eta 0.0s" in out
        assert "GR 0.5000" in out  # running mean over both cells

    def test_failed_cells_counted_and_shown(self):
        dash, stream = self.make(0.0)
        dash(cell(status="failed", error="Boom: x"), 1, 3)
        assert dash.failed == 1
        out = stream.getvalue()
        assert "error: Boom: x" in out
        assert "1 FAILED" in out

    def test_defaults_to_stderr(self, capsys):
        dash = CampaignDashboard(clock=FakeClock(0.0))
        dash(cell(), 1, 1)
        captured = capsys.readouterr()
        assert "1/1 cells" in captured.err
        assert captured.out == ""
