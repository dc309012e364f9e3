"""Unit tests of the telemetry registry: percentiles, reservoirs, spans.

The contracts under test are the ones DESIGN.md's observability section
promises: nearest-rank percentile math with NaN-safe edges, bit-identical
reservoir sampling under a fixed seed, spans that feed their category's
timer, and the pairing rules :func:`repro.obs.timeline` reads them by.
"""

import math
from types import SimpleNamespace

import pytest

from repro.metrics.collector import MetricsCollector
from repro.obs import timeline
from repro.obs.telemetry import (
    ReservoirTimer,
    Telemetry,
    percentile,
    percentiles,
)
from repro.simnet.trace import Tracer


class TestPercentile:
    def test_empty_stream_is_nan(self):
        assert math.isnan(percentile([], 50.0))
        assert all(math.isnan(v) for v in percentiles([]).values())

    def test_single_sample_is_every_quantile(self):
        for q in (0.0, 1.0, 50.0, 99.0, 100.0):
            assert percentile([7.5], q) == 7.5

    def test_nearest_rank_on_known_stream(self):
        vals = list(range(1, 101))  # 1..100
        assert percentile(vals, 50.0) == 50.0
        assert percentile(vals, 95.0) == 95.0
        assert percentile(vals, 99.0) == 99.0
        assert percentile(vals, 100.0) == 100.0

    def test_rank_clamps_to_extremes(self):
        assert percentile([3.0, 1.0, 2.0], 0.0) == 1.0
        assert percentile([3.0, 1.0, 2.0], 100.0) == 3.0

    def test_unsorted_input_is_sorted_internally(self):
        assert percentile([9.0, 1.0, 5.0], 50.0) == 5.0

    def test_out_of_range_q_raises(self):
        with pytest.raises(ValueError):
            percentile([1.0], -0.1)
        with pytest.raises(ValueError):
            percentile([1.0], 100.1)

    def test_percentiles_keys(self):
        assert set(percentiles([1.0, 2.0])) == {"p50", "p95", "p99"}
        assert set(percentiles([1.0], qs=(25.0, 75.0))) == {"p25", "p75"}


class TestReservoirTimer:
    def test_exact_below_capacity(self):
        t = ReservoirTimer(capacity=10, seed=1)
        for v in [5.0, 1.0, 3.0]:
            t.observe(v)
        assert t.count == 3
        assert t.total == 9.0
        assert t.min == 1.0 and t.max == 5.0
        assert t.mean == 3.0
        assert t.percentiles()["p50"] == 3.0

    def test_empty_summary_is_nan(self):
        s = ReservoirTimer().summary()
        assert s["count"] == 0.0
        for k in ("mean", "min", "max", "p50", "p95", "p99"):
            assert math.isnan(s[k])

    def test_exact_aggregates_survive_overflow(self):
        t = ReservoirTimer(capacity=8, seed=0)
        for v in range(1000):
            t.observe(float(v))
        # the sample is bounded; count/sum/min/max stay exact
        assert t.count == 1000
        assert t.total == sum(range(1000))
        assert t.min == 0.0 and t.max == 999.0
        assert len(t._sample) == 8

    def test_deterministic_under_fixed_seed(self):
        stream = [float((i * 37) % 101) for i in range(5000)]
        a = ReservoirTimer(capacity=64, seed=42)
        b = ReservoirTimer(capacity=64, seed=42)
        for v in stream:
            a.observe(v)
            b.observe(v)
        assert a._sample == b._sample
        assert a.percentiles() == b.percentiles()

    def test_different_seeds_sample_differently(self):
        stream = [float(i) for i in range(5000)]
        a = ReservoirTimer(capacity=64, seed=1)
        b = ReservoirTimer(capacity=64, seed=2)
        for v in stream:
            a.observe(v)
            b.observe(v)
        assert a._sample != b._sample  # overwhelmingly likely by construction

    def test_reservoir_estimate_is_reasonable(self):
        t = ReservoirTimer(capacity=256, seed=7)
        for v in range(10_000):
            t.observe(float(v))
        p50 = t.percentiles()["p50"]
        assert 3000.0 < p50 < 7000.0  # uniform stream: true p50 = 5000

    def test_bad_capacity_raises(self):
        with pytest.raises(ValueError):
            ReservoirTimer(capacity=0)


class TestWindowedSnapshot:
    """Interval snapshots (the E12 soak's per-sample latency view)."""

    def test_first_snapshot_arms_and_reports_cumulative(self):
        t = ReservoirTimer(capacity=16, seed=0)
        for v in [1.0, 2.0, 3.0]:
            t.observe(v)
        s = t.snapshot(qs=(50.0,))
        assert s["count"] == 3.0
        assert s["mean"] == 2.0
        assert s["p50"] == 2.0

    def test_windows_are_independent(self):
        t = ReservoirTimer(capacity=16, seed=0)
        for v in [10.0, 20.0]:
            t.observe(v)
        t.snapshot()  # arm + consume the first window
        for v in [1.0, 3.0]:
            t.observe(v)
        s = t.snapshot(qs=(50.0,))
        # the second window sees only its own samples
        assert s["count"] == 2.0
        assert s["mean"] == 2.0
        assert s["min"] == 1.0 and s["max"] == 3.0
        assert s["p50"] == 1.0 or s["p50"] == 2.0  # nearest-rank of [1, 3]

    def test_cumulative_state_untouched_by_snapshots(self):
        t = ReservoirTimer(capacity=16, seed=0)
        for v in [10.0, 20.0]:
            t.observe(v)
        t.snapshot()
        for v in [1.0, 3.0]:
            t.observe(v)
        t.snapshot()
        assert t.count == 4
        assert t.total == 34.0
        assert t.min == 1.0 and t.max == 20.0
        assert t.percentiles(qs=(50.0,))["p50"] in (3.0, 10.0)

    def test_empty_window_reports_nan(self):
        t = ReservoirTimer(capacity=16, seed=0)
        t.observe(5.0)
        t.snapshot()
        s = t.snapshot(qs=(50.0, 99.0))
        assert s["count"] == 0.0
        for k in ("mean", "min", "max", "p50", "p99"):
            assert math.isnan(s[k])
        # and the timer keeps working after an empty window
        t.observe(7.0)
        assert t.snapshot(qs=(50.0,))["p50"] == 7.0

    def test_window_reservoir_bounded(self):
        t = ReservoirTimer(capacity=8, seed=3)
        t.snapshot()  # arm
        for v in range(1000):
            t.observe(float(v))
        s = t.snapshot(qs=(50.0,))
        assert s["count"] == 1000.0
        assert len(t._w_sample) <= 8
        assert 100.0 < s["p50"] < 900.0


class TestTelemetryRegistry:
    def test_counters_and_gauges(self):
        obs = Telemetry()
        obs.inc("a")
        obs.inc("a", 2.0)
        obs.gauge("g", 1.0)
        obs.gauge("g", 9.0)
        assert obs.counters["a"] == 3.0
        assert obs.gauges["g"] == 9.0

    def test_timer_seed_is_name_derived_and_process_stable(self):
        # same (telemetry seed, timer name) -> identical reservoirs, even
        # across interpreters (crc32, not PYTHONHASHSEED-randomized hash())
        x = Telemetry(seed=5)
        y = Telemetry(seed=5)
        for i in range(2000):
            x.observe("t", float(i))
            y.observe("t", float(i))
        assert x.timer("t")._sample == y.timer("t")._sample

    def test_snapshot_shape(self):
        obs = Telemetry()
        obs.inc("c")
        obs.gauge("g", 2.0)
        obs.observe("t", 1.0)
        obs.span("phase.x", 0.0, 1.0, site=3, key=0)
        snap = obs.snapshot()
        assert snap["counters"] == {"c": 1.0}
        assert snap["gauges"] == {"g": 2.0}
        assert snap["spans"] == 1
        assert snap["timers"]["t"]["count"] == 1.0


class TestSpans:
    def test_closed_span_feeds_same_named_timer(self):
        obs = Telemetry()
        obs.span("phase.enroll", 2.0, 5.0, site=1, key=7, asked=3)
        (s,) = obs.spans
        assert (s.category, s.key, s.site, s.duration) == ("phase.enroll", 7, 1, 3.0)
        assert s.labels == {"asked": 3}
        assert obs.timer("phase.enroll").count == 1

    # -- spans read off a trace stream (repro.obs.timeline) -------------------

    @staticmethod
    def read(*events):
        """Timeline of a synthetic trace: ``(time, category, detail)``
        events of site 0, no collector records."""
        tracer = Tracer()
        for t, category, detail in events:
            tracer.emit(t, category, 0, **detail)
        return timeline(SimpleNamespace(tracer=tracer, collector=MetricsCollector()))

    def test_begin_end_pairing(self):
        spans = self.read(
            (1.0, "acs.enroll", {"job": 7, "asked": 3}),
            (4.0, "map.done", {"job": 7, "procs": 2}),
            (4.0, "validate.self", {"job": 7, "endorsed": []}),
            (7.0, "validate.fail", {"job": 7}),
            (7.0, "job.decision", {"job": 7, "outcome": "rejected_validation"}),
        )
        assert [(s.category, s.t0, s.t1, s.ok) for s in spans] == [
            ("phase.enroll", 1.0, 4.0, True),
            ("phase.map", 4.0, 4.0, True),
            ("phase.validate", 4.0, 7.0, False),
        ]
        assert spans[0].labels == {"asked": 3}

    def test_end_without_begin_is_tolerant(self):
        # a tracer switched on mid-protocol: the phases it saw begin only
        spans = self.read(
            (4.0, "validate.ok", {"job": 99}),
            (4.0, "job.local_accept", {"job": 98}),
            (4.0, "job.decision", {"job": 99, "outcome": "accepted_distributed"}),
        )
        assert spans == []

    def test_same_key_different_categories_nest(self):
        # a session that dies at the mapping boundary: the decision closes
        # the open enroll (failed: nobody enrolled) and implies a failed,
        # zero-width map span on the same key
        spans = self.read(
            (1.0, "acs.enroll", {"job": 1, "asked": 2}),
            (6.0, "job.decision", {"job": 1, "outcome": "rejected_no_sphere"}),
        )
        assert [(s.category, s.key, s.t0, s.t1, s.ok) for s in spans] == [
            ("phase.enroll", 1, 1.0, 6.0, False),
            ("phase.map", 1, 6.0, 6.0, False),
        ]
