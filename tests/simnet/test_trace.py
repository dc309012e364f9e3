"""Tests for tracing and message accounting."""

from repro.simnet.trace import Tracer


class TestTracer:
    def test_emit_and_query(self):
        tr = Tracer()
        tr.emit(1.0, "a", 0, job=7)
        tr.emit(2.0, "b", 1)
        tr.emit(3.0, "a", 2, job=8)
        assert len(tr) == 3
        assert [e.time for e in tr.of("a")] == [1.0, 3.0]
        assert [e.site for e in tr.for_job(7)] == [0]

    def test_disabled(self):
        tr = Tracer(enabled=False)
        tr.emit(1.0, "a", 0)
        assert len(tr) == 0

    def test_category_filter(self):
        tr = Tracer(categories={"keep"})
        tr.emit(1.0, "keep", 0)
        tr.emit(1.0, "drop", 0)
        assert len(tr) == 1

    def test_clear(self):
        tr = Tracer()
        tr.emit(1.0, "a", 0)
        tr.clear()
        assert len(tr) == 0
