"""Cancel/compaction interplay and the O(1) live-event counter.

The lazy heap compaction (engine rewrite, PR 3) must be invisible:
equal-time event order is defined by ``(time, priority, seq)`` alone, so
compacting (filter + heapify) can never reorder live events. These tests
pin that, plus the counter discipline that makes ``pending()`` O(1) and
``cancel`` idempotent.
"""

import pytest

from repro.simnet.engine import _COMPACT_MIN_CANCELLED, PRIORITY_LATE, Simulator


@pytest.fixture
def sim():
    return Simulator()


class TestLiveCounter:
    def test_pending_tracks_schedule_cancel_fire(self, sim):
        evs = [sim.schedule(float(i + 1), lambda: None) for i in range(10)]
        assert sim.pending() == 10
        sim.cancel(evs[0])
        sim.cancel(evs[1])
        assert sim.pending() == 8
        sim.run(until=5.0)  # fires events at t=3,4,5 (0,1 cancelled)
        assert sim.pending() == 5
        sim.run()
        assert sim.pending() == 0

    def test_double_cancel_does_not_underflow(self, sim):
        ev = sim.schedule(1.0, lambda: None)
        other = sim.schedule(2.0, lambda: None)
        for _ in range(5):
            sim.cancel(ev)
        assert sim.pending() == 1
        sim.run()
        assert sim.pending() == 0
        assert sim.events_processed == 1
        # cancel-after-fire is equally harmless
        for _ in range(3):
            sim.cancel(other)
        assert sim.pending() == 0

    def test_pending_matches_brute_force_under_churn(self, sim):
        """The counter agrees with ground truth across a mixed workload."""
        import random

        rng = random.Random(7)
        live = set()
        for step in range(500):
            if live and rng.random() < 0.4:
                ev = live.pop()
                sim.cancel(ev)
                sim.cancel(ev)  # double-cancel must stay a no-op
            else:
                live.add(sim.schedule(rng.random() * 50.0, lambda: None))
            assert sim.pending() == len(live)


class TestCompaction:
    def test_compaction_physically_shrinks_heap(self, sim):
        n = 4 * _COMPACT_MIN_CANCELLED
        evs = [sim.schedule(float(i + 1), lambda: None) for i in range(n)]
        assert len(sim._heap) == n
        # cancel 3/4 of them: far past the half-dead threshold
        for ev in evs[: 3 * n // 4]:
            sim.cancel(ev)
        assert sim.pending() == n // 4
        # at least one compaction fired; what remains is live + the tail of
        # cancels that stayed under the floor since the last rebuild
        assert len(sim._heap) <= n // 2, "heap must have been compacted"
        assert len(sim._heap) == sim.pending() + sim._dead

    def test_no_compaction_below_floor(self, sim):
        """Tiny heaps are never compacted (rebuild would cost more)."""
        evs = [sim.schedule(float(i + 1), lambda: None) for i in range(10)]
        for ev in evs[:9]:
            sim.cancel(ev)
        assert len(sim._heap) == 10  # all still physically queued
        assert sim.pending() == 1

    def test_equal_time_order_survives_compaction(self, sim):
        """Firing order at one instant = scheduling order of the survivors,
        exactly as without compaction."""
        n = 4 * _COMPACT_MIN_CANCELLED
        log = []
        evs = []
        for i in range(n):
            evs.append(sim.schedule(5.0, lambda i=i: log.append(i)))
        # cancel all but every fourth event -> triggers at least one
        # compaction (the dead strictly outnumber the live)
        for i in range(n):
            if i % 4:
                sim.cancel(evs[i])
        assert len(sim._heap) < n
        sim.run()
        assert log == list(range(0, n, 4))

    def test_priority_order_survives_compaction(self, sim):
        n = 4 * _COMPACT_MIN_CANCELLED
        log = []
        sim.schedule(5.0, lambda: log.append("late"), PRIORITY_LATE)
        evs = [sim.schedule(5.0, lambda i=i: log.append(i)) for i in range(n)]
        for ev in evs[1:]:
            sim.cancel(ev)
        sim.run()
        assert log == [0, "late"]

    def test_cancel_all_then_reschedule(self, sim):
        n = 4 * _COMPACT_MIN_CANCELLED
        evs = [sim.schedule(1.0, lambda: None) for _ in range(n)]
        for ev in evs:
            sim.cancel(ev)
        assert sim.pending() == 0
        log = []
        sim.schedule(1.0, lambda: log.append("alive"))
        sim.run()
        assert log == ["alive"]
        assert sim.events_processed == 1

    def test_compaction_during_run_callback(self, sim):
        """A callback cancelling en masse (timer storms) compacts the heap
        the run loop is actively draining — the local alias must survive."""
        n = 4 * _COMPACT_MIN_CANCELLED
        log = []
        victims = [sim.schedule(10.0 + i * 0.001, lambda: log.append("victim")) for i in range(n)]
        survivor_mark = []

        def massacre():
            for ev in victims:
                sim.cancel(ev)

        sim.schedule(1.0, massacre)
        sim.schedule(20.0, lambda: survivor_mark.append(sim.now))
        sim.run()
        assert log == []
        assert survivor_mark == [20.0]
        assert sim.events_processed == 2

class TestScheduleCall:
    def test_schedule_call_passes_argument(self, sim):
        got = []
        sim.schedule_call(1.0, got.append, "payload")
        sim.run()
        assert got == ["payload"]

    def test_schedule_call_interleaves_with_schedule_in_seq_order(self, sim):
        log = []
        sim.schedule(1.0, lambda: log.append("a"))
        sim.schedule_call(1.0, log.append, "b")
        sim.schedule(1.0, lambda: log.append("c"))
        sim.run()
        assert log == ["a", "b", "c"]

    def test_schedule_call_cancel(self, sim):
        got = []
        ev = sim.schedule_call(1.0, got.append, "x")
        sim.cancel(ev)
        sim.run()
        assert got == []
        assert sim.pending() == 0

    def test_schedule_call_negative_delay_rejected(self, sim):
        from repro.errors import SimulationError

        with pytest.raises(SimulationError):
            sim.schedule_call(-1.0, print, None)

    def test_schedule_call_at_past_rejected(self, sim):
        from repro.errors import SimulationError

        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_call_at(1.0, print, None)
