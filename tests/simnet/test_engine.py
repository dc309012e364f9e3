"""Tests for the discrete-event engine."""

import pytest

from repro.errors import SimulationError
from repro.simnet.engine import PRIORITY_DELIVERY, PRIORITY_LATE, PRIORITY_NORMAL


class TestScheduling:
    def test_events_fire_in_time_order(self, sim):
        log = []
        sim.schedule(3.0, lambda: log.append("c"))
        sim.schedule(1.0, lambda: log.append("a"))
        sim.schedule(2.0, lambda: log.append("b"))
        sim.run()
        assert log == ["a", "b", "c"]

    def test_equal_time_fifo(self, sim):
        log = []
        for i in range(5):
            sim.schedule(1.0, lambda i=i: log.append(i))
        sim.run()
        assert log == [0, 1, 2, 3, 4]

    def test_priority_breaks_ties(self, sim):
        log = []
        sim.schedule(1.0, lambda: log.append("delivery"), PRIORITY_DELIVERY)
        sim.schedule(1.0, lambda: log.append("late"), PRIORITY_LATE)
        sim.schedule(1.0, lambda: log.append("normal"), PRIORITY_NORMAL)
        sim.run()
        assert log == ["normal", "delivery", "late"]

    def test_clock_advances(self, sim):
        seen = []
        sim.schedule(2.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [2.5]
        assert sim.now == 2.5

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_schedule_in_past_rejected(self, sim):
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(1.0, lambda: None)

    def test_nested_scheduling(self, sim):
        log = []

        def outer():
            log.append(("outer", sim.now))
            sim.schedule(1.0, lambda: log.append(("inner", sim.now)))

        sim.schedule(1.0, outer)
        sim.run()
        assert log == [("outer", 1.0), ("inner", 2.0)]


class TestRunControl:
    def test_run_until_inclusive(self, sim):
        log = []
        sim.schedule(1.0, lambda: log.append(1))
        sim.schedule(2.0, lambda: log.append(2))
        sim.schedule(3.0, lambda: log.append(3))
        sim.run(until=2.0)
        assert log == [1, 2]
        assert sim.now == 2.0
        sim.run()
        assert log == [1, 2, 3]

    def test_run_until_advances_clock_when_no_events(self, sim):
        sim.run(until=10.0)
        assert sim.now == 10.0

    def test_max_events(self, sim):
        log = []
        for i in range(5):
            sim.schedule(float(i + 1), lambda i=i: log.append(i))
        sim.run(max_events=2)
        assert log == [0, 1]

    def test_not_reentrant(self, sim):
        def bad():
            sim.run()

        sim.schedule(1.0, bad)
        with pytest.raises(SimulationError):
            sim.run()

    def test_events_processed_counter(self, sim):
        for i in range(4):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.events_processed == 4


class TestCancel:
    def test_cancelled_event_does_not_fire(self, sim):
        log = []
        ev = sim.schedule(1.0, lambda: log.append("x"))
        sim.cancel(ev)
        sim.run()
        assert log == []

    def test_cancel_after_fire_is_noop(self, sim):
        log = []
        ev = sim.schedule(1.0, lambda: log.append("x"))
        sim.run()
        sim.cancel(ev)
        assert log == ["x"]

    def test_pending_excludes_cancelled(self, sim):
        ev = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        assert sim.pending() == 2
        sim.cancel(ev)
        assert sim.pending() == 1

    def test_cancel_from_earlier_same_time_callback(self, sim):
        """An event can be cancelled by another event at the *same* time
        that fires first (timer-cancellation races in the protocol)."""
        log = []
        victim = sim.schedule(1.0, lambda: log.append("victim"))
        sim.schedule_at(1.0, lambda: sim.cancel(victim))
        sim.run()
        # seq order: victim was scheduled first, so it fires before the
        # canceller — cancellation at equal time only works backwards
        assert log == ["victim"]
        log.clear()
        canceller_first = []
        victim2 = [None]
        canceller_first.append(sim.schedule(2.0, lambda: sim.cancel(victim2[0])))
        victim2[0] = sim.schedule_at(sim.now + 2.0, lambda: log.append("victim2"))
        sim.run()
        assert log == []

    def test_cancelled_event_not_counted_as_processed(self, sim):
        ev = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.cancel(ev)
        sim.run()
        assert sim.events_processed == 1

    def test_run_until_with_only_cancelled_events_advances_clock(self, sim):
        ev = sim.schedule(5.0, lambda: None)
        sim.cancel(ev)
        end = sim.run(until=10.0)
        assert end == 10.0
        assert sim.now == 10.0
        assert sim.events_processed == 0

    def test_cancel_inside_own_callback_is_noop(self, sim):
        """A callback cancelling its own (already popped) event must not
        corrupt the heap or re-fire."""
        holder = []

        def cb():
            sim.cancel(holder[0])

        holder.append(sim.schedule(1.0, cb))
        sim.schedule(2.0, lambda: None)
        sim.run()
        assert sim.events_processed == 2

    def test_double_cancel_is_idempotent(self, sim):
        log = []
        ev = sim.schedule(1.0, lambda: log.append("x"))
        sim.cancel(ev)
        sim.cancel(ev)
        sim.run()
        assert log == []
        assert sim.pending() == 0


    def test_reschedule_after_cancel(self, sim):
        """Cancel-then-rearm, the protocol's timer idiom: only the rearmed
        event fires."""
        log = []
        ev = sim.schedule(1.0, lambda: log.append("old"))
        sim.cancel(ev)
        sim.schedule(1.0, lambda: log.append("new"))
        sim.run()
        assert log == ["new"]
