"""Tests for the busy-interval timeline."""

import pytest

from repro.errors import SchedulingError
from repro.sched.intervals import BusyTimeline, Reservation


def res(start, end, job=0, task="t"):
    return Reservation(start, end, job, task)


@pytest.fixture
def tl():
    t = BusyTimeline()
    t.reserve(res(2.0, 4.0, task="a"))
    t.reserve(res(6.0, 8.0, task="b"))
    t.reserve(res(10.0, 11.0, task="c"))
    return t


class TestReservation:
    def test_empty_interval_rejected(self):
        with pytest.raises(SchedulingError):
            res(1.0, 1.0)
        with pytest.raises(SchedulingError):
            res(2.0, 1.0)

    def test_duration(self):
        assert res(1.0, 3.5).duration == 2.5


class TestReserve:
    def test_overlap_rejected(self, tl):
        for bad in [(1.0, 3.0), (3.0, 3.5), (3.9, 6.1), (5.0, 7.0), (2.0, 4.0)]:
            with pytest.raises(SchedulingError):
                tl.reserve(res(*bad, task="x"))

    def test_adjacent_allowed(self, tl):
        tl.reserve(res(4.0, 6.0, task="x"))
        tl.check_invariants()
        assert len(tl) == 4

    def test_order_maintained(self, tl):
        tl.reserve(res(0.0, 1.0, task="early"))
        starts = [r.start for r in tl]
        assert starts == sorted(starts)
        tl.check_invariants()


class TestIsFree:
    def test_free_gap(self, tl):
        assert tl.is_free(4.0, 6.0)
        assert tl.is_free(8.5, 9.5)
        assert tl.is_free(11.0, 99.0)

    def test_busy(self, tl):
        assert not tl.is_free(2.5, 3.0)
        assert not tl.is_free(1.0, 2.5)
        assert not tl.is_free(7.9, 8.5)

    def test_empty_window_rejected(self, tl):
        with pytest.raises(SchedulingError):
            tl.is_free(5.0, 5.0)


class TestEarliestFit:
    def test_before_everything(self, tl):
        assert tl.earliest_fit(2.0, 0.0, 100.0) == 0.0

    def test_into_gap(self, tl):
        assert tl.earliest_fit(2.0, 2.0, 100.0) == 4.0

    def test_skips_small_gap(self, tl):
        # gap [4,6) is 2 wide; need 3 -> lands after 11
        assert tl.earliest_fit(3.0, 2.0, 100.0) == 11.0

    def test_respects_release_inside_busy(self, tl):
        assert tl.earliest_fit(1.0, 3.0, 100.0) == 4.0

    def test_respects_release_inside_gap(self, tl):
        assert tl.earliest_fit(1.0, 4.5, 100.0) == 4.5

    def test_deadline_infeasible(self, tl):
        assert tl.earliest_fit(3.0, 2.0, 10.0) is None

    def test_deadline_exact_fit(self, tl):
        assert tl.earliest_fit(2.0, 4.0, 6.0) == 4.0

    def test_window_too_small(self, tl):
        assert tl.earliest_fit(5.0, 0.0, 4.0) is None

    def test_zero_duration_rejected(self, tl):
        with pytest.raises(SchedulingError):
            tl.earliest_fit(0.0, 0.0, 10.0)

    def test_empty_timeline(self):
        assert BusyTimeline().earliest_fit(5.0, 3.0, 100.0) == 3.0


class TestIdleWindows:
    def test_basic(self, tl):
        assert tl.idle_windows(0.0, 12.0) == [
            (0.0, 2.0),
            (4.0, 6.0),
            (8.0, 10.0),
            (11.0, 12.0),
        ]

    def test_window_starts_inside_busy(self, tl):
        assert tl.idle_windows(3.0, 7.0) == [(4.0, 6.0)]

    def test_all_free(self):
        assert BusyTimeline().idle_windows(1.0, 5.0) == [(1.0, 5.0)]

    def test_empty_window(self, tl):
        assert tl.idle_windows(5.0, 5.0) == []

    def test_idle_time(self, tl):
        assert tl.idle_time(0.0, 12.0) == pytest.approx(7.0)


class TestAtAndNext:
    def test_at(self, tl):
        assert tl.at(3.0).task == "a"
        assert tl.at(5.0) is None
        assert tl.at(10.5).task == "c"

class TestMutation:
    def test_prune_before(self, tl):
        assert tl.prune_before(8.0) == 2
        assert [r.task for r in tl] == ["c"]

    def test_copy_independent(self, tl):
        cp = tl.copy()
        cp.reserve(res(4.0, 5.0, task="new"))
        assert len(cp) == 4 and len(tl) == 3
        assert tl.is_free(4.0, 6.0)

    def test_check_invariants_detects_corruption(self, tl):
        tl._items[0] = Reservation(3.5, 7.0, 0, "bad")
        tl._starts[0] = 3.5
        with pytest.raises(SchedulingError):
            tl.check_invariants()
