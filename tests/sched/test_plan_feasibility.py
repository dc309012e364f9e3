"""Tests for SchedulingPlan, local DAG test, and window-task satisfiability."""

import pytest

from repro.errors import SchedulingError
from repro.graphs.generators import linear_chain_dag, paper_example_dag
from repro.sched.feasibility import WindowTask, try_schedule_dag_locally
from repro.sched.intervals import BusyTimeline, Reservation
from repro.sched.plan import SchedulingPlan
from tests.sched.window_probe import endorse_one


class TestSurplus:
    def test_empty_plan_fully_idle(self):
        p = SchedulingPlan(0, surplus_window=100.0)
        assert p.surplus(0.0) == 1.0
        assert p.busyness(0.0) == 0.0

    def test_half_busy(self):
        p = SchedulingPlan(0, surplus_window=100.0)
        p.commit([Reservation(0.0, 50.0, 1, "t")])
        assert p.surplus(0.0) == pytest.approx(0.5)

    def test_window_moves_with_now(self):
        p = SchedulingPlan(0, surplus_window=100.0)
        p.commit([Reservation(0.0, 50.0, 1, "t")])
        assert p.surplus(50.0) == pytest.approx(1.0)

    def test_past_work_ignored(self):
        p = SchedulingPlan(0, surplus_window=10.0)
        p.commit([Reservation(0.0, 5.0, 1, "t")])
        assert p.surplus(5.0) == 1.0

    def test_custom_window(self):
        p = SchedulingPlan(0, surplus_window=100.0)
        p.commit([Reservation(0.0, 10.0, 1, "t")])
        assert p.surplus(0.0, window=20.0) == pytest.approx(0.5)

    def test_invalid_window(self):
        with pytest.raises(SchedulingError):
            SchedulingPlan(0, surplus_window=0.0)


class TestCommit:
    def test_atomic_on_conflict(self):
        p = SchedulingPlan(0)
        p.commit([Reservation(0.0, 5.0, 1, "a")])
        with pytest.raises(SchedulingError):
            p.commit([Reservation(6.0, 7.0, 2, "b"), Reservation(4.0, 6.5, 2, "c")])
        # nothing from the failed batch landed
        assert p.timeline.is_free(6.0, 7.0)
        assert [r.task for r in p.timeline] == ["a"]

    def test_prune(self):
        p = SchedulingPlan(0)
        p.commit([Reservation(0.0, 5.0, 1, "a"), Reservation(6.0, 9.0, 1, "b")])
        version = p.version
        assert p.prune_before(5.5) == 1
        assert [r.task for r in p.timeline] == ["b"]
        assert p.version == version + 1
        assert p.prune_before(5.5) == 0 and p.version == version + 1

class TestLocalDagTest:
    def test_empty_site_accepts(self):
        tl = BusyTimeline()
        dag = paper_example_dag()
        slots = try_schedule_dag_locally(tl, dag, 1, 0.0, 100.0, 0.0)
        assert slots is not None
        # sequential: total work 21 on an empty site
        assert max(s.end for s in slots) == pytest.approx(21.0)

    def test_precedence_respected(self):
        tl = BusyTimeline()
        dag = paper_example_dag()
        slots = {s.task: s for s in try_schedule_dag_locally(tl, dag, 1, 0.0, 100.0, 0.0)}
        for u, v in dag.edges:
            assert slots[v].start >= slots[u].end - 1e-9

    def test_deadline_too_tight(self):
        tl = BusyTimeline()
        dag = paper_example_dag()  # total work 21
        assert try_schedule_dag_locally(tl, dag, 1, 0.0, 20.0, 0.0) is None

    def test_exact_deadline(self):
        tl = BusyTimeline()
        dag = linear_chain_dag(3, c_range=(2.0, 2.0))
        assert try_schedule_dag_locally(tl, dag, 1, 0.0, 6.0, 0.0) is not None

    def test_inserts_between_existing(self):
        tl = BusyTimeline()
        tl.reserve(Reservation(0.0, 10.0, 9, "x"))
        tl.reserve(Reservation(14.0, 30.0, 9, "y"))
        dag = linear_chain_dag(2, c_range=(2.0, 2.0))
        slots = try_schedule_dag_locally(tl, dag, 1, 0.0, 40.0, 0.0)
        assert slots is not None
        assert slots[0].start == 10.0 and slots[1].start == 12.0

    def test_not_before_floor(self):
        tl = BusyTimeline()
        dag = linear_chain_dag(1, c_range=(2.0, 2.0))
        slots = try_schedule_dag_locally(tl, dag, 1, 0.0, 100.0, 50.0)
        assert slots[0].start == 50.0

    def test_input_timeline_untouched(self):
        tl = BusyTimeline()
        try_schedule_dag_locally(tl, paper_example_dag(), 1, 0.0, 100.0, 0.0)
        assert len(tl) == 0


class TestWindowTasks:
    def test_edf_order_deterministic(self):
        """EDF inserts by (deadline, release, task id): c, then a, then b."""
        ts = [
            WindowTask(1, "b", 1.0, 0.0, 10.0),
            WindowTask(1, "a", 1.0, 0.0, 10.0),
            WindowTask(1, "c", 1.0, 0.0, 5.0),
        ]
        slots = endorse_one(BusyTimeline(), ts, 0.0)
        assert [s.task for s in sorted(slots, key=lambda s: s.start)] == ["c", "a", "b"]

    def test_simple_fit(self):
        tl = BusyTimeline()
        ts = [WindowTask(1, "a", 3.0, 0.0, 10.0), WindowTask(1, "b", 3.0, 0.0, 10.0)]
        slots = endorse_one(tl, ts, 0.0)
        assert slots is not None
        ends = sorted(s.end for s in slots)
        assert ends == [3.0, 6.0]

    def test_overloaded_window_fails(self):
        tl = BusyTimeline()
        ts = [WindowTask(1, "a", 6.0, 0.0, 10.0), WindowTask(1, "b", 6.0, 0.0, 10.0)]
        assert endorse_one(tl, ts, 0.0) is None

    def test_respects_existing_busy(self):
        tl = BusyTimeline()
        tl.reserve(Reservation(0.0, 9.0, 9, "x"))
        ts = [WindowTask(1, "a", 2.0, 0.0, 10.0)]
        assert endorse_one(tl, ts, 0.0) is None
        ts2 = [WindowTask(1, "a", 1.0, 0.0, 10.0)]
        slots = endorse_one(tl, ts2, 0.0)
        assert slots[0].start == 9.0

    def test_disjoint_windows(self):
        tl = BusyTimeline()
        ts = [
            WindowTask(1, "a", 5.0, 0.0, 5.0),
            WindowTask(1, "b", 5.0, 5.0, 10.0),
        ]
        slots = {s.task: s for s in endorse_one(tl, ts, 0.0)}
        assert slots["a"].start == 0.0 and slots["b"].start == 5.0

    def test_laxity_property(self):
        t = WindowTask(1, "a", 3.0, 2.0, 10.0)
        assert t.laxity == pytest.approx(5.0)

    def test_zero_duration_rejected(self):
        with pytest.raises(ValueError):
            WindowTask(1, "a", 0.0, 0.0, 10.0)
