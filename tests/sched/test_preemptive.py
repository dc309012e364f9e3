"""Tests for the preemptive-EDF local scheduler (paper §13)."""

import pytest

from repro.sched.feasibility import WindowTask
from repro.sched.intervals import BusyTimeline, Reservation
from repro.sched.preemptive import preemptive_chunks
from tests.sched.window_probe import endorse_one


def wt(task, dur, r, d, job=1):
    return WindowTask(job, task, dur, r, d)


class TestSatisfiable:
    def test_empty_set(self):
        assert preemptive_chunks(BusyTimeline(), [], 0.0) is not None

    def test_single_task(self):
        assert preemptive_chunks(BusyTimeline(), [wt("a", 5.0, 0.0, 5.0)], 0.0) is not None

    def test_overload_fails(self):
        assert preemptive_chunks(
            BusyTimeline(), [wt("a", 6.0, 0.0, 10.0), wt("b", 6.0, 0.0, 10.0)], 0.0
        ) is None

    def test_preemption_helps(self):
        """Classic case: non-preemptive insertion fails, preemptive fits.

        b (urgent, window [2, 4]) must interrupt a (long, window [0, 10]).
        Non-preemptively a occupies [0,6) or [4,10) — with a second long
        task filling the rest, splitting is required.
        """
        tasks = [
            wt("a", 8.0, 0.0, 10.0),
            wt("b", 2.0, 2.0, 4.0),
        ]
        tl = BusyTimeline()
        assert endorse_one(tl, tasks, 0.0) is None
        assert preemptive_chunks(tl, tasks, 0.0) is not None

    def test_respects_busy_timeline(self):
        tl = BusyTimeline()
        tl.reserve(Reservation(0.0, 4.0, 9, "x"))
        assert preemptive_chunks(tl, [wt("a", 2.0, 0.0, 5.0)], 0.0) is None
        assert preemptive_chunks(tl, [wt("a", 2.0, 0.0, 6.0)], 0.0) is not None

    def test_release_respected(self):
        assert preemptive_chunks(
            BusyTimeline(), [wt("a", 3.0, 8.0, 10.0)], 0.0
        ) is None

    def test_not_before_respected(self):
        assert preemptive_chunks(
            BusyTimeline(), [wt("a", 3.0, 0.0, 4.0)], 2.0
        ) is None


class TestChunks:
    def test_chunks_cover_duration(self):
        tl = BusyTimeline()
        tl.reserve(Reservation(2.0, 4.0, 9, "x"))
        tasks = [wt("a", 4.0, 0.0, 10.0)]
        chunks = preemptive_chunks(tl, tasks, 0.0)
        assert chunks is not None
        total = sum(c.duration for c in chunks)
        assert total == pytest.approx(4.0)
        # split around the busy interval
        assert [(c.start, c.end) for c in chunks] == [(0.0, 2.0), (4.0, 6.0)]

    def test_chunks_within_windows(self):
        tl = BusyTimeline()
        tasks = [wt("a", 3.0, 1.0, 8.0), wt("b", 2.0, 0.0, 4.0)]
        chunks = preemptive_chunks(tl, tasks, 0.0)
        by_task = {}
        for c in chunks:
            by_task.setdefault(c.task, []).append(c)
        for t in tasks:
            for c in by_task[t.task]:
                assert c.start >= t.release - 1e-9
                assert c.end <= t.deadline + 1e-9
            assert sum(c.duration for c in by_task[t.task]) == pytest.approx(t.duration)

    def test_edf_preempts_for_urgent(self):
        tasks = [wt("long", 8.0, 0.0, 20.0), wt("urgent", 2.0, 3.0, 5.0)]
        chunks = preemptive_chunks(BusyTimeline(), tasks, 0.0)
        urgent = [c for c in chunks if c.task == "urgent"]
        assert urgent[0].start == pytest.approx(3.0)
        assert urgent[0].end == pytest.approx(5.0)
        # the long task's chunks pause during [3, 5)
        for c in chunks:
            if c.task == "long":
                assert c.end <= 3.0 + 1e-9 or c.start >= 5.0 - 1e-9

    def test_chunks_none_when_infeasible(self):
        assert preemptive_chunks(BusyTimeline(), [wt("a", 5.0, 0.0, 4.0)], 0.0) is None

    def test_chunks_committable(self):
        """Chunks must be reservable on the original timeline."""
        tl = BusyTimeline()
        tl.reserve(Reservation(1.0, 2.0, 9, "x"))
        tl.reserve(Reservation(5.0, 6.0, 9, "y"))
        tasks = [wt("a", 3.0, 0.0, 10.0), wt("b", 2.0, 0.0, 12.0)]
        chunks = preemptive_chunks(tl, tasks, 0.0)
        for c in chunks:
            tl.reserve(c)  # raises on overlap
        tl.check_invariants()

    def test_adjacent_chunks_merged(self):
        tasks = [wt("a", 4.0, 0.0, 10.0)]
        chunks = preemptive_chunks(BusyTimeline(), tasks, 0.0)
        assert len(chunks) == 1  # no fragmentation on an empty machine


class TestDominance:
    def test_preemptive_accepts_everything_nonpreemptive_does(self):
        """Preemptive EDF dominates non-preemptive insertion."""
        import numpy as np

        rng = np.random.default_rng(0)
        for trial in range(50):
            tl = BusyTimeline()
            t = 0.0
            for i in range(int(rng.integers(0, 4))):
                t += float(rng.uniform(0.5, 3.0))
                end = t + float(rng.uniform(0.5, 3.0))
                tl.reserve(Reservation(t, end, 99, f"bg{i}"))
                t = end
            tasks = []
            for i in range(int(rng.integers(1, 5))):
                r = float(rng.uniform(0, 6))
                dur = float(rng.uniform(0.5, 3.0))
                d = r + dur + float(rng.uniform(0, 5))
                tasks.append(wt(f"t{i}", dur, r, d))
            if endorse_one(tl, tasks, 0.0) is not None:
                assert preemptive_chunks(tl, tasks, 0.0) is not None, (
                    trial,
                    [(x.task, x.duration, x.release, x.deadline) for x in tasks],
                )
