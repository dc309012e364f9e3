"""Tests for the local guarantee test (§5) and validation (§10)."""

import gc
import tracemalloc

import pytest

from repro.core.local_test import blazewicz_windows, local_guarantee_test
from repro.core.validation import compute_permutation, endorse_mapping
from repro.graphs.generators import linear_chain_dag, paper_example_dag
from repro.sched.intervals import BusyTimeline, Reservation


class TestLocalTest:
    def test_accepts_with_gates(self):
        tl = BusyTimeline()
        dag = paper_example_dag()
        out = local_guarantee_test(tl, dag, 1, 0.0, 100.0, 0.0)
        assert out is not None
        slots, gates = out
        assert len(slots) == 5
        assert gates[(1, 5)] == {("done", 1, 3), ("done", 1, 4)}
        assert (1, 1) not in gates  # sources have no deps

    def test_rejects_tight(self):
        tl = BusyTimeline()
        assert local_guarantee_test(tl, paper_example_dag(), 1, 0.0, 20.0, 0.0) is None

    def test_preemptive_mode_dominates(self):
        """A workload the non-preemptive test rejects but preemptive fits:
        busy slots leave two 3-wide gaps; a 4-long task must split."""
        tl = BusyTimeline()
        tl.reserve(Reservation(3.0, 5.0, 9, "x"))
        dag = linear_chain_dag(1, c_range=(4.0, 4.0))
        assert local_guarantee_test(tl, dag, 1, 0.0, 8.0, 0.0) is None
        out = local_guarantee_test(tl, dag, 1, 0.0, 8.0, 0.0, preemptive=True)
        assert out is not None
        slots, _ = out
        assert sum(s.duration for s in slots) == pytest.approx(4.0)

    def test_speed_scales_durations(self):
        tl = BusyTimeline()
        dag = linear_chain_dag(2, c_range=(4.0, 4.0))
        out = local_guarantee_test(tl, dag, 1, 0.0, 100.0, 0.0, speed=2.0)
        slots, _ = out
        assert max(s.end for s in slots) == pytest.approx(4.0)  # 8 work / speed 2

    def test_speed_preemptive(self):
        tl = BusyTimeline()
        dag = linear_chain_dag(2, c_range=(4.0, 4.0))
        out = local_guarantee_test(tl, dag, 1, 0.0, 4.0, 0.0, preemptive=True, speed=2.0)
        assert out is not None


class TestBlazewicz:
    def test_windows_encode_precedence(self):
        dag = paper_example_dag()
        ws = {w.task: w for w in blazewicz_windows(dag, 1, 0.0, 66.0)}
        # r*(3) >= r*(1) + c(1)
        assert ws[3].release >= ws[1].release + 6.0 - 1e-9
        # d*(1) <= d*(3) - c(3)
        assert ws[1].deadline <= ws[3].deadline - 4.0 + 1e-9
        # sink keeps job deadline
        assert ws[5].deadline == pytest.approx(66.0)

    def test_chain_windows_tight(self):
        dag = linear_chain_dag(3, c_range=(2.0, 2.0))
        ws = blazewicz_windows(dag, 1, 0.0, 6.0)
        for w in ws:
            assert w.deadline - w.release == pytest.approx(2.0)


class TestEndorse:
    def procs_payload(self):
        # two logical procs; windows wide
        return {
            0: [("a", 3.0, 0.0, 20.0), ("b", 2.0, 5.0, 30.0)],
            1: [("c", 4.0, 0.0, 25.0)],
        }

    def test_idle_site_endorses_all(self):
        endorsed, slots = endorse_mapping(BusyTimeline(), 1, self.procs_payload(), 0.0)
        assert endorsed == [0, 1]
        assert set(slots) == {0, 1}

    def test_tests_independent_per_proc(self):
        """Slots for proc 0 must not block the proc-1 test."""
        tl = BusyTimeline()
        tl.reserve(Reservation(0.0, 18.0, 9, "x"))
        procs = {
            0: [("a", 2.0, 0.0, 20.0)],
            1: [("b", 2.0, 0.0, 20.0)],
        }
        endorsed, slots = endorse_mapping(tl, 1, procs, 0.0)
        assert endorsed == [0, 1]
        # both got the same gap - they are alternatives, not co-scheduled;
        # a slot is (start, end, task, release, deadline)
        assert slots[0][0][0] == pytest.approx(18.0)
        assert slots[1][0][0] == pytest.approx(18.0)

    def test_busy_site_endorses_nothing(self):
        tl = BusyTimeline()
        tl.reserve(Reservation(0.0, 100.0, 9, "x"))
        endorsed, _ = endorse_mapping(tl, 1, self.procs_payload(), 0.0)
        assert endorsed == []

    def test_impossible_window_skipped(self):
        procs = {0: [("a", 10.0, 0.0, 5.0)]}
        endorsed, _ = endorse_mapping(BusyTimeline(), 1, procs, 0.0)
        assert endorsed == []

    def test_speed_matters(self):
        procs = {0: [("a", 10.0, 0.0, 6.0)]}
        fast, _ = endorse_mapping(BusyTimeline(), 1, procs, 0.0, speed=2.0)
        slow, _ = endorse_mapping(BusyTimeline(), 1, procs, 0.0, speed=1.0)
        assert fast == [0] and slow == []

    def test_preemptive_endorse(self):
        tl = BusyTimeline()
        tl.reserve(Reservation(2.0, 4.0, 9, "x"))
        procs = {0: [("a", 5.0, 0.0, 8.0)]}
        np_end, _ = endorse_mapping(tl, 1, procs, 0.0, preemptive=False)
        p_end, _ = endorse_mapping(tl, 1, procs, 0.0, preemptive=True)
        assert np_end == [] and p_end == [0]


class TestTailCost:
    """A VALIDATE probe pays for the live tail of the plan, not its history:
    peak bytes are measured under tracemalloc, so the bound holds on any box."""

    NOW = 20_000.0

    def timeline(self, finished):
        tl = BusyTimeline()
        for i in range(finished):  # history: ends before NOW
            start = self.NOW - finished + i
            tl.reserve(Reservation(start, start + 0.5, 9, f"old{i}"))
        for k in range(5):  # live: ends after NOW
            start = self.NOW + 1.0 + 2.0 * k
            tl.reserve(Reservation(start, start + 1.0, 9, f"live{k}"))
        return tl

    def payload(self):
        now = self.NOW
        return {
            0: [("a", 2.0, now, now + 30.0), ("b", 1.0, now + 1.0, now + 20.0)],
            1: [("c", 3.0, now, now + 40.0)],
            2: [("d", 1.5, now + 2.0, now + 25.0), ("e", 0.5, now, now + 9.0)],
        }

    def peak_bytes(self, tl, payload):
        started_here = not tracemalloc.is_tracing()
        if started_here:
            tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = endorse_mapping(tl, 1, payload, self.NOW)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if started_here:
                tracemalloc.stop()
        return out, peak

    def test_endorse_peak_bytes_do_not_grow_with_history(self):
        payload = self.payload()
        long_tl, short_tl = self.timeline(10_000), self.timeline(10)
        endorse_mapping(short_tl, 1, payload, self.NOW)  # first-call warm-up
        gc.collect()
        long_out, long_peak = self.peak_bytes(long_tl, payload)
        short_out, short_peak = self.peak_bytes(short_tl, payload)
        assert long_out == short_out and long_out[0] == [0, 1, 2]
        assert long_peak <= 1.5 * short_peak, (
            f"endorse_mapping peaked at {long_peak} B over 10 000 finished "
            f"reservations vs {short_peak} B over 10"
        )


class TestPermutation:
    def test_perfect(self):
        perm = compute_permutation([0, 1], {10: [0, 1], 11: [1]})
        assert perm == {0: 10, 1: 11}

    def test_rejected(self):
        assert compute_permutation([0, 1], {10: [0], 11: [0]}) is None

    def test_extra_endorsements_ignored(self):
        perm = compute_permutation([0], {10: [0, 5, 7], 11: [0]})
        assert perm is not None and len(perm) == 1

    def test_site_used_once(self):
        perm = compute_permutation([0, 1], {10: [0, 1]})
        assert perm is None  # one site cannot host two logical procs
