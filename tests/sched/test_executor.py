"""Tests for the compute-processor executor."""

import pytest

from repro.errors import SchedulingError
from repro.sched.executor import PlanExecutor
from repro.sched.intervals import Reservation
from repro.sched.plan import SchedulingPlan


@pytest.fixture
def plan():
    return SchedulingPlan(0, surplus_window=100.0)


@pytest.fixture
def execu(sim, plan):
    return PlanExecutor(sim, plan)


def commit(plan, execu, reservations, gates=None):
    plan.commit(reservations)
    execu.notify_committed(reservations, gates)


class TestBasicExecution:
    def test_runs_at_reserved_times(self, sim, plan, execu):
        done = []
        execu.on_complete.append(lambda j, t, at, site, spans: done.append((j, t, at, site, list(spans))))
        commit(plan, execu, [Reservation(2.0, 5.0, 1, "a"), Reservation(6.0, 7.0, 1, "b")])
        sim.run()
        # each finished task is reported once, with its site and actual chunks
        assert done == [(1, "a", 5.0, plan.site, [(2.0, 5.0)]), (1, "b", 7.0, plan.site, [(6.0, 7.0)])]
        assert execu.records()[(1, "a")].actual_start == 2.0
        assert execu.records()[(1, "a")].lateness == 0.0

    def test_serialized_no_overlap(self, sim, plan, execu):
        commit(plan, execu, [Reservation(0.0, 5.0, 1, "a"), Reservation(5.0, 8.0, 1, "b")])
        sim.run()
        ra, rb = execu.records()[(1, "a")], execu.records()[(1, "b")]
        assert rb.actual_start >= ra.actual_end - 1e-9

    def test_later_insert_between_gaps(self, sim, plan, execu):
        done = []
        execu.on_complete.append(lambda j, t, *_: done.append(t))
        commit(plan, execu, [Reservation(0.0, 2.0, 1, "a"), Reservation(6.0, 8.0, 1, "c")])
        # commit an earlier-gap reservation while the first is running
        sim.schedule(1.0, lambda: commit(plan, execu, [Reservation(3.0, 5.0, 2, "b")]))
        sim.run()
        assert done == ["a", "b", "c"]

    def test_duplicate_record_rejected(self, sim, plan, execu):
        commit(plan, execu, [Reservation(0.0, 1.0, 1, "a")])
        with pytest.raises(SchedulingError):
            execu.notify_committed([Reservation(5.0, 6.0, 1, "a")])


class TestGates:
    def test_gate_blocks_until_token(self, sim, plan, execu):
        commit(
            plan,
            execu,
            [Reservation(1.0, 3.0, 1, "a")],
            gates={(1, "a"): {("result", 1, "p")}},
        )
        sim.schedule(5.0, lambda: execu.deliver_token(("result", 1, "p")))
        sim.run()
        rec = execu.records()[(1, "a")]
        assert rec.actual_start == 5.0
        assert rec.actual_end == 7.0
        assert rec.lateness == pytest.approx(4.0)

    def test_done_token_chains_locally(self, sim, plan, execu):
        commit(
            plan,
            execu,
            [Reservation(0.0, 2.0, 1, "a"), Reservation(2.0, 4.0, 1, "b")],
            gates={(1, "b"): {("done", 1, "a")}},
        )
        sim.run()
        assert execu.records()[(1, "b")].actual_start == 2.0

    def test_early_token_remembered(self, sim, plan, execu):
        execu.deliver_token(("result", 1, "p"))
        commit(
            plan,
            execu,
            [Reservation(1.0, 2.0, 1, "a")],
            gates={(1, "a"): {("result", 1, "p")}},
        )
        sim.run()
        assert execu.records()[(1, "a")].actual_start == 1.0

    def test_shared_token_opens_multiple_gates(self, sim, plan, execu):
        commit(
            plan,
            execu,
            [Reservation(0.0, 1.0, 1, "a"), Reservation(1.0, 2.0, 1, "b")],
            gates={
                (1, "a"): {("result", 1, "p")},
                (1, "b"): {("result", 1, "p")},
            },
        )
        sim.schedule(0.5, lambda: execu.deliver_token(("result", 1, "p")))
        sim.run()
        assert execu.records()[(1, "a")].done and execu.records()[(1, "b")].done

    def test_work_conserving_skips_blocked_head(self, sim, plan, execu):
        """If the slot-order head is gated, a later ready task runs first."""
        commit(
            plan,
            execu,
            [Reservation(0.0, 2.0, 1, "blocked"), Reservation(2.0, 4.0, 1, "free")],
            gates={(1, "blocked"): {("result", 1, "x")}},
        )
        sim.schedule(10.0, lambda: execu.deliver_token(("result", 1, "x")))
        sim.run()
        rb, rf = execu.records()[(1, "blocked")], execu.records()[(1, "free")]
        assert rf.actual_start == 2.0  # ran at its slot despite blocked head
        assert rb.actual_start == 10.0
        assert rb.lateness == pytest.approx(10.0)


class TestMaintenance:
    def test_prune_done(self, sim, plan, execu):
        commit(plan, execu, [Reservation(0.0, 1.0, 1, "a"), Reservation(2.0, 3.0, 2, "b")])
        sim.run()
        assert execu.prune_done_before(2.5) == 1
        assert (1, "a") not in execu.records()
        assert execu.records()[(2, "b")].done

    def test_busy_flag(self, sim, plan, execu):
        commit(plan, execu, [Reservation(0.0, 2.0, 1, "a")])
        seen = []
        sim.schedule(1.0, lambda: seen.append(execu._running))
        sim.run()
        assert seen == [(1, "a")]
        assert execu._running is None


class TestStateLifetime:
    """Per-task state is created at commit and released at completion."""

    def holdings(self, execu):
        return (
            len(execu._gates),
            len(execu._token_waiters),
            len(execu._queue),
            len(execu._early_tokens),
        )

    def test_nothing_but_records_survives_a_drained_chain(self, sim, plan, execu):
        commit(
            plan,
            execu,
            [Reservation(0.0, 1.0, 1, "a"), Reservation(1.0, 2.0, 1, "b"), Reservation(2.0, 3.0, 1, "c")],
            gates={(1, "b"): {("done", 1, "a")}, (1, "c"): {("done", 1, "b"), ("result", 1, "x")}},
        )
        assert self.holdings(execu) == (2, 3, 2, 0)  # "a" is already running
        assert execu.live_jobs() == {1}
        sim.schedule(0.5, lambda: execu.deliver_token(("result", 1, "x")))
        sim.run()
        assert self.holdings(execu) == (0, 0, 0, 0)
        assert execu.live_jobs() == set() and execu.leaks() == []
        assert len(execu.records()) == 3

    def test_gate_is_dropped_by_its_last_token(self, sim, plan, execu):
        commit(
            plan,
            execu,
            [Reservation(5.0, 6.0, 1, "a")],
            gates={(1, "a"): {("result", 1, "p"), ("result", 1, "q")}},
        )
        execu.deliver_token(("result", 1, "p"))
        assert execu._gates == {(1, "a"): {("result", 1, "q")}}
        execu.deliver_token(("result", 1, "q"))
        assert execu._gates == {} and execu._token_waiters == {}

    def test_early_result_is_consumed_by_the_commit_it_raced(self, sim, plan, execu):
        execu.deliver_token(("result", 1, "p"))
        assert list(execu._early_tokens) == [("result", 1, "p")]
        commit(
            plan,
            execu,
            [Reservation(1.0, 2.0, 1, "a"), Reservation(2.0, 3.0, 1, "b")],
            gates={(1, "a"): {("result", 1, "p")}, (1, "b"): {("result", 1, "p")}},
        )
        assert self.holdings(execu) == (0, 0, 2, 0)
        sim.run()
        assert execu.records()[(1, "a")].actual_start == 1.0
        assert execu.records()[(1, "b")].actual_start == 2.0

    def test_completions_nobody_waits_for_are_not_parked(self, sim, plan, execu):
        commit(plan, execu, [Reservation(0.0, 1.0, 1, "a"), Reservation(1.0, 2.0, 2, "b")])
        sim.run()
        assert execu._early_tokens == {}

    def test_stray_result_ages_out_on_reap(self, sim, plan, execu):
        sim.schedule(3.0, lambda: execu.deliver_token(("result", 9, "never")))
        sim.run()
        assert execu.reap_abandoned(2.5) == 0
        assert list(execu._early_tokens) == [("result", 9, "never")]
        assert execu.reap_abandoned(3.0) == 0
        assert execu._early_tokens == {}

    def test_reap_takes_the_gate_waiters_and_queue_entry_along(self, sim, plan, execu):
        commit(
            plan,
            execu,
            [Reservation(0.0, 1.0, 1, "lost"), Reservation(1.0, 2.0, 2, "kept")],
            gates={
                (1, "lost"): {("result", 1, "x"), ("result", 7, "shared")},
                (2, "kept"): {("result", 7, "shared")},
            },
        )
        sim.run()
        assert execu.leaks() == [
            "gate of (1, 'lost') closed, waiting for 2 token(s)",
            "gate of (2, 'kept') closed, waiting for 1 token(s)",
        ]
        plan.commit([Reservation(50.0, 51.0, 3, "later")])
        execu.notify_committed(
            [Reservation(50.0, 51.0, 3, "later")], {(3, "later"): {("result", 3, "y")}}
        )
        assert execu.reap_abandoned(10.0) == 2
        assert execu._token_waiters == {("result", 3, "y"): {(3, "later")}}
        assert [key for _, _, key in execu._queue] == [(3, "later")]
        assert execu.live_jobs() == {3}

    def test_done_gate_must_name_a_task_of_the_same_commit(self, sim, plan, execu):
        with pytest.raises(AssertionError, match="no unfinished local task"):
            execu.notify_committed(
                [Reservation(0.0, 1.0, 1, "b")], {(1, "b"): {("done", 1, "elsewhere")}}
            )

    def test_split_task_requeues_at_its_next_chunk(self, sim, plan, execu):
        commit(
            plan,
            execu,
            [Reservation(0.0, 1.0, 1, "a"), Reservation(4.0, 5.0, 1, "a"), Reservation(1.0, 2.0, 2, "b")],
        )
        sim.run(until=1.5)
        assert execu._queue == [(4.0, repr((1, "a")), (1, "a"))]
        sim.run()
        assert execu.records()[(1, "a")].actual == [(0.0, 1.0), (4.0, 5.0)]
        assert execu.records()[(2, "b")].actual == [(1.0, 2.0)]
        assert execu._queue == []

    def test_prune_pops_in_completion_order(self, sim, plan, execu):
        commit(
            plan,
            execu,
            [Reservation(0.0, 1.0, 1, "a"), Reservation(2.0, 3.0, 2, "b"), Reservation(4.0, 5.0, 3, "c")],
        )
        sim.run()
        assert execu.prune_done_before(0.5) == 0
        assert execu.prune_done_before(3.0) == 2
        assert list(execu.records()) == [(3, "c")]
        assert execu.prune_done_before(3.0) == 0
        assert execu.prune_done_before(100.0) == 1
        assert execu.records() == {} and not execu._done
