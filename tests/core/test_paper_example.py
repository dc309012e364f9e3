"""Exact reproduction of the paper's worked example (THE key tests).

Table 1, Figures 3 and 4 of the paper must come out *exactly* — these are
the quantitative artifacts the paper publishes. Figure 1, the protocol
flow chart, is checked live: its stages occur in the drawn order.
"""

import pytest

from repro.core.adjustment import schedule_sstar
from repro.core.events import JobOutcome
from repro.experiments.paper_example import (
    PAPER_DEADLINE,
    PAPER_FIG3,
    PAPER_FIG4,
    PAPER_TABLE1,
    fig3_schedule,
    fig4_schedule,
    paper_example_adjusted,
    paper_example_trial_mapping,
    run_fig1_scenario,
    table1_rows,
)


class TestFigure1:
    #: the flow chart's externally observable steps, in order
    EXPECTED_ORDER = [
        "job.arrival",
        "job.local_reject",   # §5 local test fails
        "acs.enroll",         # §8 ACS construction starts
        "acs.enrolled",       # members lock + report surplus
        "map.done",           # §9/§12 trial-mapping + §12.2 adjustment
        "validate.member",    # §10 local satisfiability at members
        "validate.ok",        # §10 maximum coupling -> permutation
        "job.decision",
        "execute.commit",     # §11 distributed execution
    ]

    @pytest.fixture(scope="class")
    def fig1(self):
        return run_fig1_scenario()

    def test_protocol_stages_in_order(self, fig1):
        tracer, metrics, jid = fig1
        cats = [e.category for e in tracer.for_job(jid)]
        # every expected stage occurs, in order (first occurrences)
        last = -1
        for want in self.EXPECTED_ORDER:
            assert want in cats, f"protocol stage {want} missing"
            idx = cats.index(want)
            assert idx > last, f"stage {want} out of order in {cats}"
            last = idx
        rec = metrics.jobs[jid]
        assert rec.outcome is JobOutcome.ACCEPTED_DISTRIBUTED
        assert rec.met_deadline is True

    def test_all_locks_released(self, fig1):
        """Both jobs are decided: no site still holds a lock for one."""
        _, metrics, _ = fig1
        assert all(r.outcome is not JobOutcome.PENDING for r in metrics.records())


class TestFigure3:
    def test_schedule_S_exact(self):
        got = fig3_schedule()
        assert got == PAPER_FIG3

    def test_makespan_33(self):
        tm = paper_example_trial_mapping()
        assert tm.makespan == pytest.approx(33.0)

    def test_assignment(self):
        tm = paper_example_trial_mapping()
        assert tm.assignment == {1: 0, 2: 1, 3: 0, 4: 1, 5: 0}

    def test_durations_surplus_scaled(self):
        """eq. (1): di = ri + c(ti)/I."""
        tm = paper_example_trial_mapping()
        surpluses = {0: 0.5, 1: 0.4}
        for t in tm.dag:
            dur = tm.finish[t] - tm.start[t]
            expected = tm.dag.complexity(t) / surpluses[tm.assignment[t]]
            assert dur == pytest.approx(expected)


class TestFigure4:
    def test_schedule_Sstar_exact(self):
        assert fig4_schedule() == PAPER_FIG4

    def test_mstar_19(self):
        tm = paper_example_trial_mapping()
        assert schedule_sstar(tm).makespan == pytest.approx(19.0)

    def test_mstar_lower_bound_of_m(self):
        tm = paper_example_trial_mapping()
        assert schedule_sstar(tm).makespan <= tm.makespan


class TestTable1:
    def test_all_rows_exact(self):
        got = {t: (r0, d0, r1, d1) for (t, r0, d0, r1, d1) in table1_rows()}
        assert got == PAPER_TABLE1

    def test_case_ii_scaling_factor_2(self):
        tm, adj = paper_example_adjusted()
        assert adj.case == "stretch"
        assert (PAPER_DEADLINE - 0.0) / tm.makespan == pytest.approx(2.0)

    def test_eq3_deadlines_doubled(self):
        """d(ti) = r + (di - r) * (d-r)/M with factor exactly 2."""
        tm, _ = paper_example_adjusted()
        for t in tm.dag:
            assert tm.deadline[t] == pytest.approx(2.0 * tm.finish[t])

    def test_eq5_releases(self):
        """r(ti) = max over preds of d(tj) + omega(pj, pi)."""
        tm, _ = paper_example_adjusted()
        assert tm.release[1] == 0.0
        assert tm.release[2] == 0.0
        # t3 on p1: preds t1 (p1, +0) = 24 and t2 (p2, +3) = 23 -> 24
        assert tm.release[3] == pytest.approx(24.0)
        # t4 on p2: pred t1 (p1, +3) = 27
        assert tm.release[4] == pytest.approx(27.0)
        # t5 on p1: preds t3 (p1, +0) = 42 and t4 (p2, +3) = 43 -> 43
        assert tm.release[5] == pytest.approx(43.0)

    def test_sink_deadline_is_job_deadline(self):
        tm, _ = paper_example_adjusted()
        assert tm.deadline[5] == pytest.approx(PAPER_DEADLINE)

    def test_windows_fit_complexities(self):
        tm, _ = paper_example_adjusted()
        for t in tm.dag:
            assert tm.deadline[t] - tm.release[t] >= tm.dag.complexity(t) - 1e-9

    def test_window_table_consistent(self):
        tm, _ = paper_example_adjusted()
        tm.validate_consistency()
