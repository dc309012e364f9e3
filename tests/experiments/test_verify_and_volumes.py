"""Execution-audit oracle on every algorithm + the §13 data-volume model."""

from contextlib import contextmanager
from dataclasses import replace

import pytest

from repro.experiments.runner import ExperimentConfig, run_experiment
from repro.experiments.verify import verify_execution

SMALL = ExperimentConfig(
    topology_kwargs={"n": 8, "p": 0.4, "delay_range": (0.2, 0.8)},
    rho=0.6,
    duration=150.0,
    seed=13,
)


class TestAudit:
    @pytest.mark.parametrize("algo", ["rtds", "local", "centralized", "focused", "random"])
    def test_every_algorithm_physically_sound(self, algo):
        res = run_experiment(replace(SMALL, algorithm=algo))
        # focused/random ship whole DAGs -> transfer-delay check trivially
        # holds; rtds/centralized genuinely split jobs across sites.
        assert verify_execution(res) == []

    def test_rtds_heavy_load_still_sound(self):
        res = run_experiment(replace(SMALL, algorithm="rtds", rho=1.3, duration=250.0))
        assert verify_execution(res) == []

    def test_rtds_preemptive_sound(self):
        from repro.core.config import RTDSConfig

        res = run_experiment(
            replace(SMALL, algorithm="rtds", rtds=RTDSConfig(validation_preemptive=True))
        )
        assert verify_execution(res) == []

    def test_audit_detects_planted_violation(self):
        """Sanity: the auditor itself must catch corruption."""
        res = run_experiment(replace(SMALL, algorithm="rtds"))
        # corrupt one executed task's stored facts: stretch the actual end
        # of the first chunk the collector's history holds
        rec = next(r for r in res.collector.records() if r.chunk_spans)
        rec.chunk_spans[1] += 1e9
        # a job now "ends" after everything; overlap check must fire
        issues = verify_execution(res)
        assert issues  # something was flagged


#: long enough that sites forget finished work (one surplus window, 200)
#: well before the end, so the audit can only be reading the collector
LONG = replace(SMALL, algorithm="rtds", duration=500.0)


@pytest.fixture(scope="module", params=[False, True], ids=["nonpreemptive", "preemptive"])
def finished(request):
    from repro.core.config import RTDSConfig

    res = run_experiment(replace(LONG, rtds=RTDSConfig(validation_preemptive=request.param)))
    assert verify_execution(res) == []
    executed = sum(r.n_done for r in res.collector.records())
    remembered = sum(len(s.executor.records()) for s in res.network.sites.values())
    assert remembered < executed, "sites kept the whole run; the cell is too short"
    return res


def _chunks(rec):
    """``(index, task, site, start, end)`` of each chunk in ``rec``'s history."""
    spans = rec.chunk_spans
    return [
        (i, task, site, spans[2 * i], spans[2 * i + 1])
        for i, (task, site) in enumerate(zip(rec.chunk_tasks, rec.chunk_sites))
    ]


def _shift(rec, task, by):
    """Move every chunk of ``task`` by ``by`` (its duration unchanged)."""
    for i, t, _, _, _ in _chunks(rec):
        if t == task:
            rec.chunk_spans[2 * i] += by
            rec.chunk_spans[2 * i + 1] += by


@contextmanager
def _planted(rec, task, spans):
    """``task`` recorded as finished on site 0 after one chunk, then taken out."""
    rec.add_task(task, 0, spans)
    try:
        yield
    finally:
        rec.chunk_tasks.pop()
        rec.chunk_sites.pop()
        del rec.chunk_spans[-2:]
        rec.n_done -= 1


class TestAuditMutations:
    """Each fault, planted in a finished run's collector history, is named."""

    @pytest.fixture
    def res(self, finished):
        # every test plants into its own copy of the history
        saved = {r.job: r.chunk_spans[:] if r.chunk_spans else None for r in finished.collector.records()}
        yield finished
        for r in finished.collector.records():
            if saved.get(r.job) is not None:
                r.chunk_spans[:] = saved[r.job]

    def test_overlapping_chunks_on_one_site(self, res):
        chunks = sorted(
            (start, end, rec, task, site)
            for rec in res.collector.records()
            for _, task, site, start, end in _chunks(rec)
        )
        (a_start, a_end, _, _, site), (b_start, _, rec, task, _) = next(
            (a, b) for a, b in zip(chunks, chunks[1:]) if a[4] == b[4] and a[2:4] != b[2:4]
        )
        # b now starts halfway through a, on the same processor
        _shift(rec, task, (a_start + a_end) / 2 - b_start)
        assert any(f"site {site}: overlapping execution" in i for i in verify_execution(res))

    def test_wrong_duration(self, res):
        rec = next(r for r in res.collector.records() if r.chunk_spans)
        task = rec.chunk_tasks[0]
        rec.chunk_spans[1] -= 0.5 * (rec.chunk_spans[1] - rec.chunk_spans[0])
        assert any(f"task {task!r}: executed for" in i and "c/speed" in i for i in verify_execution(res))

    def test_successor_before_predecessor_end_plus_transfer(self, res):
        dags = {spec.job: spec.dag for spec in res.workload}
        rec, (u, v) = next(
            (r, edge)
            for r in res.collector.records()
            if r.outcome.accepted
            for edge in dags[r.job].edges
        )
        ends = rec.completions
        starts = {task: spans[0][0] for task, _, spans in rec.executions()}
        _shift(rec, v, ends[u] - 1.0 - starts[v])
        assert any(f"job {rec.job}: edge {u}->{v} violated" in i for i in verify_execution(res))

    def test_accepted_job_past_its_deadline(self, res):
        rec = next(r for r in res.collector.records() if r.outcome.accepted)
        last = max(rec.completions.items(), key=lambda kv: kv[1])[0]
        # after everything else: no overlap, no successor, only the deadline
        _shift(rec, last, 1e6)
        assert verify_execution(res) == [
            f"job {rec.job} ({rec.outcome.value}) missed its deadline: "
            f"last chunk ended {rec.completion_time:.6f} > deadline {rec.deadline:.6f}"
        ]

    def test_task_of_a_rejected_job(self, res):
        dags = {spec.job: spec.dag for spec in res.workload}
        rec = next(r for r in res.collector.records() if not r.outcome.accepted)
        task = dags[rec.job].topological_order()[0]
        late = 1e6  # after everything else: no overlap, only the rejection
        with _planted(rec, task, [(late, late + dags[rec.job].complexity(task))]):
            issues = verify_execution(res)
        assert issues == [f"rejected job {rec.job} had tasks executing: [{task!r}]"]

    def test_a_task_its_dag_does_not_know(self, res):
        rec = next(r for r in res.collector.records() if r.outcome.accepted)
        with _planted(rec, "no-such-task", [(1e6, 1e6 + 1.0)]):
            issues = verify_execution(res)
        assert f"job {rec.job}: executed tasks its DAG does not have: ['no-such-task']" in issues

    def test_a_job_the_workload_does_not_know(self, res):
        stray = next(r for r in res.collector.records() if r.chunk_spans)
        res.collector.jobs[10**9] = replace(stray, job=10**9)
        try:
            issues = verify_execution(res)
        finally:
            del res.collector.jobs[10**9]
        assert f"job {10**9} ({stray.outcome.value}) is not in the run's workload" in issues


class TestDataVolumeModel:
    def volume_config(self, **kw):
        return replace(
            SMALL,
            algorithm="rtds",
            link_throughput=5.0,
            data_volume_range=(2.0, 10.0),
            duration=200.0,
            laxity_factor=3.5,
            **kw,
        )

    def test_runs_and_sound(self):
        res = run_experiment(self.volume_config())
        assert res.summary.n_jobs > 0
        assert verify_execution(res) == []

    def test_volume_aware_omega_prevents_misses(self):
        res = run_experiment(self.volume_config())
        assert res.summary.n_missed == 0

    def test_transfers_slow_messages(self):
        """With finite throughput the same workload takes longer on the wire:
        decision latencies grow vs the pure-propagation model."""
        fat = run_experiment(self.volume_config())
        thin = run_experiment(
            replace(self.volume_config(), link_throughput=None)
        )
        assert fat.summary.mean_decision_latency > thin.summary.mean_decision_latency

    def test_volumes_ride_along_serialization(self):
        from repro.workloads.scenarios import WorkloadSpec, generate_workload
        from repro.graphs.transform import with_volumes_factory
        from repro.workloads.scenarios import mixed_dag_factory

        spec = WorkloadSpec(
            n_sites=4,
            rho=0.5,
            duration=50.0,
            dag_factory=with_volumes_factory(mixed_dag_factory("small"), (1.0, 4.0)),
            seed=3,
        )
        wl = generate_workload(spec)
        for j in wl:
            assert all(1.0 <= j.dag.task(t).data_volume <= 4.0 for t in j.dag)
