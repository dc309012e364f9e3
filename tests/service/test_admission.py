"""Admission intake behavior: backpressure, shedding, decisions, drain."""

import pytest

from repro.core.events import JobOutcome
from repro.errors import ConfigError
from repro.experiments.runner import ExperimentConfig
from repro.service import ResidentSimulation
from repro.workloads.arrivals import PoissonProcess
from repro.workloads.openloop import OpenLoopSpec, open_loop_workload


def _config(seed=0):
    return ExperimentConfig(
        topology_kwargs={"n": 8, "p": 0.4, "delay_range": (0.2, 1.0)},
        seed=seed,
    )


def _jobs(n=30, seed=0):
    spec = OpenLoopSpec(n_sites=8, process=PoissonProcess(1.0), seed=seed)
    wl = open_loop_workload(spec, 2000.0)
    return list(wl)[:n]


def test_submit_nowait_sheds_when_full():
    res = ResidentSimulation(_config(), queue_capacity=4)
    jobs = _jobs(8)
    accepted = [res.submit_nowait(j) for j in jobs]
    # nothing pumped yet: the first 4 fill the queue, the rest shed
    assert accepted == [True] * 4 + [False] * 4
    assert res.stats.queue_full == 4
    assert res.stats.submitted == 4
    res.drain()
    assert res.stats.decided == 4


def _submit_all(jobs, queue_capacity):
    """Backpressured intake of ``jobs`` into a fresh service, drained."""
    res = ResidentSimulation(_config(), queue_capacity=queue_capacity)
    for j in jobs:
        res.submit(j)
    res.drain()
    return res


def test_backpressure_bounds_queue_depth():
    res = _submit_all(_jobs(40), queue_capacity=3)
    assert res.stats.max_queue_depth <= 3
    assert res.stats.backpressure_waits > 0
    assert res.stats.decided == 40


def test_every_job_is_decided_at_or_after_its_arrival():
    jobs = _jobs(10)
    res = _submit_all(jobs, queue_capacity=16)
    records = res.resident.metrics.jobs
    assert sorted(records) == sorted(j.job for j in jobs)
    for rec in records.values():
        assert rec.outcome is not JobOutcome.PENDING
        assert rec.decided_at is not None
        assert rec.decided_at >= rec.arrival


def test_drain_is_idempotent_and_closes_intake():
    res = ResidentSimulation(_config(), queue_capacity=8)
    for j in _jobs(5):
        res.submit(j)
    res.drain()
    res.drain()  # second drain: no-op
    with pytest.raises(ConfigError):
        res.submit(_jobs(6)[5])
    with pytest.raises(ConfigError):
        res.submit_nowait(_jobs(6)[5])
    assert res.stats.decided == 5
    assert res.resident.unfinished_plan_records() == 0


def test_latency_timer_sees_every_decision():
    res = _submit_all(_jobs(20), queue_capacity=16)
    assert res.latency.count == 20
    assert res.latency.min >= 0.0


def test_queue_capacity_validated():
    with pytest.raises(ConfigError, match="queue_capacity must be >= 1"):
        ResidentSimulation(_config(), queue_capacity=0)
