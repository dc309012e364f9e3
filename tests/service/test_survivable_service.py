"""Service hardening: the degraded breaker, fault arming."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.events import JobOutcome, JobRecord
from repro.errors import ConfigError
from repro.experiments.runner import ExperimentConfig
from repro.faults import FaultPlan
from repro.metrics.summary import scalars_equal
from repro.service import AdmissionService, ResidentSimulation
from repro.workloads.jobs import JobSpec
from repro.workloads.scenarios import mixed_dag_factory

import numpy as np


def _config(seed=0, faults=None, routing="protocol"):
    return ExperimentConfig(
        topology_kwargs={"n": 8, "p": 0.4, "delay_range": (0.2, 1.0)},
        seed=seed,
        faults=faults,
        routing_mode=routing,
    )


def _job(i, res, deadline=60.0, delay=0.0):
    dag = mixed_dag_factory("small")(np.random.default_rng(i))
    at = res.now + delay
    return JobSpec(job=i, dag=dag, origin=i % 8, arrival=at, deadline=at + deadline)


# -- degraded breaker --------------------------------------------------------


def _decision(i, accepted):
    return JobRecord(
        job=i, origin=0, arrival=float(i), deadline=float(i) + 10.0,
        n_tasks=1, total_work=1.0,
        outcome=JobOutcome.ACCEPTED_LOCAL if accepted else JobOutcome.REJECTED_VALIDATION,
        decided_at=float(i),
    )


def _breaker_service(floor=0.5, window=10):
    res = ResidentSimulation(_config())
    return res, AdmissionService(
        res, queue_capacity=8, degraded_floor=floor, degraded_window=window
    )


def test_breaker_validates_params():
    res = ResidentSimulation(_config())
    with pytest.raises(ConfigError):
        AdmissionService(res, degraded_floor=1.5)
    with pytest.raises(ConfigError):
        AdmissionService(res, degraded_floor=0.5, degraded_window=0)


def test_breaker_needs_full_window():
    """A cold window never trips, even on consecutive rejects."""
    _, svc = _breaker_service(floor=0.5, window=10)
    for i in range(9):
        svc._on_decide(_decision(i, accepted=False))
    assert not svc.degraded


def test_breaker_trips_and_recovers():
    res, svc = _breaker_service(floor=0.5, window=10)
    for i in range(10):
        svc._on_decide(_decision(i, accepted=False))
    assert svc.degraded
    assert svc.stats.degraded_entered == 1
    # while open, submit_nowait sheds without queueing
    job = _job(100, res)
    assert svc.submit_nowait(job) is False
    assert svc.stats.shed_degraded == 1
    assert svc.queue_depth == 0
    # a run of accepts closes it again
    for i in range(10, 20):
        svc._on_decide(_decision(i, accepted=True))
    assert not svc.degraded
    assert svc.stats.degraded_entered == 1
    assert svc.submit_nowait(_job(101, res)) is True


def test_breaker_closes_after_shedding_a_window():
    """Shed jobs are never decided, so decisions cannot close an open
    breaker once the queue is empty; shedding one window's worth of jobs
    does, on a cleared window. Driven through submit_nowait/pump only."""
    res, svc = _breaker_service(floor=0.5, window=4)
    # four jobs no site can hold (deadline far below the DAG's length),
    # then one later arrival whose pump lets the four be decided
    for i in range(4):
        assert svc.submit_nowait(_job(i, res, deadline=0.01)) is True
    assert svc.submit_nowait(_job(4, res, delay=50.0)) is True
    svc.pump()
    assert svc.stats.rejected >= 4
    assert svc.degraded and svc.stats.degraded_entered == 1
    # open with an empty queue: it sheds exactly one window, then closes
    shed = [svc.submit_nowait(_job(10 + i, res, delay=1.0)) for i in range(4)]
    assert shed == [False] * 4
    assert svc.stats.shed_degraded == 4
    assert not svc.degraded
    assert svc.submit_nowait(_job(20, res, delay=1.0)) is True
    # the cleared window must fill again before the breaker can re-trip
    svc.drain()
    assert svc.stats.degraded_entered == 1
    assert svc.stats.decided == svc.stats.submitted == 6


def test_breaker_off_by_default():
    res = ResidentSimulation(_config())
    svc = AdmissionService(res, queue_capacity=8)
    for i in range(50):
        svc._on_decide(_decision(i, accepted=False))
    assert not svc.degraded
    assert svc.submit_nowait(_job(200, res)) is True


# -- fault arming through the service ---------------------------------------


def test_fault_horizon_threads_to_arming():
    plan = FaultPlan.from_spec("joins=1,join_links=2")
    res = ResidentSimulation(
        _config(faults=plan, routing="oracle"), fault_horizon=500.0
    )
    assert res.resident.membership is not None
    events = res.resident.membership.events
    assert events and all(0.0 <= e.time <= 500.0 for e in events)


@given(seed=st.integers(min_value=0, max_value=50))
@settings(max_examples=8, deadline=None)
def test_zero_plan_service_run_is_noop(seed):
    """Property: a zero fault plan through the resident service is a
    bit-for-bit no-op against the plan-less service run."""

    def run(faults):
        res = ResidentSimulation(_config(seed=seed, faults=faults))
        svc = AdmissionService(res, queue_capacity=32)
        for i in range(20):
            svc.submit(_job(i, res))
        svc.drain()
        return res.scalar_metrics()

    assert scalars_equal(run(None), run(FaultPlan()))
