"""Service hardening: the degraded breaker, fault arming."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.events import JobOutcome, JobRecord
from repro.errors import ConfigError
from repro.experiments.runner import ExperimentConfig
from repro.faults import FaultPlan
from repro.metrics.summary import scalars_equal
from repro.service import ResidentSimulation
from repro.service.resident import DEGRADED_WINDOW
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


def _breaker_service(floor=0.5, queue_capacity=8):
    return ResidentSimulation(_config(), queue_capacity=queue_capacity, degraded_floor=floor)


def test_breaker_validates_params():
    with pytest.raises(ConfigError, match="degraded_floor must be in"):
        ResidentSimulation(_config(), degraded_floor=1.5)


def test_breaker_needs_full_window():
    """A cold window never trips, even on consecutive rejects."""
    res = _breaker_service(floor=0.5)
    for i in range(DEGRADED_WINDOW - 1):
        res._on_decide(_decision(i, accepted=False))
    assert not res.degraded


def test_breaker_trips_and_recovers():
    res = _breaker_service(floor=0.5)
    for i in range(DEGRADED_WINDOW):
        res._on_decide(_decision(i, accepted=False))
    assert res.degraded
    assert res.stats.degraded_entered == 1
    # while open, submit_nowait sheds without queueing
    job = _job(100, res)
    assert res.submit_nowait(job) is False
    assert res.stats.shed_degraded == 1
    assert res.queue_depth == 0
    # a window's majority of accepts closes it again
    for i in range(DEGRADED_WINDOW // 2 + 1):
        res._on_decide(_decision(DEGRADED_WINDOW + i, accepted=True))
    assert not res.degraded
    assert res.stats.degraded_entered == 1
    assert res.submit_nowait(_job(101, res)) is True


def test_breaker_closes_after_shedding_a_window():
    """Shed jobs are never decided, so decisions cannot close an open
    breaker once the queue is empty; shedding one window's worth of jobs
    does, on a cleared window. Driven through submit_nowait/pump only."""
    n = DEGRADED_WINDOW
    res = _breaker_service(floor=0.5, queue_capacity=n + 1)
    # a window of jobs no site can hold (deadline far below the DAG's
    # length), then one later arrival whose pump lets them be decided
    for i in range(n):
        assert res.submit_nowait(_job(i, res, deadline=0.01)) is True
    assert res.submit_nowait(_job(n, res, delay=50.0)) is True
    res.pump()
    assert res.stats.rejected >= n
    assert res.degraded and res.stats.degraded_entered == 1
    # open with an empty queue: it sheds exactly one window, then closes
    shed = [res.submit_nowait(_job(n + 1 + i, res, delay=1.0)) for i in range(n)]
    assert shed == [False] * n
    assert res.stats.shed_degraded == n
    assert not res.degraded
    assert res.submit_nowait(_job(2 * n + 1, res, delay=1.0)) is True
    # the cleared window must fill again before the breaker can re-trip
    res.drain()
    assert res.stats.degraded_entered == 1
    assert res.stats.decided == res.stats.submitted == n + 2


def test_breaker_off_by_default():
    res = ResidentSimulation(_config(), queue_capacity=8)
    for i in range(2 * DEGRADED_WINDOW):
        res._on_decide(_decision(i, accepted=False))
    assert not res.degraded
    assert res.submit_nowait(_job(200, res)) is True


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
        res = ResidentSimulation(_config(seed=seed, faults=faults), queue_capacity=32)
        for i in range(20):
            res.submit(_job(i, res))
        res.drain()
        return res.scalar_metrics()

    assert scalars_equal(run(None), run(FaultPlan()))
