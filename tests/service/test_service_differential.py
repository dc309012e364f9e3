"""Service ≡ batch differential lockdown (same spirit as serial ≡ pool).

A rate-shaped open-loop stream pushed through the admission service
must reproduce the *identical* ``scalar_metrics`` as the same jobs
replayed as a fixed list through the batch runner — both paths
submit through ``ResidentNetwork.submit_spec``, so any divergence means
the streaming layer reordered or altered the simulation.
"""

import pytest

from repro.experiments.runner import (
    ExperimentConfig,
    run_experiment,
)
from repro.metrics.summary import scalars_equal
from repro.service import AdmissionService, ResidentSimulation
from repro.workloads.arrivals import parse_arrival_spec
from repro.workloads.openloop import OpenLoopSpec, open_loop_rate, open_loop_workload


def _config(seed):
    return ExperimentConfig(
        topology_kwargs={"n": 12, "p": 0.3, "delay_range": (0.2, 1.0)},
        seed=seed,
    )


def _stream(seed, arrival="auto", duration=150.0):
    if arrival == "auto":
        process = parse_arrival_spec(
            f"poisson:{open_loop_rate(0.5, [1.0] * 12, seed=seed)}"
        )
    else:
        process = parse_arrival_spec(arrival)
    spec = OpenLoopSpec(n_sites=12, process=process, seed=seed + 7)
    return open_loop_workload(spec, duration)


def _service_metrics(cfg, workload, queue_capacity=64):
    res = ResidentSimulation(cfg)
    svc = AdmissionService(res, queue_capacity=queue_capacity)
    for job in workload:
        svc.submit(job)
    svc.drain()
    return res, svc


@pytest.mark.parametrize(
    "arrival",
    ["auto", "mmpp:0.2,3@30,8", "diurnal:120@60@0.7"],
)
@pytest.mark.parametrize("seed", [0, 3])
def test_service_equals_batch(arrival, seed):
    cfg = _config(seed)
    workload = _stream(seed, arrival)
    assert len(workload) > 10, "stream too thin to exercise the protocol"
    batch = run_experiment(cfg, workload=workload).scalar_metrics()
    res, svc = _service_metrics(cfg, workload)
    assert scalars_equal(batch, res.scalar_metrics())
    assert svc.stats.decided == len(workload)
    assert res.unfinished_plan_records() == 0


def test_service_identity_survives_tiny_queue():
    """Backpressure (queue of 2) must not change the simulation at all."""
    cfg = _config(1)
    workload = _stream(1)
    batch = run_experiment(cfg, workload=workload).scalar_metrics()
    res, svc = _service_metrics(cfg, workload, queue_capacity=2)
    assert scalars_equal(batch, res.scalar_metrics())
    assert svc.stats.max_queue_depth <= 2


def test_replay_of_batch_workload_is_identical():
    """run_experiment's own workload, replayed through
    run_experiment(workload=...), reproduces the run exactly — pins the
    build_resident/_execute_workload refactor against the monolith."""
    cfg = _config(2)
    first = run_experiment(cfg)
    replay = run_experiment(cfg, workload=first.workload)
    assert scalars_equal(first.scalar_metrics(), replay.scalar_metrics())
    assert first.setup_messages == replay.setup_messages
    assert first.setup_time == replay.setup_time
