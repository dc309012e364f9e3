"""Service ≡ batch differential lockdown (same spirit as serial ≡ pool).

A rate-shaped open-loop stream pushed through the resident service
must reproduce the *identical* ``scalar_metrics`` and per-job decisions
as the same jobs replayed as a fixed list through the batch runner —
both paths submit through ``ResidentNetwork.submit_spec``, so any
divergence means the streaming layer reordered or altered the
simulation. The streams outlast two hygiene intervals, so the service's
pump prunes site state mid-stream while the batch run never runs a
hygiene pass: the identity also pins pruning as decision-neutral.
"""

import pytest

from repro.experiments.runner import (
    ALGORITHMS,
    ExperimentConfig,
    run_experiment,
)
from repro.metrics.summary import scalars_equal
from repro.service import ResidentSimulation
from repro.service.resident import HYGIENE_INTERVAL
from repro.workloads.arrivals import parse_arrival_spec
from repro.workloads.openloop import OpenLoopSpec, open_loop_rate, open_loop_workload

#: stream length: two hygiene passes land inside it, before the drain's
DURATION = 2 * HYGIENE_INTERVAL + 50.0


def _config(seed, algorithm="rtds"):
    return ExperimentConfig(
        topology_kwargs={"n": 12, "p": 0.3, "delay_range": (0.2, 1.0)},
        seed=seed,
        algorithm=algorithm,
    )


def _stream(seed, arrival="auto"):
    if arrival == "auto":
        process = parse_arrival_spec(
            f"poisson:{open_loop_rate(0.5, [1.0] * 12, seed=seed)}"
        )
    else:
        process = parse_arrival_spec(arrival)
    spec = OpenLoopSpec(n_sites=12, process=process, seed=seed + 7)
    return open_loop_workload(spec, DURATION)


def _decisions(records):
    return [(r.job, r.outcome, r.decided_at) for r in records]


def _assert_service_equals_batch(cfg, workload, queue_capacity=64):
    """Push ``workload`` through a service and through the batch runner;
    both must decide every job alike, and a pump's hygiene pass must have
    pruned plan state before the last arrival. Returns the service."""
    batch = run_experiment(cfg, workload=workload)
    res = ResidentSimulation(cfg, queue_capacity=queue_capacity)
    passes = []
    hygiene = res.hygiene

    def recording():
        pruned = hygiene()
        passes.append((res.now, pruned))
        return pruned

    res.hygiene = recording
    for job in workload:
        res.submit(job)
    res.drain()
    assert scalars_equal(batch.scalar_metrics(), res.scalar_metrics())
    assert _decisions(batch.collector.records()) == _decisions(res.resident.metrics.records())
    last_arrival = max(job.arrival for job in workload)
    assert any(pruned for t, pruned in passes if t <= last_arrival), passes
    assert res.stats.decided == len(workload)
    assert res.resident.unfinished_plan_records() == 0
    return res


@pytest.mark.parametrize(
    "arrival",
    ["auto", "mmpp:0.2,3@30,8", "diurnal:120@60@0.7"],
)
@pytest.mark.parametrize("seed", [0, 3])
def test_service_equals_batch(arrival, seed):
    workload = _stream(seed, arrival)
    assert len(workload) > 10, "stream too thin to exercise the protocol"
    _assert_service_equals_batch(_config(seed), workload)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_pruning_is_decision_neutral(algorithm):
    """Every algorithm's sites prune mid-stream without moving a decision."""
    _assert_service_equals_batch(_config(0, algorithm), _stream(0, "mmpp:0.2,3@30,8"))


def test_service_identity_survives_tiny_queue():
    """Backpressure (queue of 2) must not change the simulation at all."""
    res = _assert_service_equals_batch(_config(1), _stream(1), queue_capacity=2)
    assert res.stats.max_queue_depth <= 2


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
