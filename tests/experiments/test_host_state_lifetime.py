"""Per-site state has a lifetime: host-side state dies at completion, and
a site keeps no state that grows with the length of a run.

One drained 16-site Montage cell (large DAGs, most tasks with successors
on other sites — the workload that made the per-task leftovers and the
per-site successor maps expensive) is run under ``tracemalloc``. After it

* no site holds a gate, a token waiter, a run-queue entry or forwarding
  info, and ``leaks()`` is empty everywhere;
* what ``sched/executor.py`` and ``core/hosting.py`` still keep alive is
  the finished execution records and little else, measured as bytes per
  finished task. On this cell the pre-lifetime code kept 1254 B per task,
  the current code keeps 320 B; the budget sits between the two, so a new
  per-task leftover of a set, a string or a map entry fails it.

A second 16-site cell (synthetic DAGs, heavy load, so spheres refuse a
lot and target sets vary) runs for 200 and for 800 time units. What
``spheres/pcs.py``, ``core/member.py`` and ``simnet/site.py`` still hold
afterwards must not grow with the run: a per-site memo keyed by target set
(the old broadcast-plan and enrollment-distance memos) grew from 122 to
190 kB on this cell; without it the two runs hold 37 and 35 kB.
"""

import gc
import tracemalloc
from dataclasses import replace

import pytest

from repro.experiments.runner import ExperimentConfig, run_experiment

CELL = ExperimentConfig(
    topology="erdos_renyi",
    topology_kwargs={"n": 16, "p": 0.3, "delay_range": (0.2, 1.0)},
    workload="trace:montage",
    rho=0.7,
    duration=400.0,
    seed=4,
)
HOST_SIDE = ("sched/executor.py", "core/hosting.py")
BYTES_PER_FINISHED_TASK = 600

SPHERE_CELL = ExperimentConfig(
    topology="erdos_renyi",
    topology_kwargs={"n": 16, "p": 0.3, "delay_range": (0.2, 1.0)},
    rho=0.9,
    seed=4,
)
ROUTE_STATE = ("spheres/pcs.py", "core/member.py", "simnet/site.py")
GROWTH_800_OVER_200 = 1.2


def run_and_measure(config, files):
    """(result, bytes still allocated from ``files`` after the run)."""
    gc.collect()
    started_here = not tracemalloc.is_tracing()
    if started_here:
        tracemalloc.start()
    try:
        res = run_experiment(config)
        snapshot = tracemalloc.take_snapshot()
    finally:
        if started_here:
            tracemalloc.stop()
    held = sum(
        stat.size
        for stat in snapshot.statistics("filename")
        if stat.traceback[0].filename.replace("\\", "/").endswith(files)
    )
    return res, held


@pytest.fixture(scope="module")
def drained():
    """(result, bytes still allocated from the two host-side modules)."""
    return run_and_measure(CELL, HOST_SIDE)


@pytest.fixture(scope="module")
def route_state():
    """Bytes the sphere, member and site modules hold after a 200- and an
    800-time-unit run of the same cell."""
    return [
        run_and_measure(replace(SPHERE_CELL, duration=d), ROUTE_STATE)[1]
        for d in (200.0, 800.0)
    ]


def test_cell_exercises_forwarding(drained):
    res, _ = drained
    assert res.summary.n_unfinished == 0
    assert res.network.stats.count["RESULT"] > 100
    assert sum(rec.n_done for rec in res.collector.records()) > 500


def test_no_site_holds_per_task_state_after_the_drain(drained):
    res, _ = drained
    for sid, site in res.network.sites.items():
        ex = site.executor
        held = (
            len(ex._gates) + len(ex._token_waiters) + len(ex._queue)
            + len(ex._early_tokens) + len(site.hosting.exec_info)
        )
        assert held == 0, f"site {sid} still holds {held} entries"
        assert site.leaks() == [], f"site {sid} leaked"


def test_host_side_bytes_per_finished_task_stay_in_budget(drained):
    res, held = drained
    finished = sum(rec.n_done for rec in res.collector.records())
    assert held / finished < BYTES_PER_FINISHED_TASK, (
        f"{held} B held by {HOST_SIDE} for {finished} finished tasks"
    )


def test_site_state_does_not_grow_with_run_length(route_state):
    short, long = route_state
    assert long <= GROWTH_800_OVER_200 * short, (
        f"{ROUTE_STATE} hold {short} B after 200 time units, {long} B after 800"
    )
