"""A task costs its numbers — bytes per task under ``tracemalloc``.

Memory should grow with the work in flight, not with the length of the
run. On the 24-site Montage cell below (Python 3.11, 2208 executed tasks):

* the executor keeps a finished task as its reservation (the plan's own
  object) and two floats on a flat log, not as an ``ExecutionRecord`` with
  its chunk list, ``actual`` list, ``(start, end)`` tuple and a ``(job,
  task)`` key in two containers. What ``repro/sched/`` still holds after
  the run cost 457 B per executed task with the per-task objects and costs
  172 B without them;
* a site keeps one surplus window of finished work — each completion drops
  what ended a window ago from the executor's log and the plan's timeline —
  and each task's execution is recorded once, in the collector's job
  record, as its site and chunk spans in flat arrays. What ``repro/sched/``,
  ``repro/metrics/`` and ``repro/core/events.py`` (where those records
  append their arrays) hold after the run: 218 B per executed task while
  every site kept its whole history next to a completion dict per job,
  125 B since;
* a generated job keeps its weights as one tuple of floats over its
  shape's shared id map, not a ``Task`` dataclass (with its ``__dict__``)
  per task in a dict: 237 B per generated task with them, 111 B without;
* and only what a reader needs: its critical-path length as one float,
  not the bottom-level map it is read off, and no raw edge list (the sorted
  edge tuple is built from the adjacency when first read); a random job's
  id map is the one its size shares. Montage jobs (re-weighted shapes, so
  only the bottom-level map goes): 111 B per generated task before, 48 B
  after. The small synthetic mix of the E9 macro cell (random layered and
  Erdős–Rényi graphs beside the fixed shapes): 320 B, 191 B;
* and a job keeps no analysis map after it is mapped: the mapper builds
  the bottom levels and the topo-order index afresh for each mapping
  instead of memoising them on the ``Dag``. What ``repro/graphs/`` holds
  when the run returns: 84 B per generated task with the memos, 35 B
  without.

The byte counts above are taken after one full collection, except the
last: the run pauses the cyclic collector for its whole loop, so it is
measured as the run left it. That collection used to hide what a run
kept alive in reference cycles until it ended (every §10 coupling left
one); ``tests/experiments/test_run_garbage.py`` now holds every run to
none.

Each budget sits between the two figures. Measured with ``tracemalloc``,
not RSS, so it passes the same on any box. Executed tasks are counted from
the collector's history: the sites no longer remember them all.
"""

import gc
import tracemalloc

import pytest

from repro import api
from repro.experiments.runner import ExperimentConfig, _generate_batch_workload, build_resident

CELL = ExperimentConfig(
    topology="erdos_renyi",
    topology_kwargs={"n": 24, "p": 4 / 23, "delay_range": (0.2, 1.0)},
    rho=0.7,
    duration=600.0,
    seed=0,
    workload="trace:montage",
)
#: the E9 macro cell: 48 sites, the small synthetic mix
E9_CELL = ExperimentConfig(
    topology="erdos_renyi",
    topology_kwargs={"n": 48, "p": 4 / 47, "delay_range": (0.2, 1.0)},
    rho=0.7,
    duration=3000.0,
    seed=0,
)
SCHED_BYTES_PER_EXECUTED_TASK = 300
HISTORY_BYTES_PER_EXECUTED_TASK = 170
GRAPH_BYTES_PER_GENERATED_TASK = 60
#: (cell, tasks it generates at least, bytes per generated task)
WORKLOAD_BUDGETS = {
    "montage": (CELL, 3000, 80),
    "synthetic-small": (E9_CELL, 20000, 250),
}


def _holder(stats):
    """``held(*parts)``: the bytes ``stats`` charges to files whose path
    contains any of ``parts``."""

    def held(*parts):
        return sum(
            s.size
            for s in stats
            if any(p in s.traceback[0].filename.replace("\\", "/") for p in parts)
        )

    return held


@pytest.fixture(scope="module")
def cell_run():
    """The cell's finished run, and what each ``repro`` file holds after
    it: as the run left it (``raw``, the collector still paused, as it is
    for the whole loop) and after one full collection (``collected``)."""
    gc.collect()
    tracemalloc.start()
    try:
        gc.disable()
        try:
            res = api.run(CELL)
            raw = tracemalloc.take_snapshot().statistics("filename")
        finally:
            gc.enable()
        gc.collect()
        collected = tracemalloc.take_snapshot().statistics("filename")
    finally:
        tracemalloc.stop()
    return res, _holder(raw), _holder(collected)


@pytest.fixture(scope="module")
def drained(cell_run):
    """The number of tasks the cell executed, and what each ``repro`` file
    still holds after a full collection."""
    res, _, held = cell_run
    executed = sum(rec.n_done for rec in res.collector.records())
    assert executed > 2000  # the bounds are per task, so the run must do work
    assert all(site.executor.n_unfinished() == 0 for site in res.network.sites.values())
    return executed, held


def test_the_executor_keeps_a_finished_task_in_at_most_300_bytes(drained):
    executed, held = drained
    per_task = held("/repro/sched/") / executed
    assert per_task <= SCHED_BYTES_PER_EXECUTED_TASK, f"{per_task:.0f} B per executed task"


def test_plans_executors_and_the_collector_keep_an_executed_task_in_at_most_170_bytes(drained):
    executed, held = drained
    per_task = held("/repro/sched/", "/repro/metrics/", "/repro/core/events.py") / executed
    assert per_task <= HISTORY_BYTES_PER_EXECUTED_TASK, f"{per_task:.0f} B per executed task"


def test_a_run_leaves_at_most_60_graph_bytes_per_generated_task(cell_run):
    """What ``repro/graphs/`` holds when the run returns, before any
    collection: the jobs themselves, and no per-job analysis map."""
    res, held, _ = cell_run
    tasks = sum(len(job.dag) for job in res.workload.jobs)
    per_task = held("/repro/graphs/") / tasks
    assert per_task <= GRAPH_BYTES_PER_GENERATED_TASK, f"{per_task:.0f} B per generated task"


@pytest.mark.parametrize("mix", sorted(WORKLOAD_BUDGETS))
def test_generated_job_bytes_per_task(mix):
    """A generated job keeps each task in at most its mix's budget."""
    cell, min_tasks, budget = WORKLOAD_BUDGETS[mix]
    resident = build_resident(cell)
    _generate_batch_workload(cell, resident)  # warm the per-shape caches
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        workload = _generate_batch_workload(cell, resident)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    tasks = sum(len(job.dag) for job in workload.jobs)
    assert tasks > min_tasks
    per_task = held / tasks
    assert per_task <= budget, f"{per_task:.0f} B per generated task"
