"""A task costs its numbers — bytes per task under ``tracemalloc``.

Memory should grow with the work in flight, not with the length of the
run. On the 24-site Montage cell below (Python 3.11):

* the executor keeps a finished task as its reservation (the plan's own
  object) and two floats on a flat log, not as an ``ExecutionRecord`` with
  its chunk list, ``actual`` list, ``(start, end)`` tuple and a ``(job,
  task)`` key in two containers. What ``repro/sched/`` still holds after
  the run cost 457 B per executed task with the per-task objects and costs
  172 B without them;
* a generated job keeps its weights as one tuple of floats over its
  shape's shared id map, not a ``Task`` dataclass (with its ``__dict__``)
  per task in a dict: 237 B per generated task with them, 111 B without.

Each budget sits between the two figures. Measured with ``tracemalloc``,
not RSS, so it passes the same on any box.
"""

import gc
import tracemalloc

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
SCHED_BYTES_PER_EXECUTED_TASK = 300
WORKLOAD_BYTES_PER_TASK = 170


def test_the_executor_keeps_a_finished_task_in_at_most_300_bytes():
    tracemalloc.start()
    try:
        res = api.run(CELL)
        gc.collect()
        stats = tracemalloc.take_snapshot().statistics("filename")
    finally:
        tracemalloc.stop()
    held = sum(s.size for s in stats if "/repro/sched/" in s.traceback[0].filename.replace("\\", "/"))
    executed = sum(len(site.executor.records()) for site in res.network.sites.values())
    assert executed > 2000  # the bound is per task, so the run must do work
    assert all(site.executor.n_unfinished() == 0 for site in res.network.sites.values())
    per_task = held / executed
    assert per_task <= SCHED_BYTES_PER_EXECUTED_TASK, f"{per_task:.0f} B per executed task"


def test_a_generated_job_keeps_its_tasks_in_at_most_170_bytes_each():
    resident = build_resident(CELL)
    _generate_batch_workload(CELL, resident)  # warm the per-shape caches
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        workload = _generate_batch_workload(CELL, resident)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    tasks = sum(len(job.dag) for job in workload.jobs)
    assert tasks > 3000
    per_task = held / tasks
    assert per_task <= WORKLOAD_BYTES_PER_TASK, f"{per_task:.0f} B per generated task"
