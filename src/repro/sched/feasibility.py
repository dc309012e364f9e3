"""Non-preemptive insertion-based feasibility: the §5 local test.

:func:`try_schedule_dag_locally` schedules the whole DAG on this one site,
in topological order, each task at the earliest gap after its
predecessors, and accepts iff everything finishes by the job deadline. (On
a single site there are no communication delays.) It returns concrete
:class:`Reservation` lists (or ``None``) so a caller can *commit* exactly
what was tested, and probes only the timeline's live tail
(``scratch_arrays(cutoff)``): no task starts before ``not_before``, so
history that ends by then cannot move a slot.

:class:`WindowTask` is the input of the preemptive §10 test
(:mod:`repro.sched.preemptive`); the non-preemptive §10 test runs on the
validation payload's flat entries
(:func:`repro.core.validation.endorse_mapping`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.graphs.dag import Dag
from repro.sched.intervals import BusyTimeline, Reservation
from repro.sched.soa import fit_and_hold
from repro.types import JobId, TaskId, Time


class WindowTask:
    """A task with an absolute execution window (validation input).

    ``release``/``deadline`` are the adjusted r(t), d(t) of the
    Trial-Mapping; ``duration`` is the raw complexity c(t) (execution on an
    identical machine takes c, the surplus scaling was only a mapping-time
    estimate).

    Hand-rolled ``__slots__`` class: validation constructs one per task per
    tested logical processor, which puts construction cost on the protocol
    hot path. Treat instances as immutable.
    """

    __slots__ = ("job", "task", "duration", "release", "deadline")

    def __init__(
        self, job: JobId, task: TaskId, duration: Time, release: Time, deadline: Time
    ) -> None:
        if duration <= 0:
            raise ValueError(f"task {task!r}: duration must be > 0")
        self.job = job
        self.task = task
        self.duration = duration
        self.release = release
        self.deadline = deadline

    @property
    def laxity(self) -> Time:
        return (self.deadline - self.release) - self.duration

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WindowTask(job={self.job!r}, task={self.task!r}, "
            f"duration={self.duration!r}, release={self.release!r}, "
            f"deadline={self.deadline!r})"
        )


def try_schedule_dag_locally(
    timeline: BusyTimeline,
    dag: Dag,
    job: JobId,
    release: Time,
    deadline: Time,
    not_before: Time,
    speed: float = 1.0,
) -> Optional[List[Reservation]]:
    """The §5 local test. Returns reservations or ``None`` if infeasible.

    Tasks are placed in (deterministic) topological order; each starts no
    earlier than ``max(release, not_before, finish of its predecessors)``
    at the earliest gap of the (scratch) timeline, and the whole job must
    finish by ``deadline``. The input ``timeline`` is not modified.
    ``speed`` scales durations to ``c/speed`` (§13 uniform machines)
    without materializing a rescaled DAG.
    """
    scale = abs(speed - 1.0) > 1e-12
    floor = max(release, not_before)
    # every probe starts at or after ``floor``: the history before it is moot
    starts, ends = timeline.scratch_arrays(floor)
    finish: Dict[TaskId, Time] = {}
    placed: List[Tuple[Time, Time, TaskId, Time]] = []
    for tid in dag.topological_order():
        ready = floor
        for p in dag.predecessors(tid):
            ready = max(ready, finish[p])
        c = dag.complexity(tid)
        if scale:
            c = c / speed
        start = fit_and_hold(starts, ends, c, ready, deadline)
        if start is None:
            return None
        finish[tid] = start + c
        placed.append((start, c, tid, ready))
    return [
        Reservation(s, s + c, job, tid, release=ready, deadline=deadline)
        for (s, c, tid, ready) in placed
    ]
