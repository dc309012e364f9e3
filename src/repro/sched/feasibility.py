"""Non-preemptive insertion-based feasibility tests.

Two tests back the protocol:

* :func:`try_schedule_dag_locally` — the §5 **local test**: schedule the
  whole DAG on this one site, in topological order, each task at the
  earliest gap after its predecessors, and accept iff everything finishes by
  the job deadline. (On a single site there are no communication delays.)

* :func:`try_schedule_window_tasks` — the §10 **local satisfiability** test
  used during Trial-Mapping validation: given a set of tasks with absolute
  windows ``[r(t), d(t)]`` and durations ``c(t)``, find non-overlapping
  slots inside the windows. Tasks are inserted in EDF order (deadline, then
  release, then id) — optimal for the nested/agreeable windows the
  adjustment step produces, and the natural heuristic otherwise.

Both return concrete :class:`Reservation` lists (or ``None``) so a caller
can *commit* exactly what was tested — this is how validation endorsements
stay valid until execution (see DESIGN.md "Lock semantics"). Both probe
only the timeline's live tail (``scratch_arrays(cutoff)``): no task starts
before ``not_before``, so history that ends by then cannot move a slot.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

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


def edf_order(tasks: Sequence[WindowTask]) -> List[WindowTask]:
    """Deterministic EDF ordering: (deadline, release, task id repr)."""
    return sorted(tasks, key=lambda t: (t.deadline, t.release, repr(t.task)))


def llf_order(tasks: Sequence[WindowTask]) -> List[WindowTask]:
    """Least-laxity-first ordering: tightest windows placed first.

    An alternative §10 insertion policy: tasks with the least slack get
    first pick of the gaps, which can rescue sets where a tight window
    hides behind an early deadline. Deterministic tie-breaks as EDF.
    """
    return sorted(tasks, key=lambda t: (t.laxity, t.deadline, repr(t.task)))


_ORDERS = {"edf": edf_order, "llf": llf_order}


def try_schedule_window_tasks(
    timeline: BusyTimeline,
    tasks: Sequence[WindowTask],
    not_before: Time,
    order: str = "edf",
) -> Optional[List[Reservation]]:
    """The §10 local-satisfiability test. Returns slots or ``None``.

    Every task must fit entirely inside ``[max(release, not_before),
    deadline]``. Insertion order is ``"edf"`` (default) or ``"llf"``;
    the input timeline is not modified.
    """
    try:
        ordering = _ORDERS[order]
    except KeyError:
        raise ValueError(f"unknown insertion order {order!r}; known: {sorted(_ORDERS)}") from None
    starts, ends = timeline.scratch_arrays(not_before)
    placed: List[Tuple[Time, WindowTask]] = []
    for t in ordering(tasks):
        lo = max(t.release, not_before)
        start = fit_and_hold(starts, ends, t.duration, lo, t.deadline)
        if start is None:
            return None
        placed.append((start, t))
    return [
        Reservation(
            s, s + t.duration, t.job, t.task, release=t.release, deadline=t.deadline
        )
        for (s, t) in placed
    ]
