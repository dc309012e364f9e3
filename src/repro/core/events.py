"""Job lifecycle records — what the metrics layer consumes.

A :class:`JobRecord` is created at arrival and updated by the scheduler
(any algorithm: RTDS or a baseline) and by the harness-level completion
observer. The *protocol* never reads these records: they are measurement,
not mechanism (the paper's algorithm has no job-completion feedback loop).

A record is also the run's one history of what each of its tasks did: the
site it ran on and its actual ``(start, end)`` chunk spans, kept as flat
arrays (no object per task) from the first completion on. Sites forget
finished work after one surplus window; the post-run audit
(:mod:`repro.experiments.verify`) reads this history instead.
"""

from __future__ import annotations

import enum
from array import array
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.errors import ReproError
from repro.types import JobId, SiteId, TaskId, Time

Span = Tuple[Time, Time]


class JobOutcome(enum.Enum):
    """Final classification of one job."""

    PENDING = "pending"
    #: guaranteed on the arrival site by the local test
    ACCEPTED_LOCAL = "accepted_local"
    #: guaranteed on an ACS through the distributed protocol
    ACCEPTED_DISTRIBUTED = "accepted_distributed"
    #: no sphere available / ACS empty
    REJECTED_NO_SPHERE = "rejected_no_sphere"
    #: case (i): M* > d - r
    REJECTED_MAPPER = "rejected_mapper"
    #: validation coupling smaller than |U|
    REJECTED_VALIDATION = "rejected_validation"
    #: deadline passed while the job waited for a lock / protocol budget
    REJECTED_TIMEOUT = "rejected_timeout"
    #: arrival site was partitioned by fault injection; the job never
    #: reached a scheduler (counted against the guarantee ratio — churn
    #: must not make the metric look better by shrinking the denominator)
    LOST_SITE_DOWN = "lost_site_down"
    #: arrival site was up but its centralized coordinator was partitioned;
    #: no successor takes over, so the job had nowhere to go (also counted
    #: against the guarantee ratio)
    LOST_COORDINATOR = "lost_coordinator"

    @property
    def accepted(self) -> bool:
        return self in (JobOutcome.ACCEPTED_LOCAL, JobOutcome.ACCEPTED_DISTRIBUTED)


@dataclass
class JobRecord:
    """Measurement record of one job instance."""

    job: JobId
    origin: SiteId
    arrival: Time
    deadline: Time
    n_tasks: int
    total_work: float
    outcome: JobOutcome = JobOutcome.PENDING
    #: when the accept/reject decision was made
    decided_at: Optional[Time] = None
    #: sites hosting at least one task (after acceptance)
    hosts: List[SiteId] = field(default_factory=list)
    #: |ACS| during the protocol run (RTDS only)
    acs_size: Optional[int] = None
    #: execution history, one entry per executed chunk in completion order
    #: (a split task's chunks are adjacent, in start order): the task and
    #: its site here, its actual start and end at ``2i`` and ``2i + 1`` of
    #: ``chunk_spans``. Empty tuples until the first completion — rejected
    #: jobs never pay for the arrays. Appended by :meth:`add_task` only.
    chunk_tasks: Union[List[TaskId], Tuple[()]] = ()
    chunk_sites: Union[array, Tuple[()]] = ()
    chunk_spans: Union[array, Tuple[()]] = ()
    #: finished tasks (a split task is one task, several chunks)
    n_done: int = 0

    def add_task(self, task: TaskId, site: SiteId, spans: Sequence[Span]) -> None:
        """Record that ``task`` finished on ``site`` after running ``spans``
        (its actual chunks, in start order)."""
        if not self.chunk_tasks:
            self.chunk_tasks, self.chunk_sites, self.chunk_spans = [], array("i"), array("d")
        elif task in self.chunk_tasks:
            raise ReproError(f"job {self.job} task {task!r} completed twice")
        if not spans:
            raise ReproError(f"job {self.job} task {task!r} completed without running")
        tasks, sites, flat = self.chunk_tasks, self.chunk_sites, self.chunk_spans
        for start, end in spans:
            tasks.append(task)
            sites.append(site)
            flat.append(start)
            flat.append(end)
        self.n_done += 1

    def executions(self) -> Iterator[Tuple[TaskId, SiteId, List[Span]]]:
        """``(task, site, actual chunk spans)`` per finished task, in
        completion order — rebuilt on each read."""
        tasks, sites, flat = self.chunk_tasks, self.chunk_sites, self.chunk_spans
        i, n = 0, len(tasks)
        while i < n:
            task, j = tasks[i], i + 1
            while j < n and tasks[j] == task:
                j += 1
            yield task, sites[i], [(flat[2 * k], flat[2 * k + 1]) for k in range(i, j)]
            i = j

    @property
    def completions(self) -> Dict[TaskId, Time]:
        """task -> actual completion time, built from the history on each
        read (a split task completes at the end of its last chunk)."""
        return dict(zip(self.chunk_tasks, self.chunk_spans[1::2]))

    @property
    def completed(self) -> bool:
        return self.outcome.accepted and self.n_done == self.n_tasks

    @property
    def completion_time(self) -> Optional[Time]:
        if not self.completed:
            return None
        return max(self.chunk_spans[1::2])

    @property
    def met_deadline(self) -> Optional[bool]:
        """True/False once completed; None while running or if rejected."""
        ct = self.completion_time
        if ct is None:
            return None
        return ct <= self.deadline + 1e-9

    @property
    def decision_latency(self) -> Optional[Time]:
        if self.decided_at is None:
            return None
        return self.decided_at - self.arrival


def count_event(metrics, name: str) -> None:
    """Count a named protocol event on ``metrics`` — a collector, a stub
    that does not count events, or None (no collector attached)."""
    if metrics is not None and hasattr(metrics, "count_event"):
        metrics.count_event(name)
