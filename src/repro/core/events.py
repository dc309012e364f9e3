"""Job lifecycle records — what the metrics layer consumes.

A :class:`JobRecord` is created at arrival and updated by the scheduler
(any algorithm: RTDS or a baseline) and by the harness-level completion
observer. The *protocol* never reads these records: they are measurement,
not mechanism (the paper's algorithm has no job-completion feedback loop).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.types import JobId, SiteId, TaskId, Time


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
    #: task -> completion time (filled by the completion observer)
    completions: Dict[TaskId, Time] = field(default_factory=dict)

    @property
    def completed(self) -> bool:
        return self.outcome.accepted and len(self.completions) == self.n_tasks

    @property
    def completion_time(self) -> Optional[Time]:
        if not self.completed:
            return None
        return max(self.completions.values())

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
