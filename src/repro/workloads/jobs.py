"""Job specifications and workload containers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List

from repro.errors import WorkloadError
from repro.graphs.dag import Dag
from repro.types import JobId, SiteId, Time


@dataclass(frozen=True)
class JobSpec:
    """One sporadic job instance to be injected into a simulation.

    ``deadline`` is absolute (simulation time), per the paper's model of a
    per-DAG deadline ``d``.
    """

    job: JobId
    dag: Dag
    origin: SiteId
    arrival: Time
    deadline: Time

    def __post_init__(self) -> None:
        if self.deadline <= self.arrival:
            raise WorkloadError(
                f"job {self.job}: deadline {self.deadline} <= arrival {self.arrival}"
            )


@dataclass
class Workload:
    """An ordered batch of job specs plus bookkeeping for reports."""

    jobs: List[JobSpec] = field(default_factory=list)

    def __iter__(self) -> Iterator[JobSpec]:
        return iter(sorted(self.jobs, key=lambda j: (j.arrival, j.job)))

    def __len__(self) -> int:
        return len(self.jobs)

    def add(self, spec: JobSpec) -> None:
        self.jobs.append(spec)

    def horizon(self) -> Time:
        """Last arrival time (0 for an empty workload)."""
        return max((j.arrival for j in self.jobs), default=0.0)

    def last_deadline(self) -> Time:
        return max((j.deadline for j in self.jobs), default=0.0)

