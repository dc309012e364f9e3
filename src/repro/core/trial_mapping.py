"""The Trial-Mapping structure (paper §9).

A Trial-Mapping ``M`` is the triple of functions the paper defines:

* ``S : T → U`` — task to *logical processor* (``assignment``);
* ``r : T → R+`` — per-task release (``release``);
* ``d : T → R+`` — per-task deadline (``deadline``);

plus everything this reproduction keeps alongside so validation and the
benches can inspect the intermediate schedules: the surplus-scaled schedule
``S`` (``start``/``finish`` = the paper's ``ri``/``di``), the optimistic
schedule ``S*``, makespans ``M``/``M*``, the ACS diameter ω used for the
communication over-estimate, and the logical-processor specs.

Logical processors are indexed ``0..|U|-1`` by **descending surplus** —
"a list of sites with their associated surplus in descending order" (§9).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import MappingError
from repro.graphs.dag import Dag
from repro.sched.intervals import BusyTimeline
from repro.types import EPS, JobId, LogicalProc, TaskId, Time


@dataclass(frozen=True)
class LogicalProcSpec:
    """What the Mapper knows about one logical processor.

    ``surplus`` — the paper's ``I`` (idle fraction) of the candidate site;
    ``speed`` — §13 uniform-machines computing power (1.0 = identical);
    ``busyness`` — ``1 - surplus`` of the candidate (laxity dispatching);
    ``timeline`` — §13 local-knowledge: the initiator's own idle intervals
    (only ever set for the initiator's candidate processor; the mapper
    reads it and never writes to it).
    """

    index: LogicalProc
    surplus: float
    speed: float = 1.0
    busyness: float = 0.0
    timeline: Optional[BusyTimeline] = None

    def __post_init__(self) -> None:
        if not 0.0 < self.surplus <= 1.0:
            raise MappingError(
                f"logical proc {self.index}: surplus must be in (0, 1], got {self.surplus}"
            )
        if self.speed <= 0:
            raise MappingError(
                f"logical proc {self.index}: speed must be > 0, got {self.speed}"
            )

    def estimated_duration(self, complexity: float) -> float:
        """Mapping-time duration estimate: c / (I · speed) (§12, eq. (1))."""
        return complexity / (self.surplus * self.speed)

    def optimistic_duration(self, complexity: float) -> float:
        """S* duration: 100% surplus, real speed — c / speed (§12.2)."""
        return complexity / self.speed


@dataclass
class TrialMapping:
    """A complete Trial-Mapping plus its construction by-products."""

    job: JobId
    dag: Dag
    procs: List[LogicalProcSpec]
    #: S : T → U
    assignment: Dict[TaskId, LogicalProc]
    #: the ri of the surplus-scaled schedule S
    start: Dict[TaskId, Time]
    #: the di of S  (di = ri + c/I, eq. (1))
    finish: Dict[TaskId, Time]
    #: ACS delay diameter ω used as the communication over-estimate
    omega: Time
    #: job release used during mapping (arrival + protocol margin, §13)
    job_release: Time
    #: adjusted r(ti) — filled by the adjustment step
    release: Dict[TaskId, Time] = field(default_factory=dict)
    #: adjusted d(ti) — filled by the adjustment step
    deadline: Dict[TaskId, Time] = field(default_factory=dict)

    # -- derived -----------------------------------------------------------

    @property
    def makespan(self) -> Time:
        """The paper's M: latest finish of S relative to the job release."""
        return max(self.finish.values()) - self.job_release

    def used_procs(self) -> List[LogicalProc]:
        """Logical processors that received at least one task — the paper's
        U (empty processors do not take part in validation)."""
        return sorted(set(self.assignment.values()))

    def tasks_on(self, proc: LogicalProc) -> List[TaskId]:
        """T_i = tasks assigned to logical processor ``proc``, in S order."""
        ts = [t for t, p in self.assignment.items() if p == proc]
        ts.sort(key=lambda t: (self.start[t], repr(t)))
        return ts

    def comm_delay(self, pred: TaskId, succ: TaskId) -> Time:
        """ω(p(t_pred), p(t_succ)): the ACS diameter if the tasks sit on
        different logical processors, 0 otherwise (§12)."""
        return 0.0 if self.assignment[pred] == self.assignment[succ] else self.omega

    def adjusted(self) -> bool:
        return bool(self.release) and bool(self.deadline)

    def window_table(self) -> List[Tuple[TaskId, Time, Time, Time, Time]]:
        """Rows of the paper's Table 1: (task, ri, di, r(ti), d(ti))."""
        if not self.adjusted():
            raise MappingError("trial mapping not adjusted yet")
        return [
            (t, self.start[t], self.finish[t], self.release[t], self.deadline[t])
            for t in self.dag.topological_order()
        ]

    def validate_consistency(self) -> None:
        """Internal invariants (used by tests/property checks)."""
        for t in self.dag:
            if t not in self.assignment:
                raise MappingError(f"task {t!r} not assigned")
            p = self.assignment[t]
            if not 0 <= p < len(self.procs):
                raise MappingError(f"task {t!r} assigned to unknown proc {p}")
            spec = self.procs[p]
            dur = spec.estimated_duration(self.dag.complexity(t))
            if spec.timeline is None and abs(
                (self.finish[t] - self.start[t]) - dur
            ) > 1e-6:
                raise MappingError(
                    f"task {t!r}: S duration {self.finish[t] - self.start[t]} "
                    f"!= c/I estimate {dur}"
                )
        # precedence + communication must hold inside S
        for u, v in self.dag.edges:
            gap = self.comm_delay(u, v)
            if self.start[v] + EPS < self.finish[u] + gap:
                raise MappingError(
                    f"S violates precedence {u!r}->{v!r}: "
                    f"{self.start[v]} < {self.finish[u]} + {gap}"
                )
