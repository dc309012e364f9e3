"""Harness-level metrics collection.

A single :class:`MetricsCollector` per experiment observes every site:
sites report arrivals and decisions; task completions flow in through the
executors' completion callbacks (the collector's ``on_task_complete`` is
registered on every site's executor), each with the site and the actual
chunk spans, so the job records are the run's one per-task execution
history. The collector is an *oracle observer* — it never feeds
information back into the protocol.

Long-lived runs (the E12 soak) cannot keep 10^5–10^6 :class:`JobRecord`
objects alive; :meth:`MetricsCollector.fold_before` folds settled records
into exact scalar aggregates and deletes them. Folding is opt-in and
loss-free for every scalar metric :func:`repro.metrics.summary.summarize`
reports — a batch run that never folds is bit-identical to before.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.events import JobOutcome, JobRecord, Span
from repro.errors import ReproError
from repro.types import JobId, SiteId, TaskId, Time


class MetricsCollector:
    """Collects job records across all sites of one simulation run."""

    def __init__(self) -> None:
        self.jobs: Dict[JobId, JobRecord] = {}
        #: named protocol events (hardening retransmissions, degradations,
        #: lease expirations, ...) — counted even when tracing is disabled
        self.protocol_events: Counter = Counter()
        #: optional hook fired after every :meth:`decide` with the updated
        #: record — the admission service resolves tickets and feeds the
        #: decision-latency timers through this. None (the default) costs
        #: one predictable-false branch per decision.
        self.on_decide: Optional[Callable[[JobRecord], None]] = None
        # exact aggregates of records removed by fold_before(); public so
        # summarize() can combine them with the live records
        self.folded_outcomes: Counter = Counter()
        self.n_folded: int = 0
        self.folded_completed_in_time: int = 0
        self.folded_missed: int = 0
        self.folded_latency_n: int = 0
        self.folded_latency_sum: float = 0.0
        self.folded_acs_n: int = 0
        self.folded_acs_sum: float = 0.0

    def count_event(self, name: str, n: int = 1) -> None:
        """Count one named protocol event (sites call this directly)."""
        self.protocol_events[name] += n

    # -- called by scheduler sites ------------------------------------------

    def register_job(self, record: JobRecord) -> None:
        if record.job in self.jobs:
            raise ReproError(f"duplicate job id {record.job}")
        self.jobs[record.job] = record

    def decide(
        self,
        job: JobId,
        outcome: JobOutcome,
        time: Time,
        hosts: Optional[List[SiteId]] = None,
        acs_size: Optional[int] = None,
    ) -> None:
        rec = self.jobs.get(job)
        if rec is None:
            raise ReproError(f"decision for unknown job {job}")
        if rec.outcome is not JobOutcome.PENDING:
            raise ReproError(
                f"job {job} decided twice: {rec.outcome.value} then {outcome.value}"
            )
        rec.outcome = outcome
        rec.decided_at = time
        if hosts is not None:
            rec.hosts = list(hosts)
        if acs_size is not None:
            rec.acs_size = acs_size
        if self.on_decide is not None:
            self.on_decide(rec)

    # -- called by executors ---------------------------------------------------

    def on_task_complete(
        self, job: JobId, task: TaskId, time: Time, site: SiteId, spans: Sequence[Span]
    ) -> None:
        """``task`` of ``job`` finished at ``time`` on ``site`` after running
        its actual chunk ``spans`` — the run's one record of that execution."""
        rec = self.jobs.get(job)
        if rec is None:
            return  # tasks of jobs from another collector's run
        rec.add_task(task, site, spans)

    # -- record folding (memory flatness for long-lived runs) ----------------

    def fold_before(self, before: Time) -> int:
        """Fold settled records with ``deadline <= before`` into aggregates.

        A record is *settled* once nothing can still change it: decided and
        either not accepted (rejected/lost jobs never execute) or fully
        completed. Folding adds its contribution to the exact counters and
        sums above, then deletes it — every scalar the summary reports is
        preserved; only the per-job record list shrinks. Accepted jobs with
        tasks still pending are never folded (they are the ``n_unfinished``
        the soak's leak audit watches). Returns the number folded.
        """
        fold: List[JobId] = []
        for job, r in self.jobs.items():
            if r.outcome is JobOutcome.PENDING or r.deadline > before:
                continue
            if r.outcome.accepted and not r.completed:
                continue
            fold.append(job)
        for job in fold:
            r = self.jobs.pop(job)
            self.folded_outcomes[r.outcome] += 1
            self.n_folded += 1
            met = r.met_deadline
            if met is True:
                self.folded_completed_in_time += 1
            elif met is False:
                self.folded_missed += 1
            lat = r.decision_latency
            if lat is not None:
                self.folded_latency_n += 1
                self.folded_latency_sum += lat
            if r.acs_size is not None and r.outcome is JobOutcome.ACCEPTED_DISTRIBUTED:
                self.folded_acs_n += 1
                self.folded_acs_sum += r.acs_size
        return len(fold)

    # -- queries -------------------------------------------------------------------

    def records(self) -> List[JobRecord]:
        """Live (unfolded) records in job-id order."""
        return [self.jobs[j] for j in sorted(self.jobs)]

    def executions(self) -> Iterator[Tuple[JobId, TaskId, SiteId, List[Span]]]:
        """``(job, task, site, actual chunk spans)`` of every finished task
        of the live records, by job id, each job's in completion order."""
        for rec in self.records():
            for task, site, spans in rec.executions():
                yield rec.job, task, site, spans

    def count(self, outcome: JobOutcome) -> int:
        live = sum(1 for r in self.jobs.values() if r.outcome is outcome)
        return live + self.folded_outcomes[outcome]

    def n_arrived(self) -> int:
        return len(self.jobs) + self.n_folded

    def n_accepted(self) -> int:
        live = sum(1 for r in self.jobs.values() if r.outcome.accepted)
        folded = sum(
            c for o, c in self.folded_outcomes.items() if o.accepted
        )
        return live + folded

    def n_completed_in_time(self) -> int:
        live = sum(1 for r in self.jobs.values() if r.met_deadline is True)
        return live + self.folded_completed_in_time

    def n_missed(self) -> int:
        """Accepted jobs that finished late (guarantee violated)."""
        live = sum(1 for r in self.jobs.values() if r.met_deadline is False)
        return live + self.folded_missed

    def n_unfinished(self) -> int:
        """Accepted jobs with tasks still pending at the end of the run."""
        return sum(
            1
            for r in self.jobs.values()
            if r.outcome.accepted and not r.completed
        )

    def guarantee_ratio(self) -> float:
        """Accepted / arrived (the paper's 'number of accepted jobs')."""
        n = self.n_arrived()
        return self.n_accepted() / n if n else 0.0

    def effective_ratio(self) -> float:
        """Completed-by-deadline / arrived (stronger than acceptance)."""
        n = self.n_arrived()
        return self.n_completed_in_time() / n if n else 0.0
