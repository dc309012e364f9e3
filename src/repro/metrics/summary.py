"""Experiment summaries: the rows the benchmark harness prints.

:func:`summarize` folds a finished run's :class:`MetricsCollector` +
network message statistics into one :class:`ExperimentSummary`. Message
accounting separates *setup* traffic (PCS construction, surplus broadcast
priming) from *per-job* protocol traffic via a snapshot taken when the
workload starts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Dict

import numpy as np

from repro.core.events import JobOutcome
from repro.metrics.collector import MetricsCollector


@dataclass
class ExperimentSummary:
    """Aggregated results of one simulation run."""

    label: str
    n_sites: int
    n_jobs: int
    n_accepted: int
    n_accepted_local: int
    n_accepted_distributed: int
    n_rejected: int
    n_completed_in_time: int
    n_missed: int
    n_unfinished: int
    guarantee_ratio: float
    effective_ratio: float
    #: mean time from arrival to accept/reject decision
    mean_decision_latency: float
    #: mean |ACS| over distributed acceptances (nan if none)
    mean_acs_size: float
    #: protocol messages during the workload (setup excluded)
    protocol_messages: int
    #: messages divided by number of arrived jobs
    messages_per_job: float
    #: setup messages (PCS construction etc.)
    setup_messages: int
    rejected_by: Dict[str, int] = field(default_factory=dict)

    def row(self) -> Dict[str, object]:
        """Flat dict for table printing."""
        return {
            "label": self.label,
            "sites": self.n_sites,
            "jobs": self.n_jobs,
            "GR": round(self.guarantee_ratio, 4),
            "effGR": round(self.effective_ratio, 4),
            "local": self.n_accepted_local,
            "dist": self.n_accepted_distributed,
            "miss": self.n_missed,
            "msg/job": round(self.messages_per_job, 2),
            "setup_msg": self.setup_messages,
            "lat": round(self.mean_decision_latency, 3),
        }

    def scalars(self) -> Dict[str, float]:
        """Every numeric field as a plain JSON-able dict (strings and
        dicts excluded) — what ``scalar_metrics()`` returns everywhere."""
        return {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if isinstance(getattr(self, f.name), (int, float))
        }


def scalars_equal(a: Dict[str, float], b: Dict[str, float]) -> bool:
    """Exact equality of two ``scalar_metrics`` dicts, with NaN == NaN.

    Bit-for-bit comparisons (identity goldens, the E11 uniform
    differential) need "the same floats" — except that an absent-mean
    metric (``mean_acs_size`` with zero distributed acceptances) is NaN
    on both sides and must compare equal, exactly as the JSON golden
    encoding treats it.
    """
    if a.keys() != b.keys():
        return False
    for k in a:
        va, vb = a[k], b[k]
        both_nan = (
            isinstance(va, float) and isinstance(vb, float)
            and math.isnan(va) and math.isnan(vb)
        )
        if not both_nan and va != vb:
            return False
    return True


def summarize(
    label: str,
    collector: MetricsCollector,
    n_sites: int,
    total_messages: int,
    setup_messages: int = 0,
) -> ExperimentSummary:
    """Fold collector + message counters into a summary.

    When the collector has folded records (long-lived runs), their exact
    sums combine with the live lists; the no-folding path keeps the
    original ``np.mean`` arithmetic so batch summaries stay bit-identical.
    """
    records = collector.records()
    n_jobs = collector.n_arrived()
    latencies = [r.decision_latency for r in records if r.decision_latency is not None]
    acs_sizes = [
        r.acs_size
        for r in records
        if r.acs_size is not None and r.outcome is JobOutcome.ACCEPTED_DISTRIBUTED
    ]
    lat_n = len(latencies) + collector.folded_latency_n
    if collector.folded_latency_n:
        mean_latency = (
            (sum(latencies) + collector.folded_latency_sum) / lat_n
            if lat_n
            else float("nan")
        )
    else:
        mean_latency = float(np.mean(latencies)) if latencies else float("nan")
    acs_n = len(acs_sizes) + collector.folded_acs_n
    if collector.folded_acs_n:
        mean_acs = (
            (sum(acs_sizes) + collector.folded_acs_sum) / acs_n
            if acs_n
            else float("nan")
        )
    else:
        mean_acs = float(np.mean(acs_sizes)) if acs_sizes else float("nan")
    rejected_by: Dict[str, int] = {}
    for outcome in JobOutcome:
        if not outcome.accepted and outcome is not JobOutcome.PENDING:
            c = collector.count(outcome)
            if c:
                rejected_by[outcome.value] = c
    protocol_messages = max(0, total_messages - setup_messages)
    return ExperimentSummary(
        label=label,
        n_sites=n_sites,
        n_jobs=n_jobs,
        n_accepted=collector.n_accepted(),
        n_accepted_local=collector.count(JobOutcome.ACCEPTED_LOCAL),
        n_accepted_distributed=collector.count(JobOutcome.ACCEPTED_DISTRIBUTED),
        n_rejected=sum(rejected_by.values()),
        n_completed_in_time=collector.n_completed_in_time(),
        n_missed=collector.n_missed(),
        n_unfinished=collector.n_unfinished(),
        guarantee_ratio=collector.guarantee_ratio(),
        effective_ratio=collector.effective_ratio(),
        mean_decision_latency=mean_latency,
        mean_acs_size=mean_acs,
        protocol_messages=protocol_messages,
        messages_per_job=protocol_messages / n_jobs if n_jobs else float("nan"),
        setup_messages=setup_messages,
        rejected_by=rejected_by,
    )
