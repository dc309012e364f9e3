"""Protocol behaviour statistics from traces.

Aggregates the tracer's protocol events into the quantities a deployment
engineer would monitor:

* enrollment outcomes: how often sphere members were busy (refusals),
* validation health: endorsements per member, coupling failure rate,
* lock pressure: how long members stay locked per protocol run,
* ACS utilisation: of the enrolled sites, how many actually host tasks.

Requires ``trace=True`` runs. Exported from :mod:`repro.metrics` for
ad-hoc analysis; ``tests/experiments/test_campaign_protocol_stats.py``
pins it.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.simnet.trace import Tracer


@dataclass(frozen=True)
class ProtocolStats:
    """Aggregate protocol behaviour over one traced run."""

    protocol_runs: int
    #: fraction of enrollment requests answered with a busy-refusal
    refusal_rate: float
    #: mean endorsed logical processors per VALIDATE answer
    mean_endorsements: float
    #: fraction of protocol runs rejected at the coupling step
    validation_failure_rate: float
    #: mean time a member spends locked per enrollment (enroll→unlock/exec)
    mean_lock_hold: float
    #: mean enrolled members per run vs. members that ended up hosting
    mean_enrolled: float
    mean_hosting: float

    def rows(self) -> List[Dict[str, object]]:
        return [
            {"metric": "protocol runs", "value": self.protocol_runs},
            {"metric": "enrollment refusal rate", "value": round(self.refusal_rate, 4)},
            {"metric": "mean endorsements/member", "value": round(self.mean_endorsements, 3)},
            {"metric": "validation failure rate", "value": round(self.validation_failure_rate, 4)},
            {"metric": "mean lock hold time", "value": round(self.mean_lock_hold, 3)},
            {"metric": "mean |ACS| enrolled", "value": round(self.mean_enrolled, 3)},
            {"metric": "mean hosts per distributed job", "value": round(self.mean_hosting, 3)},
        ]


def lock_holds(tracer: Tracer) -> List[float]:
    """Per-(site, job) lock-hold durations, in event order.

    A hold opens at ``acs.enrolled`` and closes at the first of
    ``lock.released`` / ``execute.commit`` / ``execute.bystander`` for the
    same (site, job); holds still open at the end of the trace are dropped.
    """
    acquired: Dict[tuple, float] = {}
    holds: List[float] = []
    for e in tracer.events:
        job = e.detail.get("job")
        if e.category == "acs.enrolled":
            acquired[(e.site, job)] = e.time
        elif e.category in ("lock.released", "execute.commit", "execute.bystander"):
            key = (e.site, job)
            if key in acquired:
                holds.append(e.time - acquired.pop(key))
    return holds


def lock_hold_percentiles(tracer: Tracer, qs=(50.0, 95.0, 99.0)) -> Dict[str, float]:
    """Percentile (default p50/p95/p99) lock-hold times across members.

    Lock pressure is the protocol's scarcest resource — a member locked on
    one ACS refuses every other enrollment — so its *tail* matters more
    than its mean. All-NaN when the trace holds no completed locks.
    """
    from repro.obs.telemetry import percentiles

    return percentiles(lock_holds(tracer), qs)


def protocol_stats(tracer: Tracer) -> ProtocolStats:
    """Fold a traced run into :class:`ProtocolStats`."""
    enrolls = 0
    refusals = 0
    endorsement_counts: List[int] = []
    runs = 0
    validation_failures = 0
    enrolled_per_job: Dict[int, int] = defaultdict(int)
    hosts_per_job: Dict[int, set] = defaultdict(set)
    lock_acquired: Dict[tuple, float] = {}
    lock_holds: List[float] = []

    for e in tracer.events:
        job = e.detail.get("job")
        if e.category == "acs.enroll":
            runs += 1
        elif e.category == "acs.enrolled":
            enrolls += 1
            enrolled_per_job[job] += 1
            lock_acquired[(e.site, job)] = e.time
        elif e.category == "acs.refuse":
            refusals += 1
        elif e.category == "validate.member":
            endorsement_counts.append(len(e.detail.get("endorsed", ())))
        elif e.category == "validate.fail":
            validation_failures += 1
        elif e.category in ("lock.released", "execute.commit", "execute.bystander"):
            key = (e.site, job)
            if key in lock_acquired:
                lock_holds.append(e.time - lock_acquired.pop(key))
        if e.category == "execute.commit":
            hosts_per_job[job].add(e.site)

    def mean(vals):
        return float(np.mean(vals)) if vals else float("nan")

    asked = enrolls + refusals
    return ProtocolStats(
        protocol_runs=runs,
        refusal_rate=refusals / asked if asked else float("nan"),
        mean_endorsements=mean(endorsement_counts),
        validation_failure_rate=validation_failures / runs if runs else float("nan"),
        mean_lock_hold=mean(lock_holds),
        mean_enrolled=mean(list(enrolled_per_job.values())),
        mean_hosting=mean([len(h) for h in hosts_per_job.values()]),
    )
