"""Fault-aware metrics: what churn cost one run.

Folds three sources into one :class:`FaultReport`:

* the injector's :class:`~repro.faults.injector.FaultStats` (messages lost
  by cause, down events, dropped jobs);
* the collector's hardening event counters (retransmissions, degraded
  phases, lease expirations — counted even when tracing is off);
* the collector's ratios, so "guarantee ratio under churn" sits next to
  the damage that produced it.

Used by the ``--faults`` CLI path and the fault tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.metrics.collector import MetricsCollector

#: collector event names that mean "a hardened phase gave up on members"
_DEGRADE_EVENTS = ("enroll_gave_up", "validate_gave_up", "execute_gave_up")
#: collector event names that mean "a message round was repeated"
_RETRANSMIT_EVENTS = ("enroll_retransmit", "validate_retransmit", "execute_retransmit")


@dataclass(frozen=True)
class FaultReport:
    """One run's churn damage and protocol resilience summary."""

    #: physical transmissions dropped by the injector, total and by cause
    lost_messages: int
    lost_by_cause: Dict[str, int]
    #: jobs that arrived on a partitioned site
    jobs_dropped: int
    #: hardened rounds that had to be repeated
    retransmissions: int
    #: hardened phases that proceeded without silent members
    degraded_phases: int
    #: member locks self-released because the initiator vanished
    lease_expirations: int
    link_down_events: int
    site_down_events: int
    guarantee_ratio: float
    effective_ratio: float

    def rows(self) -> List[Dict[str, object]]:
        """Table rows for :func:`repro.experiments.reporting.format_table`."""
        return [
            {"metric": "messages lost", "value": self.lost_messages},
            {"metric": "  by link down", "value": self.lost_by_cause.get("link_down", 0)},
            {"metric": "  by site down", "value": self.lost_by_cause.get("site_down", 0)},
            {"metric": "  by random loss", "value": self.lost_by_cause.get("random", 0)},
            {"metric": "jobs dropped (site down)", "value": self.jobs_dropped},
            {"metric": "retransmissions", "value": self.retransmissions},
            {"metric": "degraded phases", "value": self.degraded_phases},
            {"metric": "lease expirations", "value": self.lease_expirations},
            {"metric": "link down events", "value": self.link_down_events},
            {"metric": "site down events", "value": self.site_down_events},
            {"metric": "guarantee ratio", "value": round(self.guarantee_ratio, 4)},
            {"metric": "effective ratio", "value": round(self.effective_ratio, 4)},
        ]


def fault_report(result) -> FaultReport:
    """Build a :class:`FaultReport` from a finished
    :class:`~repro.experiments.runner.RunResult` (fault-free runs produce
    an all-zero damage report around the run's ratios)."""
    collector: MetricsCollector = result.collector
    injector = result.faults
    if injector is not None:
        stats = injector.stats
        lost_by_cause = {
            "link_down": stats.lost_link_down,
            "site_down": stats.lost_site_down,
            "random": stats.lost_random,
        }
        lost, dropped = stats.lost_total, stats.jobs_dropped
        link_downs, site_downs = stats.link_down_events, stats.site_down_events
    else:
        lost_by_cause = {}
        lost = dropped = link_downs = site_downs = 0
    ev = collector.protocol_events
    return FaultReport(
        lost_messages=lost,
        lost_by_cause=lost_by_cause,
        jobs_dropped=dropped,
        retransmissions=sum(ev.get(k, 0) for k in _RETRANSMIT_EVENTS),
        degraded_phases=sum(ev.get(k, 0) for k in _DEGRADE_EVENTS),
        lease_expirations=ev.get("lease_expired", 0),
        link_down_events=link_downs,
        site_down_events=site_downs,
        guarantee_ratio=collector.guarantee_ratio(),
        effective_ratio=collector.effective_ratio(),
    )
