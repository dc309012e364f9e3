"""Membership & survivability: joins, incremental repair, leader election.

The paper's model (§2) fixes the network for the lifetime of the system.
This package makes membership dynamic — under full experimental control —
so the long-lived admission service of :mod:`repro.service` survives a
network that grows and heals instead of only shrinking:

* :mod:`repro.membership.repair` — O(affected-rows) incremental update of
  the shared vectorized routing tables after a join, over the network's
  own links, bit-for-bit equal to a full
  :func:`~repro.routing.vectorized.phased_tables` rebuild;
* :mod:`repro.membership.manager` — the :class:`MembershipManager` that
  expands a plan's :class:`~repro.faults.plan.JoinSpec` /
  :class:`~repro.faults.plan.SiteJoinEvent` declarations, applies JOIN
  (links up → tables repaired → spheres refreshed) and counts REJOIN
  handshakes after churn downtime;
* :mod:`repro.membership.election` — bully-style leader election so the
  centralized baseline detects coordinator loss via heartbeat timeout,
  elects a successor (retry/backoff on election messages) and resumes
  admission, with split-brain beacon repair and a stale-assignment probe.

Everything is opt-in: a plan without joins builds no manager, a config
without ``election`` builds no election state, and the no-fault path
stays byte-identical (the identity goldens pin it).
"""

from repro.membership.election import (
    CoordinatorKit,
    ElectionConfig,
    ElectionManager,
    ElectionStats,
    install_elections,
)
from repro.membership.manager import JoinEvent, MembershipManager, MembershipStats
from repro.membership.repair import network_links, repair_after_join

__all__ = [
    "CoordinatorKit",
    "ElectionConfig",
    "ElectionManager",
    "ElectionStats",
    "JoinEvent",
    "MembershipManager",
    "MembershipStats",
    "install_elections",
    "network_links",
    "repair_after_join",
]
