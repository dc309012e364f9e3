"""Membership & survivability: joins and incremental routing repair.

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
  handshakes after churn downtime.

Everything is opt-in: a plan without joins builds no manager, and the
no-fault path stays byte-identical (the identity goldens pin it).
"""

from repro.membership.manager import JoinEvent, MembershipManager, MembershipStats
from repro.membership.repair import network_links, repair_after_join

__all__ = [
    "JoinEvent",
    "MembershipManager",
    "MembershipStats",
    "network_links",
    "repair_after_join",
]
