"""The membership manager: JOIN/REJOIN against a live resident network.

Joins are *declared* in the :class:`~repro.faults.plan.FaultPlan`
(explicit :class:`~repro.faults.plan.SiteJoinEvent` entries and/or a
seeded :class:`~repro.faults.plan.JoinSpec`) and *applied* here. The
experiment runner pre-builds the joining sites as latent, link-less
members of an extended network — link-less sites are provably inert
for the phased Bellman–Ford, so the pre-build changes nothing about the
base network's tables — and a join becomes three steps at its scheduled
time:

1. **link up** — the declared links go live on the
   :class:`~repro.simnet.network.Network`;
2. **repair** — every :class:`~repro.routing.vectorized.SharedTables` of
   the run is updated from the network's links by
   :func:`repro.membership.repair.repair_after_join` (the affected rows
   replaced, bit-for-bit equal to a full rebuild);
3. **refresh** — the affected sites' protocol spheres are rebuilt
   (:meth:`~repro.core.rtds.RTDSSite.refresh_sphere`), so the joiner
   starts participating and its neighbours start enrolling it. Their
   :class:`~repro.routing.oracle.LazyRoutingTable` and next-hop views
   read the repaired rows live, so nothing else goes stale.

REJOIN: when a fault plan also churns sites, the manager hooks the
injector's ``on_site_up`` transition. Under the window fault model a
partitioned site's links (and hence every routing table) never changed,
so a rejoin is a handshake — the sphere refresh reproduces the identical
PCS — but it is counted and traced, and it is the seam where a
lease/invalidStaleState protocol would attach on a real deployment.

Determinism: join expansion draws from ``SeedSequence([entropy,
plan.seed, 1])`` — a *separate* stream from the injector's churn/loss
stream (``[entropy, plan.seed]``), so adding joins to a plan leaves its
churn windows byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.core.events import count_event
from repro.errors import SimulationError
from repro.faults.plan import FaultPlan
from repro.membership.repair import network_links, repair_after_join
from repro.routing.vectorized import phased_tables
from repro.types import SiteId, Time


@dataclass
class MembershipStats:
    """Counters of everything membership did to one run."""

    joins_applied: int = 0
    rejoins: int = 0
    links_added: int = 0
    #: routing-table rows recomputed across all repairs (the incremental
    #: work actually done; a full rebuild per join would be n rows each)
    repaired_rows: int = 0
    spheres_refreshed: int = 0

    def row(self) -> Dict[str, int]:
        """Flat dict for table printing / soak reports."""
        return dict(self.__dict__)


@dataclass(frozen=True)
class JoinEvent:
    """One concrete, scheduled join (plan events after id assignment)."""

    time: Time
    site: SiteId
    links: Tuple[Tuple[SiteId, Time], ...]


class MembershipManager:
    """Applies one plan's join events to one resident network.

    Parameters
    ----------
    resident:
        The live :class:`~repro.experiments.runner.ResidentNetwork`
        (latent joiner sites already built; ``shared_tables`` populated —
        the runner guarantees this for plans with joins by requiring
        oracle routing).
    plan:
        The fault plan declaring the joins.
    entropy:
        Extra seed material (the experiment seed), mixed like the
        injector does but on an independent stream.
    """

    def __init__(self, resident, plan: FaultPlan, entropy: int = 0) -> None:
        if not resident.shared_tables:
            raise SimulationError(
                "membership joins need oracle routing (repairable shared "
                "tables); got a protocol-mode resident"
            )
        self.resident = resident
        self.plan = plan
        self.stats = MembershipStats()
        self.rng = np.random.default_rng(
            np.random.SeedSequence([entropy, plan.seed, 1])
        )
        self.n_base = resident.n_base_sites
        #: joined site ids in application order
        self.joined: List[SiteId] = []
        self.events: List[JoinEvent] = []
        self._armed = False

    # -- lifecycle ----------------------------------------------------------

    def arm(self, t0: Time = 0.0, default_horizon: Time = 100.0) -> None:
        """Expand the plan's joins and schedule them (times relative to ``t0``).

        Also hooks the injector's rejoin transition when the run has one.
        """
        if self._armed:
            raise SimulationError("membership manager already armed")
        self._armed = True
        self.events = self._expand(default_horizon)
        sim = self.resident.sim
        for ev in self.events:
            sim.schedule_at(t0 + ev.time, lambda e=ev: self._apply_join(e))
        inj = self.resident.injector
        if inj is not None:
            inj.on_site_up = self._on_rejoin

    def _expand(self, default_horizon: Time) -> List[JoinEvent]:
        """Concrete events: explicit declarations first, then the seeded
        spec — ids assigned ``n_base, n_base+1, ...`` in declaration order."""
        events: List[JoinEvent] = []
        next_id = self.n_base
        for ev in self.plan.join_events:
            events.append(JoinEvent(ev.time, next_id, ev.links))
            next_id += 1
        spec = self.plan.joins
        if spec is not None and spec.n_sites > 0:
            horizon = spec.horizon if spec.horizon is not None else default_horizon
            lo, hi = spec.delay_range
            n_links = min(spec.links, self.n_base)
            for _ in range(spec.n_sites):
                # fixed draw order (time, peers, delays) — the determinism
                # contract tests replay this
                start = float(self.rng.uniform(0.0, horizon))
                peers = self.rng.choice(self.n_base, size=n_links, replace=False)
                delays = self.rng.uniform(lo, hi, size=n_links)
                links = tuple(
                    (int(p), float(d)) for p, d in sorted(zip(peers, delays))
                )
                events.append(JoinEvent(start, next_id, links))
                next_id += 1
        return events

    # -- join application ---------------------------------------------------

    def _apply_join(self, ev: JoinEvent) -> None:
        res = self.resident
        net = res.network
        j = ev.site
        if j < self.n_base or j in self.joined:
            raise SimulationError(f"membership: site {j} cannot join (base or already joined)")
        for peer, delay in ev.links:
            if peer >= self.n_base and peer not in self.joined:
                raise SimulationError(
                    f"membership: join of {j} links to {peer}, which has not joined yet"
                )
            net.add_link(j, peer, delay, res.config.link_throughput)
            self.stats.links_added += 1
        links = network_links(net)
        affected: set = set()
        for shared in res.shared_tables.values():
            rows = repair_after_join(shared, links, j)
            self.stats.repaired_rows += int(rows.size)
            affected.update(int(r) for r in rows)
        self.joined.append(j)
        self.stats.joins_applied += 1
        res.tracer.emit(res.sim.now, "membership.join", j, links=len(ev.links))
        count_event(res.metrics, "membership.join")
        for sid in sorted(affected):
            site = net.site(sid)
            refresh = getattr(site, "refresh_sphere", None)
            if refresh is not None:
                refresh()
                self.stats.spheres_refreshed += 1

    def _on_rejoin(self, sid: SiteId) -> None:
        """A churned site healed: count the handshake, refresh its sphere."""
        res = self.resident
        self.stats.rejoins += 1
        res.tracer.emit(res.sim.now, "membership.rejoin", sid)
        count_event(res.metrics, "membership.rejoin")
        refresh = getattr(res.network.site(sid), "refresh_sphere", None)
        if refresh is not None:
            refresh()
            self.stats.spheres_refreshed += 1

    # -- audit --------------------------------------------------------------

    def verify_converged(self) -> bool:
        """Do the incrementally-repaired tables equal a full rebuild?

        The chaos soak's membership-convergence gate: recompute
        :func:`~repro.routing.vectorized.phased_tables` from the network's
        final links and compare every row exactly.
        """
        links = network_links(self.resident.network)
        return all(
            shared == phased_tables(links, phases)
            for phases, shared in self.resident.shared_tables.items()
        )
