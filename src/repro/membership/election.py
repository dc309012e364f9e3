"""Bully-style leader election for the centralized baseline.

Without this, the centralized configuration silently dies with its
coordinator under site churn — every submission routed to a partitioned
site 0 is dropped, which makes fault campaigns an unfair fight across
algorithms. With election enabled (``ExperimentConfig.election``), every
:class:`~repro.baselines.centralized.CentralizedSite` runs an
:class:`ElectionManager`:

* **Heartbeat** — members ping their believed coordinator every
  ``heartbeat_period``; a coordinator answers with a pong and, on its own
  tick, beacons ``E_COORD`` to everyone (the beacon doubles as the
  split-brain suppressor below). ``heartbeat_timeout`` of silence makes a
  member suspect the coordinator and start an election.
* **Election (bully)** — the suspect sends ``E_ELECTION`` to every
  higher-id site. Any live higher site answers ``E_ALIVE`` (suppressing
  the suspect) and runs its own election; a suspect that hears no higher
  site within ``election_timeout`` declares itself, rebuilds the
  coordinator state from the :class:`CoordinatorKit` (shadow timelines
  snapshot the sites' *current* plans) and broadcasts ``E_COORD``.
  Rounds that stall — a higher site answered but never announced — are
  retried ``retries`` times with exponential ``backoff`` before the
  suspect takes over anyway (liveness; the beacon protocol repairs any
  resulting dual claim).
* **Split-brain repair** — a healed old coordinator keeps believing it
  rules until it hears a higher claimant's beacon, then abdicates
  (drops its coordinator state, adopts the claimant); a lower claimant
  is answered with a re-asserting beacon. Members only accept a claimant
  that outranks their current belief, unless they are themselves
  suspicious — so stale low-id beacons cannot roll the network back.
* **Stale assignments** — a new coordinator's shadow snapshot cannot see
  the old coordinator's still-in-flight ``EXEC_ASSIGN``; hosts therefore
  probe every assignment against their real timeline before committing
  and drop conflicting ones (counted, see
  :meth:`CentralizedSite.commit_assignment`) instead of crashing.

Election messages ride the normal routed transport, so partitions drop
them like any other traffic — retry/backoff is what makes the protocol
live under message loss. Everything here is opt-in: with
``election=None`` (the default) no handler, no timer and no message
exists, and centralized runs are byte-identical to before.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.errors import ConfigError, RoutingError
from repro.types import SiteId, Time

MSG_E_PING = "E_PING"
MSG_E_PONG = "E_PONG"
MSG_E_ELECTION = "E_ELECTION"
MSG_E_ALIVE = "E_ALIVE"
MSG_E_COORD = "E_COORD"


@dataclass(frozen=True)
class ElectionConfig:
    """Timing knobs of the heartbeat + bully protocol (simulated time)."""

    heartbeat_period: float = 5.0
    heartbeat_timeout: float = 15.0
    election_timeout: float = 5.0
    #: extra election rounds after the first before a stalled suspect
    #: takes over anyway
    retries: int = 2
    #: multiplier on ``election_timeout`` per retry round
    backoff: float = 2.0

    def __post_init__(self) -> None:
        if self.heartbeat_period <= 0:
            raise ConfigError(f"heartbeat_period must be > 0, got {self.heartbeat_period}")
        if self.heartbeat_timeout < self.heartbeat_period:
            raise ConfigError(
                "heartbeat_timeout must be >= heartbeat_period "
                f"({self.heartbeat_timeout} < {self.heartbeat_period})"
            )
        if self.election_timeout <= 0:
            raise ConfigError(f"election_timeout must be > 0, got {self.election_timeout}")
        if self.retries < 0:
            raise ConfigError(f"retries must be >= 0, got {self.retries}")
        if self.backoff < 1.0:
            raise ConfigError(f"backoff must be >= 1.0, got {self.backoff}")


@dataclass(frozen=True)
class CoordinatorKit:
    """Everything needed to (re)build a coordinator on any site.

    The runner assembles one per centralized run — the same site map,
    distance oracle and shortlist the original ``install_coordinator``
    used — so an election winner's coordinator is constructed exactly
    like site 0's was, just later (its shadow snapshots the plans as they
    stand at victory time).
    """

    all_sites: Dict[SiteId, object]
    distances: Dict[SiteId, Dict[SiteId, Time]]
    shortlist: int = 8


@dataclass
class ElectionStats:
    """Counters of one site's election activity."""

    pings_sent: int = 0
    elections_started: int = 0
    elections_won: int = 0
    #: adopted a different coordinator (abdications included)
    coordinator_changes: int = 0
    retries: int = 0
    #: assignments from a deposed coordinator dropped by the commit probe
    stale_assignments_dropped: int = 0

    def row(self) -> Dict[str, int]:
        return dict(self.__dict__)


class ElectionManager:
    """One site's view of the heartbeat + bully protocol (see module docs)."""

    def __init__(self, site, kit: CoordinatorKit, cfg: ElectionConfig) -> None:
        self.site = site
        self.kit = kit
        self.cfg = cfg
        self.sim = site.network.sim
        self.stats = ElectionStats()
        self._peers: List[SiteId] = sorted(kit.all_sites)
        self._last_heard: Time = 0.0
        self._electing = False
        #: generation counter — timeouts from superseded rounds are inert
        self._round = 0
        self._attempts = 0
        self._heard_higher = False
        site.on(MSG_E_PING, self._h_ping)
        site.on(MSG_E_PONG, self._h_pong)
        site.on(MSG_E_ELECTION, self._h_election)
        site.on(MSG_E_ALIVE, self._h_alive)
        site.on(MSG_E_COORD, self._h_coord)
        site.election = self

    @property
    def suspecting(self) -> bool:
        """True while this site believes the coordinator is gone."""
        return self._electing

    # -- lifecycle ----------------------------------------------------------

    def arm(self) -> None:
        """Start the heartbeat loop (call at workload start)."""
        self._last_heard = self.sim.now
        self.sim.schedule(self.cfg.heartbeat_period, self._tick)

    def _tick(self) -> None:
        site = self.site
        if site.coordinator is not None:
            self._beacon()
        elif not self._electing:
            if site.coordinator_id == site.sid:
                # believed coordinator is me, but I hold no coordinator
                # state (abdicated): someone has to rule
                self._start_election()
            else:
                self.stats.pings_sent += 1
                self._send(site.coordinator_id, MSG_E_PING, {"origin": site.sid})
                if self.sim.now - self._last_heard > self.cfg.heartbeat_timeout:
                    self._start_election()
        self.sim.schedule(self.cfg.heartbeat_period, self._tick)

    def _send(self, dst: SiteId, mtype: str, payload: dict) -> None:
        # routed like all traffic; a partition mid-route just loses it
        # (retry/backoff, not the transport, provides liveness)
        try:
            self.site.send_to(dst, mtype, payload, size=1.0)
        except RoutingError:  # pragma: no cover - needs a partitioned topology
            pass

    def _beacon(self) -> None:
        for sid in self._peers:
            if sid != self.site.sid:
                self._send(sid, MSG_E_COORD, {"cid": self.site.sid})

    # -- the bully rounds ---------------------------------------------------

    def _start_election(self) -> None:
        self._electing = True
        self._round += 1
        self._attempts = 0
        self.stats.elections_started += 1
        self.site.trace("election.start", round=self._round)
        self.site.count("election.started")
        self._run_round()

    def _run_round(self) -> None:
        higher = [s for s in self._peers if s > self.site.sid]
        if not higher:
            self._become_coordinator()
            return
        self._heard_higher = False
        rnd, attempt = self._round, self._attempts
        for sid in higher:
            self._send(sid, MSG_E_ELECTION, {"origin": self.site.sid, "round": rnd})
        timeout = self.cfg.election_timeout * (self.cfg.backoff**attempt)
        self.sim.schedule(timeout, lambda: self._round_timeout(rnd, attempt))

    def _round_timeout(self, rnd: int, attempt: int) -> None:
        if not self._electing or rnd != self._round or attempt != self._attempts:
            return
        if not self._heard_higher:
            self._become_coordinator()
        elif self._attempts < self.cfg.retries:
            # a higher site answered but never announced — retry, backed off
            self._attempts += 1
            self.stats.retries += 1
            self._run_round()
        else:
            # liveness over protocol purity: take over; if the higher site
            # eventually wins too, the beacon/abdication rule repairs it
            self._become_coordinator()

    def _become_coordinator(self) -> None:
        from repro.baselines.centralized import CentralizedCoordinator

        site = self.site
        self._electing = False
        site.coordinator_id = site.sid
        site.coordinator = CentralizedCoordinator(
            site, self.kit.all_sites, self.kit.distances, self.kit.shortlist
        )
        self._last_heard = self.sim.now
        self.stats.elections_won += 1
        site.trace("election.won", round=self._round)
        self.site.count("election.won")
        self._beacon()

    # -- message handlers ---------------------------------------------------

    def _h_ping(self, msg) -> None:
        if self.site.coordinator is not None:
            self._send(msg.payload["origin"], MSG_E_PONG, {"origin": self.site.sid})

    def _h_pong(self, msg) -> None:
        if msg.payload["origin"] == self.site.coordinator_id:
            self._last_heard = self.sim.now

    def _h_election(self, msg) -> None:
        origin = msg.payload["origin"]
        if origin >= self.site.sid:
            return
        self._send(origin, MSG_E_ALIVE, {"origin": self.site.sid, "round": msg.payload["round"]})
        if self.site.coordinator is not None:
            self._send(origin, MSG_E_COORD, {"cid": self.site.sid})
        elif not self._electing:
            self._start_election()

    def _h_alive(self, msg) -> None:
        if self._electing and msg.payload.get("round") == self._round:
            self._heard_higher = True

    def _h_coord(self, msg) -> None:
        cid = msg.payload["cid"]
        site = self.site
        if cid == site.sid:
            return
        if site.coordinator is not None:
            if cid > site.sid:
                # a higher claimant rules: abdicate, adopt it
                site.coordinator = None
                site.coordinator_id = cid
                self._electing = False
                self._last_heard = self.sim.now
                self.stats.coordinator_changes += 1
                site.trace("election.abdicate", to=cid)
                self.site.count("election.abdicated")
            else:
                # re-assert to the stale lower claimant
                self._send(cid, MSG_E_COORD, {"cid": site.sid})
            return
        stale = self.sim.now - self._last_heard > self.cfg.heartbeat_timeout
        if (
            self._electing
            or stale
            or cid > site.coordinator_id
            or site.coordinator_id == site.sid
        ):
            if cid != site.coordinator_id:
                self.stats.coordinator_changes += 1
                site.trace("election.adopt", coordinator=cid)
            site.coordinator_id = cid
            self._electing = False
            self._last_heard = self.sim.now


def install_elections(resident, cfg: ElectionConfig) -> Dict[SiteId, ElectionManager]:
    """Build and arm one :class:`ElectionManager` per centralized site."""
    kit = resident.coordinator_kit
    if kit is None:
        raise ConfigError(
            "election requires a centralized resident (no coordinator kit present)"
        )
    managers = {s.sid: ElectionManager(s, kit, cfg) for s in resident.sites}
    for m in managers.values():
        m.arm()
    return managers
