"""Phased distributed Bellman–Ford (paper §7.1–7.2).

The Bertsekas–Gallager distributed asynchronous Bellman–Ford, adapted as the
paper prescribes:

* no periodic re-sends (topology is static and fault-free);
* organised into **logical phases**: in phase ``p`` every site sends the
  route lines that changed in phase ``p-1`` to all neighbours, then waits
  until it has received the phase-``p`` update of *every* neighbour before
  computing its next vector ("a phase is composed of send step and reception
  of all neighbor routing tables");
* **interrupted** after a configured number of phases, which bounds flooding
  to a neighbourhood: after ``P`` phases every site knows, for each
  destination within ``P`` hops, the minimum delay over paths of at most
  ``P`` edges.

Phase counting follows the paper: the *initial* table (self + adjacent
links) counts as phase 1 knowledge, so ``total_phases = 2h`` means ``2h - 1``
exchange rounds. Neighbours may run ahead by one phase (links have different
delays), so early updates are buffered per phase — a standard α-synchronizer.

Delta encoding: only changed lines travel (the paper's "updates are sent out
whenever destination vectors entries change"); a site whose vector did not
change still sends an empty update so neighbours can complete their phase.
Message size = number of lines + 1, feeding the E4 cost benchmark.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import RoutingError
from repro.routing.table import RoutingTable
from repro.simnet.message import Message
from repro.simnet.site import SiteBase
from repro.types import SiteId, Time

MSG_ROUTING_UPDATE = "ROUTING_UPDATE"


class PhasedBellmanFord:
    """The routing protocol instance attached to one site.

    Parameters
    ----------
    site:
        Owner; the instance registers the ``ROUTING_UPDATE`` handler on it.
    total_phases:
        Stop after this many logical phases (PCS uses ``2h``). Must be >= 1.
    on_done:
        Callback fired once, when the final phase completes on this site.
    """

    def __init__(
        self,
        site: SiteBase,
        total_phases: int,
        on_done: Optional[Callable[[], None]] = None,
    ) -> None:
        if total_phases < 1:
            raise RoutingError(f"total_phases must be >= 1, got {total_phases}")
        self.site = site
        self.total_phases = total_phases
        self.on_done = on_done
        self.table = RoutingTable(site.sid)
        self.phase = 1  # initial knowledge counts as phase 1 (paper counting)
        self.done = total_phases == 1
        #: lines changed during the previous phase, to be sent this phase
        self._pending_delta: List[Tuple[SiteId, Time, int]] = []
        #: phase -> {neighbor: lines} buffered updates (α-synchronizer)
        self._inbox: Dict[int, Dict[SiteId, List[Tuple[SiteId, Time, int]]]] = {}
        self.messages_sent = 0
        site.on(MSG_ROUTING_UPDATE, self._on_update)

    # -- protocol ------------------------------------------------------------

    def start(self) -> None:
        """Install adjacent-link knowledge and (if phases remain) kick off
        the first exchange round. Call on every site at t=0."""
        for nb in self.site.neighbors():
            d = self.site.network.link_delay(self.site.sid, nb)
            if d <= 0:
                raise RoutingError(
                    f"site {self.site.sid}: link to {nb} has non-positive delay {d}; "
                    "hop-by-hop forwarding needs strictly positive delays"
                )
            self.table.consider(nb, d, nb, hops=1, phase=1)
        self._pending_delta = self.table.lines()
        if self.done:
            self._finish()
        else:
            self._send_phase(2)

    def _send_phase(self, phase: int) -> None:
        """Send this site's delta for ``phase`` to every neighbour."""
        lines = self._pending_delta
        for nb in self.site.neighbors():
            self.site.send_neighbor(
                nb,
                MSG_ROUTING_UPDATE,
                payload={"phase": phase, "lines": lines},
                size=float(len(lines) + 1),
            )
            self.messages_sent += 1
        self._pending_delta = []
        self._maybe_complete_phase(phase)

    def _on_update(self, msg: Message) -> None:
        phase = msg.payload["phase"]
        if phase <= self.phase:
            raise RoutingError(
                f"site {self.site.sid}: stale phase-{phase} update from {msg.src} "
                f"(already at phase {self.phase})"
            )
        self._inbox.setdefault(phase, {})[msg.src] = msg.payload["lines"]
        self._maybe_complete_phase(self.phase + 1)

    def _maybe_complete_phase(self, phase: int) -> None:
        """Finish ``phase`` once updates from all neighbours arrived."""
        if self.done or phase != self.phase + 1:
            return
        box = self._inbox.get(phase, {})
        neighbors = self.site.neighbors()
        if len(box) < len(neighbors):
            return
        # All neighbour updates for this phase are in: merge.
        changed: List[Tuple[SiteId, Time, int]] = []
        for nb in neighbors:
            d_nb = self.site.network.link_delay(self.site.sid, nb)
            for dest, dist, hops in box.pop(nb):
                if self.table.consider(dest, d_nb + dist, nb, hops + 1, phase):
                    e = self.table.entry(dest)
                    changed.append(e.as_line())
        # Deduplicate (a dest may improve via several neighbours).
        dedup = {line[0]: line for line in changed}
        # Re-read final entries (later neighbours may have improved them).
        self._pending_delta = [self.table.entry(d).as_line() for d in sorted(dedup)]
        del self._inbox[phase]
        self.phase = phase
        if self.phase >= self.total_phases:
            self.done = True
            self._finish()
        else:
            self._send_phase(self.phase + 1)

    def _finish(self) -> None:
        # Publish routes to the site so send_to()/forwarding work.
        self.site.next_hop.update(self.table.as_next_hop_map())
        self.site.trace(
            "routing.done",
            phase=self.phase,
            routes=len(self.table),
            messages=self.messages_sent,
        )
        if self.on_done is not None:
            self.on_done()


def run_pcs_phase_protocol(
    sites: List[SiteBase], total_phases: int
) -> Dict[SiteId, PhasedBellmanFord]:
    """Attach a :class:`PhasedBellmanFord` to every site and start them all.

    Returns the protocol instances keyed by site id. The caller runs the
    simulator; each instance's ``done`` flag (and the sites' ``next_hop``
    tables) are valid afterwards.
    """
    protos = {s.sid: PhasedBellmanFord(s, total_phases) for s in sites}
    for s in sites:
        protos[s.sid].start()
    return protos
