"""The admission service: a synchronous bounded intake in front of the
resident network.

:class:`AdmissionService` queues :class:`~repro.workloads.jobs.JobSpec`
submissions and pumps them, batch by batch, into one
:class:`~repro.service.resident.ResidentSimulation`:

* **Backpressure** — the submission queue is bounded. :meth:`submit`
  pumps the queued batch before it enqueues when the queue is full
  (backpressure, counted); :meth:`submit_nowait` rejects instead (load
  shedding, counted). Queue depth therefore never exceeds
  ``queue_capacity`` — the soak's bounded-memory contract starts here.
* **Metrics** — plain counters on :class:`ServiceStats`. Admission
  decision latency (simulated time from arrival to accept/reject) feeds
  a :class:`~repro.obs.ReservoirTimer` whose windowed
  :meth:`~repro.obs.ReservoirTimer.snapshot` gives the soak its
  per-interval p50/p99.
* **Degraded mode** — an optional circuit breaker (``degraded_floor``)
  watches the acceptance rate over a sliding window of decisions; while
  it sits below the floor, :meth:`submit_nowait` sheds instead of
  queueing (counted). Shed jobs are never decided, so the breaker cannot
  wait for decisions to close it: after shedding one window's worth of
  jobs it closes and starts a fresh window, which must fill again
  before it can trip.
* **Graceful drain** — :meth:`drain` pumps what is queued, advances the
  resident past the last deadline and closes intake.

Each :meth:`pump` advances simulated time to the latest queued arrival,
so a producer ahead of the simulation meets backpressure rather than
unbounded queueing — the open-loop contract stays honest. There is one
producer and one consumer, so the intake needs no event loop: the
producer decides when a batch runs (a full queue, its own cadence, or
the drain).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Optional

from repro.core.events import JobRecord
from repro.errors import ConfigError
from repro.obs.telemetry import ReservoirTimer
from repro.service.resident import ResidentSimulation
from repro.workloads.jobs import JobSpec


@dataclass
class ServiceStats:
    """Plain counters of one service lifetime."""

    submitted: int = 0
    #: accept/reject decisions observed (every submitted job gets one)
    decided: int = 0
    admitted: int = 0
    rejected: int = 0
    #: submit_nowait() calls shed because the queue was full
    queue_full: int = 0
    #: submit() calls that found the queue full and pumped it first
    backpressure_waits: int = 0
    max_queue_depth: int = 0
    #: submit_nowait() calls shed while the degraded breaker was open
    shed_degraded: int = 0
    #: times the windowed guarantee ratio fell below the degraded floor
    degraded_entered: int = 0


class AdmissionService:
    """Streaming admission over a resident simulation (see module docs)."""

    def __init__(
        self,
        res: ResidentSimulation,
        queue_capacity: int = 1024,
        hygiene_interval: Optional[float] = None,
        degraded_floor: Optional[float] = None,
        degraded_window: int = 200,
    ) -> None:
        if queue_capacity < 1:
            raise ConfigError(f"queue_capacity must be >= 1, got {queue_capacity}")
        if degraded_floor is not None and not 0.0 < degraded_floor <= 1.0:
            raise ConfigError(
                f"degraded_floor must be in (0, 1], got {degraded_floor}"
            )
        if degraded_window < 1:
            raise ConfigError(f"degraded_window must be >= 1, got {degraded_window}")
        self.res = res
        self.stats = ServiceStats()
        #: admission decision latency in simulated time; windowed
        #: snapshot() gives soak-interval percentiles
        self.latency = ReservoirTimer()
        self._queue: Deque[JobSpec] = deque()
        self._capacity = queue_capacity
        self._hygiene_interval = hygiene_interval
        self._last_hygiene = 0.0
        self._closed = False
        #: degraded-mode circuit breaker: sliding window of accept/reject
        #: booleans; when the windowed acceptance rate drops below the
        #: floor, submit_nowait sheds (submit still queues — the breaker
        #: protects the lossy fast path, not the backpressured one)
        self._degraded_floor = degraded_floor
        self._window = degraded_window
        self._decisions: Deque[bool] = deque(maxlen=degraded_window)
        self._degraded = False
        #: jobs shed since the breaker last opened
        self._shed_while_open = 0
        res.resident.metrics.on_decide = self._on_decide

    # -- lifecycle -------------------------------------------------------------

    def drain(self) -> None:
        """Close intake, pump what is queued, run the resident dry.

        Idempotent. After this returns every submitted job is decided, and
        the resident has advanced past the last deadline plus the config's
        drain margin.
        """
        if self._closed:
            return
        self._closed = True
        self.pump()
        self.res.drain()
        self.res.hygiene()

    # -- submission ------------------------------------------------------------

    def submit(self, job: JobSpec) -> None:
        """Enqueue one job; when the queue is full, pump it first."""
        if self._closed:
            raise ConfigError("admission service is draining; submission refused")
        if len(self._queue) >= self._capacity:
            self.stats.backpressure_waits += 1
            self.pump()
        self._queue.append(job)
        self._note_submitted()

    def submit_nowait(self, job: JobSpec) -> bool:
        """Enqueue without pumping; False (and a counter) when shed.

        Sheds unconditionally while the degraded breaker is open: when the
        network is rejecting nearly everything, queueing more work only
        adds admission latency for jobs that will be refused anyway. The
        shed that fills a window closes the breaker on a cleared window.
        """
        if self._closed:
            raise ConfigError("admission service is draining; submission refused")
        if self._degraded:
            self.stats.shed_degraded += 1
            self._shed_while_open += 1
            if self._shed_while_open == self._window:
                self._degraded = False
                self._decisions.clear()
            return False
        if len(self._queue) >= self._capacity:
            self.stats.queue_full += 1
            return False
        self._queue.append(job)
        self._note_submitted()
        return True

    def _note_submitted(self) -> None:
        self.stats.submitted += 1
        depth = len(self._queue)
        if depth > self.stats.max_queue_depth:
            self.stats.max_queue_depth = depth

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    @property
    def degraded(self) -> bool:
        """True while the windowed acceptance rate sits below the floor."""
        return self._degraded

    def _update_breaker(self, accepted: bool) -> None:
        floor = self._degraded_floor
        if floor is None:
            return
        window = self._decisions
        window.append(accepted)
        if len(window) < self._window:
            return  # not enough evidence yet — never trip on a cold window
        degraded = sum(window) / len(window) < floor
        if degraded and not self._degraded:
            self.stats.degraded_entered += 1
            self._shed_while_open = 0
        self._degraded = degraded

    # -- pump -------------------------------------------------------------------

    def pump(self) -> None:
        """Feed the queued batch to the resident (advancing it to the
        batch's latest arrival), then run hygiene when it is due."""
        if not self._queue:
            return
        batch, self._queue = self._queue, deque()
        self.res.pump(batch)
        if self._hygiene_interval is not None:
            if self.res.now - self._last_hygiene >= self._hygiene_interval:
                self.res.hygiene()
                self._last_hygiene = self.res.now

    # -- decision hook -----------------------------------------------------------

    def _on_decide(self, rec: JobRecord) -> None:
        self.stats.decided += 1
        self.latency.observe(rec.decided_at - rec.arrival)
        self._update_breaker(rec.outcome.accepted)
        if rec.outcome.accepted:
            self.stats.admitted += 1
        else:
            self.stats.rejected += 1
