"""The asyncio admission frontend: bounded queue in, resident network out.

:class:`AdmissionService` accepts :class:`~repro.workloads.jobs.JobSpec`
submissions from any number of producers and pumps them into one
:class:`~repro.service.resident.ResidentSimulation`:

* **Backpressure** — the submission queue is bounded. ``await submit``
  suspends the producer while the queue is full (wall-clock backpressure,
  counted); :meth:`submit_nowait` rejects instead (load shedding,
  counted). Queue depth therefore never exceeds ``queue_capacity`` — the
  soak's bounded-memory contract starts here.
* **Metrics** — plain counters on :class:`ServiceStats` always; mirrored
  into ``repro.obs`` counters (``service.submitted`` / ``admitted`` /
  ``rejected`` / ``queue_full`` / ``backpressure``) when the run has
  telemetry on. Admission decision latency (simulated time from arrival
  to accept/reject) feeds a :class:`~repro.obs.ReservoirTimer` whose
  windowed :meth:`~repro.obs.ReservoirTimer.snapshot` gives the soak its
  per-interval p50/p99.
* **Tickets** — ``await submit(job, want_ticket=True)`` returns a future
  resolved with the job's :class:`~repro.core.events.JobRecord` at
  decision time (hooked on ``MetricsCollector.on_decide``). The soak
  leaves tickets off: 10^5 futures would be pure overhead.
* **Degraded mode** — an optional circuit breaker (``degraded_floor``)
  watches the acceptance rate over a sliding window of decisions; while
  it sits below the floor, :meth:`submit_nowait` sheds instead of
  queueing (counted, plus ``service.degraded.*`` obs and a
  ``service.degraded`` gauge).
* **Graceful drain** — :meth:`drain` stops intake, pumps what's queued,
  advances the resident past the last deadline and resolves leftover
  tickets. ``async with`` does start/drain automatically.

The pump advances simulated time batch-by-batch to the latest queued
arrival, so producers ahead of the simulation experience backpressure
rather than unbounded queueing — the open-loop contract stays honest.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Deque, Dict, Optional

from repro.core.events import JobRecord
from repro.errors import ConfigError
from repro.obs.telemetry import ReservoirTimer
from repro.service.resident import ResidentSimulation
from repro.types import JobId
from repro.workloads.jobs import JobSpec

if TYPE_CHECKING:  # loaded by the service's own methods: batch imports never pay for it
    import asyncio

#: sentinel pushed by drain() to stop the pump after the queue empties
_STOP = object()


@dataclass
class ServiceStats:
    """Plain counters of one service lifetime (always on, obs or not)."""

    submitted: int = 0
    #: accept/reject decisions observed (every submitted job gets one)
    decided: int = 0
    admitted: int = 0
    rejected: int = 0
    #: submit_nowait() calls shed because the queue was full
    queue_full: int = 0
    #: await submit() calls that found the queue full and had to wait
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
        import asyncio

        self.res = res
        self.stats = ServiceStats()
        #: admission decision latency in simulated time; windowed
        #: snapshot() gives soak-interval percentiles
        self.latency = ReservoirTimer()
        self._queue: asyncio.Queue = asyncio.Queue(queue_capacity)
        self._hygiene_interval = hygiene_interval
        self._last_hygiene = 0.0
        self._tickets: Dict[JobId, asyncio.Future] = {}
        self._pump_task: Optional[asyncio.Task] = None
        self._closed = False
        #: degraded-mode circuit breaker: sliding window of accept/reject
        #: booleans; when the windowed acceptance rate drops below the
        #: floor, submit_nowait sheds (await submit still queues — the
        #: breaker protects the lossy fast path, not the backpressured one)
        self._degraded_floor = degraded_floor
        self._decisions: Optional[Deque[bool]] = (
            deque(maxlen=degraded_window) if degraded_floor is not None else None
        )
        self._degraded = False
        self._obs = res.resident.obs
        res.resident.metrics.on_decide = self._on_decide

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> None:
        """Start the pump (requires a running event loop)."""
        import asyncio

        if self._pump_task is None:
            self._pump_task = asyncio.get_running_loop().create_task(self._pump())

    async def __aenter__(self) -> "AdmissionService":
        self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.drain()

    async def drain(self) -> None:
        """Stop intake, flush the queue, run the resident dry.

        Idempotent. After this returns: every submitted job is decided,
        every ticket resolved, and the resident has advanced past the last
        deadline plus the config's drain margin.
        """
        if self._closed:
            return
        self._closed = True
        await self._queue.put(_STOP)
        if self._pump_task is not None:
            await self._pump_task
        self.res.drain()
        self.res.hygiene()
        for fut in self._tickets.values():
            if not fut.done():  # pragma: no cover - defensive: drain decides all
                fut.set_result(None)
        self._tickets.clear()

    # -- submission ------------------------------------------------------------

    async def submit(
        self, job: JobSpec, want_ticket: bool = False
    ) -> Optional[asyncio.Future]:
        """Enqueue one job, suspending while the queue is full.

        Returns a decision future when ``want_ticket``, else None.
        """
        if self._closed:
            raise ConfigError("admission service is draining; submission refused")
        import asyncio

        fut: Optional[asyncio.Future] = None
        if want_ticket:
            fut = asyncio.get_running_loop().create_future()
            self._tickets[job.job] = fut
        if self._queue.full():
            self.stats.backpressure_waits += 1
            if self._obs is not None:
                self._obs.inc("service.backpressure")
        await self._queue.put(job)
        self._note_submitted()
        return fut

    def submit_nowait(self, job: JobSpec) -> bool:
        """Enqueue without waiting; False (and a counter) when shed.

        Sheds unconditionally while the degraded breaker is open: when the
        network is rejecting nearly everything, queueing more work only
        adds admission latency for jobs that will be refused anyway.
        """
        import asyncio

        if self._closed:
            raise ConfigError("admission service is draining; submission refused")
        if self._degraded:
            self.stats.shed_degraded += 1
            if self._obs is not None:
                self._obs.inc("service.degraded.shed")
            return False
        try:
            self._queue.put_nowait(job)
        except asyncio.QueueFull:
            self.stats.queue_full += 1
            if self._obs is not None:
                self._obs.inc("service.queue_full")
            return False
        self._note_submitted()
        return True

    def _note_submitted(self) -> None:
        self.stats.submitted += 1
        depth = self._queue.qsize()
        if depth > self.stats.max_queue_depth:
            self.stats.max_queue_depth = depth
        if self._obs is not None:
            self._obs.inc("service.submitted")

    @property
    def queue_depth(self) -> int:
        return self._queue.qsize()

    @property
    def degraded(self) -> bool:
        """True while the windowed acceptance rate sits below the floor."""
        return self._degraded

    def _update_breaker(self, accepted: bool) -> None:
        window = self._decisions
        if window is None:
            return
        window.append(accepted)
        if len(window) < window.maxlen:  # type: ignore[operator]
            return  # not enough evidence yet — never trip on a cold window
        rate = sum(window) / len(window)
        degraded = rate < self._degraded_floor
        if degraded and not self._degraded:
            self.stats.degraded_entered += 1
            if self._obs is not None:
                self._obs.inc("service.degraded.entered")
        if degraded != self._degraded:
            self._degraded = degraded
            if self._obs is not None:
                self._obs.gauge("service.degraded", 1.0 if degraded else 0.0)

    # -- pump -------------------------------------------------------------------

    async def _pump(self) -> None:
        import asyncio

        stopping = False
        while not stopping:
            head = await self._queue.get()
            batch = []
            if head is _STOP:
                stopping = True
                self._queue.task_done()
            else:
                batch.append(head)
            while not stopping:
                try:
                    nxt = self._queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if nxt is _STOP:
                    stopping = True
                    self._queue.task_done()
                else:
                    batch.append(nxt)
            if batch:
                self.res.pump(batch)
                for _ in batch:
                    self._queue.task_done()
                self._maybe_hygiene()
            # yield so producers blocked on a full queue can refill it
            await asyncio.sleep(0)

    def _maybe_hygiene(self) -> None:
        if self._hygiene_interval is None:
            return
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
            if self._obs is not None:
                self._obs.inc("service.admitted")
        else:
            self.stats.rejected += 1
            if self._obs is not None:
                self._obs.inc("service.rejected")
        fut = self._tickets.pop(rec.job, None)
        if fut is not None and not fut.done():
            fut.set_result(rec)
