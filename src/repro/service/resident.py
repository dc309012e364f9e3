"""The resident service: one always-on network fed through a bounded intake.

:class:`ResidentSimulation` wraps the runner's
:class:`~repro.experiments.runner.ResidentNetwork` (phase 1 already done —
topology built, routing converged) and is the whole streaming service the
E12 and E13 soaks drive:

* **Backpressure** — :meth:`submit` and :meth:`submit_nowait` queue
  :class:`~repro.workloads.jobs.JobSpec` submissions in a bounded queue.
  :meth:`submit` pumps a full queue before it enqueues (backpressure,
  counted); :meth:`submit_nowait` rejects instead (load shedding,
  counted). Queue depth never exceeds ``queue_capacity`` — the soak's
  bounded-memory contract starts here.
* **Pump** — :meth:`pump` feeds the queued batch, advances simulated time
  to its latest arrival, so a producer ahead of the simulation meets
  backpressure rather than unbounded queueing, and runs :meth:`hygiene`
  once :data:`HYGIENE_INTERVAL` has passed since the last pass — the
  network's one hygiene cadence (a batch run prunes only at each
  completion). One producer and one consumer need no event loop: the
  producer decides when a batch runs (a full queue, its own cadence, or
  :meth:`drain`).
* **Metrics** — plain counters on :class:`ServiceStats`; admission
  decision latency (simulated time from arrival to accept/reject) feeds
  a :class:`~repro.obs.ReservoirTimer` whose windowed
  :meth:`~repro.obs.ReservoirTimer.snapshot` gives the soak its
  per-interval p50/p99.
* **Degraded mode** — an optional circuit breaker (``degraded_floor``)
  watches the acceptance rate over the last :data:`DEGRADED_WINDOW`
  decisions; while it sits below the floor, :meth:`submit_nowait` sheds
  instead of queueing (counted). Shed jobs are never decided, so after
  shedding one window's worth of jobs the breaker closes on a fresh
  window, which must fill again before it can trip.

Time discipline: job times are workload-relative (like every
:class:`~repro.workloads.jobs.JobSpec`); the resident shifts them by setup
time internally. A job must be fed *before* the simulation advances past
its arrival — :meth:`feed` raises otherwise, because a submission
scheduled in the past would silently reorder the run relative to its
batch replay.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Iterable, List, Optional

from repro.core.events import JobRecord
from repro.errors import ConfigError
from repro.experiments.runner import (
    DRAIN_MARGIN,
    ExperimentConfig,
    ResidentNetwork,
    build_resident,
)
from repro.metrics.summary import ExperimentSummary
from repro.obs.telemetry import ReservoirTimer
from repro.types import Time
from repro.workloads.jobs import JobSpec

#: simulated-time units between the pump's hygiene passes (prune + fold)
HYGIENE_INTERVAL = 200.0
#: decisions the degraded breaker's acceptance rate is taken over
DEGRADED_WINDOW = 500


def check_intake(queue_capacity: int, degraded_floor: Optional[float]) -> None:
    """Refuse an intake that could never queue or a floor outside (0, 1]."""
    if queue_capacity < 1:
        raise ConfigError(f"queue_capacity must be >= 1, got {queue_capacity}")
    if degraded_floor is not None and not 0.0 < degraded_floor <= 1.0:
        raise ConfigError(f"degraded_floor must be in (0, 1], got {degraded_floor}")


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


class ResidentSimulation:
    """A built, routed, live network behind a bounded intake (see module docs).

    ``fold=True`` enables collector record folding during hygiene — the
    memory-flatness mode the soak runs in. Leave it off (default) when the
    run's summary must be bit-identical to a batch replay: folding swaps
    ``np.mean`` for exact-sum arithmetic in the summary means, which is
    equal only up to float associativity. Pruning alone is
    decision-neutral, so hygiene never breaks that identity.

    ``fault_horizon`` bounds the window over which the config's fault
    plan (churn windows, joins) draws its events; it defaults to the
    config's batch ``duration``. Arming is a no-op for fault-free
    configs, so the service ≡ batch identity is untouched.
    """

    def __init__(
        self,
        config: ExperimentConfig,
        fold: bool = False,
        fault_horizon: Optional[Time] = None,
        queue_capacity: int = 1024,
        degraded_floor: Optional[float] = None,
    ) -> None:
        check_intake(queue_capacity, degraded_floor)
        self.resident: ResidentNetwork = build_resident(config)
        self.resident.arm_faults(
            default_horizon=fault_horizon if fault_horizon is not None else config.duration
        )
        self._fold = fold
        self._last_deadline: Time = 0.0
        self._max_arrival: Time = 0.0
        self._last_hygiene: Time = 0.0
        self.stats = ServiceStats()
        #: admission decision latency in simulated time; windowed
        #: snapshot() gives soak-interval percentiles
        self.latency = ReservoirTimer()
        self._queue: Deque[JobSpec] = deque()
        self._capacity = queue_capacity
        self._closed = False
        #: degraded-mode circuit breaker: sliding window of accept/reject
        #: booleans; when the windowed acceptance rate drops below the
        #: floor, submit_nowait sheds (submit still queues — the breaker
        #: protects the lossy fast path, not the backpressured one)
        self._degraded_floor = degraded_floor
        self._decisions: Deque[bool] = deque(maxlen=DEGRADED_WINDOW)
        self._degraded = False
        #: jobs shed since the breaker last opened
        self._shed_while_open = 0
        self.resident.metrics.on_decide = self._on_decide

    # -- time ----------------------------------------------------------------

    @property
    def now(self) -> Time:
        """Workload-relative current time (0 = workload start)."""
        return self.resident.sim.now - self.resident.shift

    def advance_to(self, t: Time) -> None:
        """Run the simulation up to workload-relative time ``t`` (inclusive).

        Monotone: a target in the past is a no-op, never an error — the
        pump calls this with "the latest arrival I have scheduled".
        """
        target = self.resident.shift + t
        if target > self.resident.sim.now:
            self.resident.sim.run(until=target)

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
            if self._shed_while_open == DEGRADED_WINDOW:
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

    # -- pump and drain --------------------------------------------------------

    def feed(self, jobs: Iterable[JobSpec]) -> None:
        """Schedule submissions for ``jobs`` at their arrivals.

        Every arrival must be ``>= self.now`` — feeding the past would
        diverge from the batch replay of the same stream.
        """
        now = self.now
        for job in jobs:
            if job.arrival < now:
                raise ConfigError(
                    f"job {job.job} arrives at {job.arrival} but the resident "
                    f"is already at {now}; feed jobs before advancing past them"
                )
            self.resident.schedule_job(job)
            if job.deadline > self._last_deadline:
                self._last_deadline = job.deadline
            if job.arrival > self._max_arrival:
                self._max_arrival = job.arrival

    def pump(self) -> None:
        """Feed the queued batch, advance to its latest arrival, then run
        hygiene when :data:`HYGIENE_INTERVAL` has passed since the last pass."""
        if not self._queue:
            return
        batch, self._queue = self._queue, deque()
        self.feed(batch)
        self.advance_to(self._max_arrival)
        if self.now - self._last_hygiene >= HYGIENE_INTERVAL:
            self.hygiene()
            self._last_hygiene = self.now

    def drain(self) -> None:
        """Close intake, pump what is queued, run the resident dry.

        Idempotent. After this returns every submitted job is decided, and
        the resident has advanced past the last deadline plus the drain
        margin — the batch horizon, so a drained service run and its batch
        replay stop at the same simulated time.
        """
        if self._closed:
            return
        self._closed = True
        self.pump()
        self.advance_to(self._last_deadline + DRAIN_MARGIN)
        self.hygiene()

    def hygiene(self) -> int:
        """One pruning pass: sites forget settled history, and — when
        folding is on — the collector folds records whose deadlines have
        passed into exact aggregates. Returns the plan reservations pruned."""
        pruned = self.resident.prune_pass()
        if self._fold:
            self.resident.metrics.fold_before(self.resident.sim.now)
        return pruned

    # -- decision hook -----------------------------------------------------------

    def _on_decide(self, rec: JobRecord) -> None:
        self.stats.decided += 1
        self.latency.observe(rec.decided_at - rec.arrival)
        accepted = rec.outcome.accepted
        if accepted:
            self.stats.admitted += 1
        else:
            self.stats.rejected += 1
        if self._degraded_floor is None:
            return
        window = self._decisions
        window.append(accepted)
        if len(window) < DEGRADED_WINDOW:
            return  # not enough evidence yet — never trip on a cold window
        degraded = sum(window) / DEGRADED_WINDOW < self._degraded_floor
        if degraded and not self._degraded:
            self.stats.degraded_entered += 1
            self._shed_while_open = 0
        self._degraded = degraded

    # -- results ---------------------------------------------------------------

    def summarize(self, label: Optional[str] = None) -> ExperimentSummary:
        """Summary over everything decided so far (folded + live)."""
        return self.resident.summarize(label)

    def scalar_metrics(self) -> dict:
        """Numeric summary fields (same shape as ``RunResult.scalar_metrics``)."""
        return self.resident.scalar_metrics()

    def capacities(self) -> List[float]:
        return self.resident.capacities()
