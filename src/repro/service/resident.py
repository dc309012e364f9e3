"""The resident simulation: an always-on network fed incrementally.

:class:`ResidentSimulation` wraps the runner's
:class:`~repro.experiments.runner.ResidentNetwork` (phase 1 already done —
topology built, routing converged) and adds the streaming verbs the
admission service needs: :meth:`feed` jobs whose arrivals lie in the
future, :meth:`advance_to` a simulated time, :meth:`drain` past the last
deadline, and pump-driven :meth:`hygiene` (site pruning plus collector
folding). Job scheduling, pruning, the leak audit and summaries are the
resident's own — the same code the batch runner runs.

Time discipline: job times are workload-relative (like every
:class:`~repro.workloads.jobs.JobSpec`); the resident shifts them by setup
time internally. The caller must feed a job *before* advancing past its
arrival — :meth:`feed` raises otherwise, because a submission scheduled in
the past would silently reorder the run relative to its batch replay.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from repro.errors import ConfigError
from repro.experiments.runner import (
    ExperimentConfig,
    ResidentNetwork,
    build_resident,
)
from repro.metrics.summary import ExperimentSummary
from repro.types import Time
from repro.workloads.jobs import JobSpec


class ResidentSimulation:
    """A built, routed, live network that accepts jobs incrementally.

    ``fold=True`` enables collector record folding during hygiene — the
    memory-flatness mode the soak runs in. Leave it off (default) when the
    run's summary must be bit-identical to a batch replay: folding swaps
    ``np.mean`` for exact-sum arithmetic in the summary means, which is
    equal only up to float associativity.

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
    ) -> None:
        self.resident: ResidentNetwork = build_resident(config)
        self.resident.arm_faults(
            default_horizon=fault_horizon if fault_horizon is not None else config.duration
        )
        self.fold_enabled = fold
        self.n_fed = 0
        self.last_deadline: Time = 0.0
        self._max_arrival: Time = 0.0

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

    # -- jobs ----------------------------------------------------------------

    def feed(self, jobs: Iterable[JobSpec]) -> int:
        """Schedule submissions for ``jobs``; returns how many.

        Every arrival must be ``>= self.now`` — feeding the past would
        diverge from the batch replay of the same stream.
        """
        n = 0
        now = self.now
        for job in jobs:
            if job.arrival < now:
                raise ConfigError(
                    f"job {job.job} arrives at {job.arrival} but the resident "
                    f"is already at {now}; feed jobs before advancing past them"
                )
            self.resident.schedule_job(job)
            if job.deadline > self.last_deadline:
                self.last_deadline = job.deadline
            if job.arrival > self._max_arrival:
                self._max_arrival = job.arrival
            n += 1
        self.n_fed += n
        return n

    def pump(self, jobs: Iterable[JobSpec]) -> int:
        """Feed a batch, then advance to its latest arrival."""
        n = self.feed(jobs)
        self.advance_to(self._max_arrival)
        return n

    def drain(self, margin: Optional[Time] = None) -> None:
        """Advance past every fed job's deadline plus ``margin``.

        Mirrors the batch horizon ``last_deadline + drain_margin`` (the
        config's margin when not given), so a drained service run and its
        batch replay stop at the same simulated time.
        """
        if margin is None:
            margin = self.resident.config.drain_margin
        self.advance_to(self.last_deadline + margin)

    # -- memory hygiene -------------------------------------------------------

    def hygiene(self) -> None:
        """One pruning pass: sites forget settled history, and — when
        folding is on — the collector folds records whose deadlines have
        passed into exact aggregates."""
        self.resident.prune_pass()
        if self.fold_enabled:
            self.resident.metrics.fold_before(self.resident.sim.now)

    def unfinished_plan_records(self) -> int:
        """Leak audit: committed-but-unfinished executor records (see
        :meth:`ResidentNetwork.unfinished_plan_records`)."""
        return self.resident.unfinished_plan_records()

    # -- results ---------------------------------------------------------------

    def live_records(self) -> int:
        """Unfolded job records still held by the collector."""
        return len(self.resident.metrics.jobs)

    def guarantee_ratio(self) -> float:
        return self.resident.metrics.guarantee_ratio()

    def summarize(self, label: Optional[str] = None) -> ExperimentSummary:
        """Summary over everything decided so far (folded + live)."""
        return self.resident.summarize(label)

    def scalar_metrics(self) -> dict:
        """Numeric summary fields (same shape as ``RunResult.scalar_metrics``)."""
        return self.resident.scalar_metrics()

    def capacities(self) -> List[float]:
        return self.resident.capacities()
