"""E13 — the chaos soak: a resident service surviving churn and joins.

E12 (:mod:`repro.experiments.soak`) proved the admission service holds
its throughput, latency and memory contracts on a *static* network. E13
re-runs that open-loop campaign on a network that refuses to sit still:
the fault plan keeps sites churning (down/up windows with rejoin
handshakes) while new sites join mid-flight — each join repairing the
shared routing tables incrementally (:mod:`repro.membership.repair`) and
refreshing the affected scheduling spheres.

:func:`run_chaos` runs E12's own loop
(:func:`repro.experiments.soak.run_soak`) and hands it two things. One is
the intake: it submits through
:meth:`~repro.service.admission.AdmissionService.submit_nowait` — the
*lossy* open-loop contract. When the queue is full or the degraded
breaker is open (windowed acceptance rate below ``degraded_floor``),
jobs are shed and counted instead of backpressuring the arrival process;
chaos must not be allowed to stall the clock that drives it.

The other is the survivability ledger that :class:`ChaosSample` and
:class:`ChaosReport` add on top of the E12 fields they inherit:
joins applied, rejoins observed, routing rows repaired, spheres
refreshed, site-down events, jobs dropped at dead origins — and the
final ``tables_converged`` bit, which re-derives every shared routing
table from scratch and compares bit-for-bit against the incrementally
repaired ones.

Determinism: like E12, everything simulated is a pure function of the
seeds; the nightly workflow runs ``ChaosConfig()``'s 10^5-job soak and
pins its counts, guarantee ratio and p99. CLI: ``rtds chaos``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import Callable, Optional

from repro.errors import ConfigError
from repro.experiments.soak import SoakConfig, SoakReport, SoakSample, run_soak
from repro.faults.injector import FaultStats
from repro.membership.manager import MembershipStats
from repro.service.admission import AdmissionService
from repro.workloads.openloop import open_loop_rate


@dataclass
class ChaosConfig:
    """Declarative description of one chaos soak."""

    n_sites: int = 32
    #: sites that join mid-run (drawn by the plan's JoinSpec)
    joins: int = 4
    #: links each joiner attaches with
    join_links: int = 3
    #: site-churn down/up windows over the run
    site_churn: int = 12
    mean_downtime: float = 40.0
    rho: float = 0.5
    arrival: str = "auto"
    target_jobs: int = 100_000
    queue_capacity: int = 1024
    laxity_factor: float = 3.0
    sample_every: int = 2_000
    #: admission breaker: shed submit_nowait below this acceptance rate
    degraded_floor: Optional[float] = 0.2
    degraded_window: int = 500
    #: window the plan draws churn/join times over; None = estimated from
    #: the arrival rate so chaos spans the whole run
    fault_horizon: Optional[float] = None
    seed: int = 0
    telemetry: bool = False

    def __post_init__(self) -> None:
        if self.joins < 0 or self.site_churn < 0:
            raise ConfigError("joins and site_churn must be >= 0")
        if self.joins == 0 and self.site_churn == 0:
            raise ConfigError(
                "a chaos soak needs chaos: set joins and/or site_churn "
                "(for the fault-free campaign use run_soak / rtds soak)"
            )
        self.soak_config()  # validate the composed spec before building

    def fault_spec(self) -> str:
        """The plan spec string the chaos knobs compose to."""
        parts = []
        if self.site_churn > 0:
            parts.append(f"sites={self.site_churn}")
            parts.append(f"downtime={self.mean_downtime:g}")
        if self.joins > 0:
            parts.append(f"joins={self.joins}")
            parts.append(f"join_links={self.join_links}")
        return ",".join(parts)

    def soak_config(self) -> SoakConfig:
        """The underlying E12 soak shape (oracle routing: joins repair
        the shared vectorized tables, so the protocol setup phase is
        replaced by precomputed-table installation); the job mix, hygiene
        interval and drain margin are the soak's."""
        return SoakConfig(
            n_sites=self.n_sites,
            arrival=self.arrival,
            rho=self.rho,
            target_jobs=self.target_jobs,
            queue_capacity=self.queue_capacity,
            laxity_factor=self.laxity_factor,
            sample_every=self.sample_every,
            algorithm="rtds",
            routing_mode="oracle",
            seed=self.seed,
            telemetry=self.telemetry,
            faults=self.fault_spec(),
            fault_horizon=self.fault_horizon,
            degraded_floor=self.degraded_floor,
            degraded_window=self.degraded_window,
        )


@dataclass
class ChaosSample(SoakSample):
    """One point on the chaos trajectory: the soak sample plus the
    survivability ledger so far."""

    joins_applied: int
    rejoins: int
    repaired_rows: int
    site_down_events: int
    shed_total: int
    degraded: int


@dataclass
class ChaosReport(SoakReport):
    """Everything one chaos soak measured: the soak report (``n_jobs``
    counts decisions, i.e. submitted minus shed) plus the ledgers."""

    submitted: int = 0
    shed_queue_full: int = 0
    shed_degraded: int = 0
    degraded_entered: int = 0
    #: membership ledger
    joins_applied: int = 0
    rejoins: int = 0
    links_added: int = 0
    repaired_rows: int = 0
    spheres_refreshed: int = 0
    #: churn ledger
    site_down_events: int = 0
    jobs_dropped: int = 0
    #: gate-blocked executor records reaped by hygiene (lost results)
    abandoned_reaped: int = 0
    #: 1 iff every repaired shared table equals a from-scratch rebuild
    tables_converged: int = 1


def _estimate_horizon(config: ChaosConfig) -> float:
    """Simulated span the fault plan should cover, from the arrival rate.

    The chaos network is speed-homogeneous, so aggregate capacity is one
    unit per base site and the open-loop rate is known before building
    anything. A 10% margin keeps churn running through the drain's tail.
    """
    rate = open_loop_rate(config.rho, [1.0] * config.n_sites, seed=config.seed)
    return 1.1 * config.target_jobs / rate


def _lossy_intake(svc: AdmissionService, jobs, after_each) -> None:
    """E13's intake: shed (counted) instead of backpressuring."""
    for i, job in enumerate(jobs):
        svc.submit_nowait(job)
        after_each()
        if i % 64 == 63:
            # 64-job batches keep the queue shallow without a pump per job
            svc.pump()


def run_chaos(
    config: ChaosConfig,
    progress: Optional[Callable[[ChaosSample], None]] = None,
) -> ChaosReport:
    """Run one chaos soak to completion (synchronous wrapper)."""
    soak = config.soak_config()
    if soak.fault_horizon is None:
        soak = replace(soak, fault_horizon=_estimate_horizon(config))

    def ledger(res, svc):
        """Chaos sample/report constructors over the live counters (an
        all-zero stats object stands in for a half that is switched off)."""
        membership, injector = res.resident.membership, res.resident.injector
        mstats = membership.stats if membership is not None else MembershipStats()
        fstats = injector.stats if injector is not None else FaultStats()

        def sample(**core) -> ChaosSample:
            return ChaosSample(
                **core,
                joins_applied=mstats.joins_applied,
                rejoins=mstats.rejoins,
                repaired_rows=mstats.repaired_rows,
                site_down_events=fstats.site_down_events,
                shed_total=svc.stats.queue_full + svc.stats.shed_degraded,
                degraded=int(svc.degraded),
            )

        def report(**core) -> ChaosReport:
            core["config"] = asdict(config)
            return ChaosReport(
                **core,
                **mstats.row(),
                submitted=svc.stats.submitted,
                shed_queue_full=svc.stats.queue_full,
                shed_degraded=svc.stats.shed_degraded,
                degraded_entered=svc.stats.degraded_entered,
                site_down_events=fstats.site_down_events,
                jobs_dropped=fstats.jobs_dropped,
                abandoned_reaped=res.resident.abandoned_reaped,
                tables_converged=int(membership.verify_converged()) if membership else 1,
            )

        return sample, report

    return run_soak(soak, progress, intake=_lossy_intake, ledger=ledger)
