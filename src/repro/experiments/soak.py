"""E12 and E13 — the long-lived admission soak, on a still or a churning network.

One resident network, one open-loop arrival stream, 10^5–10^6 jobs:
:func:`run_soak` drives the resident service of :mod:`repro.service`
until ``target_jobs`` have been submitted and the network has drained,
sampling as it goes. The report answers the questions batch experiments
cannot:

* does throughput (jobs/sec, wall) hold over the whole run?
* do the *interval* admission-latency percentiles (windowed
  :meth:`~repro.obs.ReservoirTimer.snapshot`, not the whole-run average)
  stay put?
* is memory flat? — current RSS over time, collector records folded
  (:meth:`~repro.metrics.collector.MetricsCollector.fold_before`), sites
  pruned, and zero leaked executor records after the drain.

E13 is the same soak with a fault plan (``faults``, e.g.
``"sites=12,downtime=40,joins=4,join_links=3"``) on oracle routing: sites
churn (down/up windows with rejoin handshakes) while new sites join
mid-flight, each join repairing the shared routing tables incrementally
(:mod:`repro.membership.repair`). Every sample and report carries the
survivability ledger — joins applied, rejoins, routing rows repaired,
spheres refreshed, site-down events, jobs dropped at dead origins, jobs
shed — and the report's ``tables_converged`` bit re-derives every shared
table from scratch and compares it bit for bit with the repaired one.
Without faults the ledger is all zeros and ``tables_converged`` is 1.

The intake follows ``degraded_floor``. Without a floor it is
:meth:`~repro.service.resident.ResidentSimulation.submit`: a full queue
stalls the arrivals until the pump has run it. With one it is the lossy
:meth:`~repro.service.resident.ResidentSimulation.submit_nowait`: when the
queue is full or the breaker is open (windowed acceptance rate below the
floor), jobs are shed and counted, so churn cannot stall the clock that
drives it.

Determinism: the simulated side (jobs, decisions, GR, admission-latency
percentiles, the ledger) is a pure function of the seeds; only
wall-clock and RSS figures are machine-dependent. The e2e workload
``soak48`` (48 sites, ρ 0.6, 8 000 jobs) pins the former through its
``scalar_metrics`` digest and bounds the latter;
``tests/service/test_soak_fast.py`` holds the leak, queue-bound and
RSS-flatness contracts and ``tests/experiments/test_chaos.py`` the
survivability ones in tier 1; the nightly workflow pins the counts of a
10^5-job faulted soak.

CLI: ``rtds soak`` (see EXPERIMENTS.md §E12 and §E13).
"""

from __future__ import annotations

import itertools
import json
import math
import pathlib
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional

from repro.errors import ConfigError, WorkloadError
from repro.experiments.runner import ExperimentConfig
from repro.faults.injector import FaultStats
from repro.membership.manager import MembershipStats
from repro.obs.telemetry import current_rss_mb
from repro.service.resident import ResidentSimulation, check_intake
from repro.workloads.arrivals import PoissonProcess, parse_arrival_spec
from repro.workloads.openloop import OpenLoopSpec, open_loop_jobs, open_loop_rate

#: jobs the lossy intake submits between pumps (keeps the queue shallow
#: without a pump per job)
LOSSY_BATCH = 64


@dataclass
class SoakConfig:
    """Declarative description of one soak run."""

    n_sites: int = 48
    #: arrival spec (:func:`~repro.workloads.arrivals.parse_arrival_spec`)
    #: or "auto": Poisson calibrated to ``rho`` of aggregate capacity
    arrival: str = "auto"
    rho: float = 0.6
    target_jobs: int = 100_000
    queue_capacity: int = 1024
    laxity_factor: float = 3.0
    #: decisions between samples (also the latency snapshot window)
    sample_every: int = 2_000
    algorithm: str = "rtds"
    routing_mode: str = "protocol"
    seed: int = 0
    #: fault spec (:meth:`~repro.faults.plan.FaultPlan.from_spec`), e.g.
    #: "sites=12,downtime=40,joins=4,join_links=3" — the resident arms it
    #: before intake (joins need ``routing_mode="oracle"``)
    faults: Optional[str] = None
    #: window the plan draws its events over; None = the stream's expected
    #: span plus 10% (:meth:`fault_span`)
    fault_horizon: Optional[float] = None
    #: acceptance-rate floor of the admission breaker; setting it switches
    #: the intake to the lossy ``submit_nowait`` (None = backpressure)
    degraded_floor: Optional[float] = None

    def __post_init__(self) -> None:
        # the first three would otherwise fail only once the network is
        # built, as a TopologyError or WorkloadError the CLI does not catch
        if self.n_sites < 2:
            raise ConfigError(f"n_sites must be >= 2 (one site has no network), got {self.n_sites}")
        if not 0 <= self.rho < math.inf:
            raise ConfigError(f"rho must be >= 0 and finite, got {self.rho}")
        if not 0 < self.laxity_factor < math.inf:
            raise ConfigError(f"laxity_factor must be > 0 and finite, got {self.laxity_factor}")
        if self.target_jobs < 1:
            raise ConfigError("target_jobs must be >= 1")
        if self.sample_every < 1:
            raise ConfigError("sample_every must be >= 1")
        check_intake(self.queue_capacity, self.degraded_floor)
        if self.arrival != "auto":
            try:
                parse_arrival_spec(self.arrival)  # fail before building anything
            except WorkloadError as err:
                raise ConfigError(str(err)) from None
        if self.faults:
            self.fault_plan()  # fail before building anything

    def fault_plan(self):
        """The parsed :class:`~repro.faults.plan.FaultPlan` (None without one)."""
        if not self.faults:
            return None
        from repro.faults import FaultPlan

        return FaultPlan.from_spec(self.faults)

    def fault_span(self) -> Optional[float]:
        """The span the fault plan draws its events over (None without faults).

        ``fault_horizon`` when set; otherwise the stream's expected span at
        the ``rho`` rate plus a 10% margin, so churn runs through the
        drain's tail. The soak network is speed-homogeneous — one unit per
        base site — so the rate is known before anything is built.
        """
        if self.fault_horizon is not None or not self.faults:
            return self.fault_horizon
        rate = open_loop_rate(self.rho, [1.0] * self.n_sites, seed=self.seed)
        return 1.1 * self.target_jobs / rate

    def experiment_config(self) -> ExperimentConfig:
        """The resident network's config (workload knobs unused; the
        surplus window is the runner's default)."""
        topo = {
            "n": self.n_sites,
            "p": min(1.0, 4.0 / max(1, self.n_sites - 1)),
            "delay_range": (0.2, 1.0),
        }
        plan = self.fault_plan()
        kwargs = {}
        if plan is not None and plan.perturbs_network() and self.algorithm == "rtds":
            from repro.core.config import RTDSConfig
            from repro.faults import hardened

            kwargs["rtds"] = hardened(RTDSConfig())
        return ExperimentConfig(
            topology="erdos_renyi",
            topology_kwargs=topo,
            algorithm=self.algorithm,
            routing_mode=self.routing_mode,
            seed=self.seed,
            label=f"soak[{self.arrival}]",
            faults=plan,
            **kwargs,
        )

    def open_loop_spec(self, capacities: List[float]) -> OpenLoopSpec:
        """The job stream: arrival process resolved against the network;
        the jobs are :class:`~repro.workloads.openloop.OpenLoopSpec`'s
        default ``"small"`` mix with its 0.2 deadline jitter."""
        if self.arrival == "auto":
            process = PoissonProcess(open_loop_rate(self.rho, capacities, seed=self.seed))
        else:
            process = parse_arrival_spec(self.arrival)
        return OpenLoopSpec(
            n_sites=self.n_sites,
            process=process,
            laxity_factor=self.laxity_factor,
            seed=self.seed + 7,
        )


@dataclass
class SoakSample:
    """One point on the soak's trajectory (taken every ``sample_every``)."""

    jobs_decided: int
    wall_s: float
    sim_time: float
    #: interval throughput since the previous sample (wall clock)
    jobs_per_sec: float
    guarantee_ratio: float
    #: interval (windowed) admission-latency percentiles, simulated time
    lat_p50: float
    lat_p99: float
    queue_depth: int
    rss_mb: float
    #: collector records still live (unfolded) — flat when folding works
    live_records: int
    folded: int
    #: survivability ledger so far (zeros without faults)
    joins_applied: int
    rejoins: int
    repaired_rows: int
    site_down_events: int
    shed_total: int
    degraded: int


@dataclass
class SoakReport:
    """Everything one soak run measured; ``n_jobs`` counts decisions,
    i.e. the ``submitted`` stream minus what the lossy intake shed."""

    config: Dict[str, object]
    n_jobs: int
    wall_s: float
    jobs_per_sec: float
    sim_time: float
    guarantee_ratio: float
    effective_ratio: float
    #: cumulative admission-latency percentiles (simulated time)
    lat_p50: float
    lat_p99: float
    lat_mean: float
    max_queue_depth: int
    backpressure_waits: int
    rss_peak_mb: float
    rss_final_mb: float
    #: RSS growth over the final 80% of the run as a fraction of peak —
    #: the < 0.05 memory-flatness acceptance gate
    rss_growth_final80: float
    #: executor records leaked past the drain (must be 0)
    leaked_unfinished: int
    live_records_final: int
    folded_total: int
    #: jobs the stream offered, and what the lossy intake shed of them
    submitted: int
    shed_queue_full: int
    shed_degraded: int
    degraded_entered: int
    #: membership ledger
    joins_applied: int
    rejoins: int
    links_added: int
    repaired_rows: int
    spheres_refreshed: int
    #: churn ledger
    site_down_events: int
    jobs_dropped: int
    #: gate-blocked executor records reaped by hygiene (lost results)
    abandoned_reaped: int
    #: 1 iff every repaired shared table equals a from-scratch rebuild
    tables_converged: int
    samples: List[SoakSample] = field(default_factory=list)

    def scalar_metrics(self) -> Dict[str, float]:
        """Numeric fields only (the bench-gate surface)."""
        out = {}
        for k, v in asdict(self).items():
            if isinstance(v, (int, float)):
                out[k] = v
        return out

    def write_samples_jsonl(self, path: pathlib.Path) -> None:
        """One JSON object per sample — the nightly soak's CI artifact."""
        with open(path, "w") as fh:
            for s in self.samples:
                fh.write(json.dumps(asdict(s), sort_keys=True) + "\n")


def run_soak(
    config: SoakConfig,
    progress: Optional[Callable[[SoakSample], None]] = None,
) -> SoakReport:
    """Run one soak to completion."""
    res = ResidentSimulation(
        config.experiment_config(),
        fold=True,
        fault_horizon=config.fault_span(),
        queue_capacity=config.queue_capacity,
        degraded_floor=config.degraded_floor,
    )
    spec = config.open_loop_spec(res.capacities())
    stats, metrics = res.stats, res.resident.metrics
    # an all-zero stats object stands in for a half that is switched off
    membership, injector = res.resident.membership, res.resident.injector
    mstats = membership.stats if membership is not None else MembershipStats()
    fstats = injector.stats if injector is not None else FaultStats()

    samples: List[SoakSample] = []
    t0 = time.perf_counter()
    rss0 = current_rss_mb() or 0.0
    state = {"last_wall": 0.0, "last_decided": 0, "next_at": config.sample_every}

    def take_sample() -> SoakSample:
        wall = time.perf_counter() - t0
        decided = stats.decided
        dt = wall - state["last_wall"]
        rate = (decided - state["last_decided"]) / dt if dt > 0 else 0.0
        window = res.latency.snapshot(qs=(50.0, 99.0))
        sample = SoakSample(
            jobs_decided=decided,
            wall_s=wall,
            sim_time=res.now,
            jobs_per_sec=rate,
            guarantee_ratio=metrics.guarantee_ratio(),
            lat_p50=window.get("p50", float("nan")),
            lat_p99=window.get("p99", float("nan")),
            queue_depth=res.queue_depth,
            rss_mb=current_rss_mb() or rss0,
            live_records=len(metrics.jobs),
            folded=metrics.n_folded,
            joins_applied=mstats.joins_applied,
            rejoins=mstats.rejoins,
            repaired_rows=mstats.repaired_rows,
            site_down_events=fstats.site_down_events,
            shed_total=stats.queue_full + stats.shed_degraded,
            degraded=int(res.degraded),
        )
        samples.append(sample)
        state["last_wall"] = wall
        state["last_decided"] = decided
        if progress is not None:
            progress(sample)
        return sample

    lossy = config.degraded_floor is not None
    jobs = itertools.islice(open_loop_jobs(spec), config.target_jobs)
    for i, job in enumerate(jobs):
        if lossy:
            res.submit_nowait(job)
        else:
            res.submit(job)
        if stats.decided >= state["next_at"]:
            take_sample()
            state["next_at"] = stats.decided + config.sample_every
        if lossy and i % LOSSY_BATCH == LOSSY_BATCH - 1:
            res.pump()
    res.drain()
    final = take_sample()

    wall = final.wall_s
    peak = max(s.rss_mb for s in samples)
    # every enqueued job is decided by now: 20% of target_jobs for the
    # backpressured soak, fewer when the lossy intake shed some
    cut = stats.decided * 0.2
    early = [s for s in samples if s.jobs_decided >= cut]
    rss_at_20 = early[0].rss_mb if early else samples[0].rss_mb
    growth = max(0.0, final.rss_mb - rss_at_20)
    lat = res.latency.percentiles(qs=(50.0, 99.0))
    shed = stats.queue_full + stats.shed_degraded

    return SoakReport(
        config=asdict(config),
        n_jobs=stats.decided,
        wall_s=wall,
        jobs_per_sec=stats.decided / wall if wall > 0 else 0.0,
        sim_time=res.now,
        guarantee_ratio=metrics.guarantee_ratio(),
        effective_ratio=metrics.effective_ratio(),
        lat_p50=lat["p50"],
        lat_p99=lat["p99"],
        lat_mean=res.latency.mean,
        max_queue_depth=stats.max_queue_depth,
        backpressure_waits=stats.backpressure_waits,
        rss_peak_mb=peak,
        rss_final_mb=final.rss_mb,
        rss_growth_final80=growth / peak if peak > 0 else 0.0,
        leaked_unfinished=res.resident.unfinished_plan_records(),
        live_records_final=len(metrics.jobs),
        folded_total=metrics.n_folded,
        submitted=stats.submitted + shed,
        shed_queue_full=stats.queue_full,
        shed_degraded=stats.shed_degraded,
        degraded_entered=stats.degraded_entered,
        **mstats.row(),
        site_down_events=fstats.site_down_events,
        jobs_dropped=fstats.jobs_dropped,
        abandoned_reaped=res.resident.abandoned_reaped,
        tables_converged=int(membership.verify_converged()) if membership else 1,
        samples=samples,
    )
