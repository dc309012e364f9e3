"""E12 — the long-lived admission soak.

One resident network, one open-loop arrival stream, 10^5–10^6 jobs:
:func:`run_soak` drives the admission service of :mod:`repro.service`
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

Determinism: the simulated side (jobs, decisions, GR, admission-latency
percentiles) is a pure function of the seeds; only wall-clock and RSS
figures are machine-dependent. The e2e workload ``soak48`` (48 sites,
ρ 0.6, 8 000 jobs) pins the former through its ``scalar_metrics`` digest
and bounds the latter; ``tests/service/test_soak_fast.py`` holds the
leak, queue-bound and RSS-flatness contracts in tier 1.

CLI: ``rtds soak`` (see EXPERIMENTS.md §E12).
"""

from __future__ import annotations

import itertools
import json
import pathlib
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional

from repro.errors import ConfigError, WorkloadError
from repro.experiments.runner import ExperimentConfig
from repro.obs.telemetry import current_rss_mb
from repro.service.admission import AdmissionService
from repro.service.resident import ResidentSimulation
from repro.workloads.arrivals import PoissonProcess, parse_arrival_spec
from repro.workloads.openloop import OpenLoopSpec, open_loop_jobs, open_loop_rate

#: the E12 network: the E9 macro bench's 48-site wide-area graph
SOAK_TOPOLOGY = {"n": 48, "p": 4.0 / 47.0, "delay_range": (0.2, 1.0)}


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
    dag_size: str = "small"
    deadline_jitter: float = 0.2
    #: decisions between samples (also the latency snapshot window)
    sample_every: int = 2_000
    #: simulated-time units between hygiene passes (prune + fold)
    hygiene_interval: float = 200.0
    surplus_window: float = 200.0
    drain_margin: float = 300.0
    algorithm: str = "rtds"
    routing_mode: str = "protocol"
    seed: int = 0
    telemetry: bool = False
    #: fault spec (:meth:`~repro.faults.plan.FaultPlan.from_spec`), e.g.
    #: "sites=4,downtime=40,joins=2" — the resident arms it before intake
    faults: Optional[str] = None
    #: window the plan draws its events over; defaults to the config's
    #: batch ``duration`` (usually too short for a soak — set it)
    fault_horizon: Optional[float] = None
    #: acceptance-rate floor of the admission breaker (None = breaker off)
    degraded_floor: Optional[float] = None
    degraded_window: int = 200

    def __post_init__(self) -> None:
        if self.target_jobs < 1:
            raise ConfigError("target_jobs must be >= 1")
        if self.sample_every < 1:
            raise ConfigError("sample_every must be >= 1")
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

    def experiment_config(self) -> ExperimentConfig:
        """The resident network's config (workload knobs unused)."""
        topo = dict(SOAK_TOPOLOGY)
        if self.n_sites != 48:
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
            surplus_window=self.surplus_window,
            drain_margin=self.drain_margin,
            seed=self.seed,
            telemetry=self.telemetry,
            label=f"soak[{self.arrival}]",
            faults=plan,
            **kwargs,
        )

    def open_loop_spec(self, capacities: List[float]) -> OpenLoopSpec:
        """The job stream: arrival process resolved against the network."""
        if self.arrival == "auto":
            process = PoissonProcess(
                open_loop_rate(
                    self.rho, capacities, dag_size=self.dag_size, seed=self.seed
                )
            )
        else:
            process = parse_arrival_spec(self.arrival)
        return OpenLoopSpec(
            n_sites=self.n_sites,
            process=process,
            laxity_factor=self.laxity_factor,
            dag_size=self.dag_size,
            deadline_jitter=self.deadline_jitter,
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


@dataclass
class SoakReport:
    """Everything one soak run measured."""

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


def _backpressured_intake(svc: AdmissionService, jobs, after_each) -> None:
    """E12's intake: ``submit`` — a full queue stalls the arrivals until
    the pump has run it."""
    for job in jobs:
        svc.submit(job)
        after_each()


def run_soak(
    config: SoakConfig,
    progress: Optional[Callable[[SoakSample], None]] = None,
    *,
    intake: Callable = _backpressured_intake,
    ledger: Optional[Callable] = None,
) -> SoakReport:
    """Run one soak to completion.

    The loop is E13's too (:mod:`repro.experiments.chaos`), which passes
    its own ``intake(svc, jobs, after_each)`` — the function submitting
    the stream, ``after_each()`` being the per-job sampling hook — and a
    ``ledger(res, svc)`` returning the ``(sample, report)`` constructors
    that add its fields to the core keywords.
    """
    res = ResidentSimulation(
        config.experiment_config(), fold=True, fault_horizon=config.fault_horizon
    )
    spec = config.open_loop_spec(res.capacities())
    svc = AdmissionService(
        res,
        queue_capacity=config.queue_capacity,
        hygiene_interval=config.hygiene_interval,
        degraded_floor=config.degraded_floor,
        degraded_window=config.degraded_window,
    )

    make_sample, make_report = ledger(res, svc) if ledger else (SoakSample, SoakReport)

    samples: List[SoakSample] = []
    t0 = time.perf_counter()
    rss0 = current_rss_mb() or 0.0
    state = {"last_wall": 0.0, "last_decided": 0, "next_at": config.sample_every}

    def take_sample() -> SoakSample:
        wall = time.perf_counter() - t0
        decided = svc.stats.decided
        dt = wall - state["last_wall"]
        rate = (decided - state["last_decided"]) / dt if dt > 0 else 0.0
        window = svc.latency.snapshot(qs=(50.0, 99.0))
        sample = make_sample(
            jobs_decided=decided,
            wall_s=wall,
            sim_time=res.now,
            jobs_per_sec=rate,
            guarantee_ratio=res.guarantee_ratio(),
            lat_p50=window.get("p50", float("nan")),
            lat_p99=window.get("p99", float("nan")),
            queue_depth=svc.queue_depth,
            rss_mb=current_rss_mb() or rss0,
            live_records=res.live_records(),
            folded=res.resident.metrics.n_folded,
        )
        samples.append(sample)
        state["last_wall"] = wall
        state["last_decided"] = decided
        if progress is not None:
            progress(sample)
        return sample

    def sample_if_due() -> None:
        if svc.stats.decided >= state["next_at"]:
            take_sample()
            state["next_at"] = svc.stats.decided + config.sample_every

    intake(svc, itertools.islice(open_loop_jobs(spec), config.target_jobs), sample_if_due)
    svc.drain()
    final = take_sample()

    wall = final.wall_s
    peak = max(s.rss_mb for s in samples)
    # every enqueued job is decided by now: 20% of target_jobs for the
    # backpressured soak, fewer when a lossy intake shed some
    cut = svc.stats.decided * 0.2
    early = [s for s in samples if s.jobs_decided >= cut]
    rss_at_20 = early[0].rss_mb if early else samples[0].rss_mb
    growth = max(0.0, final.rss_mb - rss_at_20)
    lat = svc.latency.percentiles(qs=(50.0, 99.0))
    metrics = res.resident.metrics

    return make_report(
        config=asdict(config),
        n_jobs=svc.stats.decided,
        wall_s=wall,
        jobs_per_sec=svc.stats.decided / wall if wall > 0 else 0.0,
        sim_time=res.now,
        guarantee_ratio=metrics.guarantee_ratio(),
        effective_ratio=metrics.effective_ratio(),
        lat_p50=lat["p50"],
        lat_p99=lat["p99"],
        lat_mean=svc.latency.mean,
        max_queue_depth=svc.stats.max_queue_depth,
        backpressure_waits=svc.stats.backpressure_waits,
        rss_peak_mb=peak,
        rss_final_mb=final.rss_mb,
        rss_growth_final80=growth / peak if peak > 0 else 0.0,
        leaked_unfinished=res.unfinished_plan_records(),
        live_records_final=res.live_records(),
        folded_total=metrics.n_folded,
        samples=samples,
    )
