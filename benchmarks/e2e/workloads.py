"""The benchmark's four workloads and what is read off each finished run.

Every workload fixes its *network and job population* (the cells the
repo's E9/E10/E11/E12 experiments already use, all at base seed 0) and
lets ``--seed`` decide *where the jobs land*:

* the three batch cells generate the base job list and relabel the
  arrival site of every job through a seeded permutation of the sites
  (seed 0 is the identity, i.e. exactly the published cell);
* the soak keeps the base network and the base arrival rate and draws
  the open-loop job stream from the seed.

Re-drawing the whole cell per seed (topology, pilot-calibrated rate, DAG
population) moves every metric by 10–30 % from seed to seed on these
48-site random graphs — sphere sizes alone change messages/job from 22 to
38 — which would drown any regression a bound could catch. With the
network pinned, seeds still give different inputs and different
simulated results, and the metrics stay within a few percent.

Each workload exposes the same three steps: ``prepare(seed)`` is the
timed *set-up* (network built and routed, first job submittable),
``call(prepared)`` is the timed *user call* through ``repro.api``, and
``observe(raw)`` reads the simulated statistics off the result.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro import api
from repro.core.events import JobOutcome
from repro.experiments import soak as soak_module
from repro.experiments.runner import ExperimentConfig, build_resident
from repro.experiments.widenet import widenet_config
from repro.service.resident import ResidentSimulation
from repro.workloads.jobs import Workload
from repro.workloads import openloop, scenarios
from repro.workloads.scenarios import WorkloadSpec
from repro.workloads.traces import parse_workload, trace_dag_factory

import stats
from tracing import Patches

#: seed of the pinned network / job population of every workload
BASE_SEED = 0

#: the E9 macro network: 48 sites, mean degree 4, wide-area delays
MACRO_TOPOLOGY = {"n": 48, "p": 4.0 / 47.0, "delay_range": (0.2, 1.0)}

#: end-to-end metrics: (name, unit, better, bound) — BENCHMARK.json mirrors this
END_TO_END: Tuple[Tuple[str, str, str, float], ...] = (
    ("setup_s", "s", "lower", 0.25),
    ("jobs_per_s", "1/s", "higher", 0.20),
    ("peak_rss_mb", "MB", "lower", 0.05),
    ("guarantee_ratio", "ratio", "higher", 0.08),
    ("admit_p99_sim", "simtime", "lower", 0.25),
    ("msgs_per_job", "count", "lower", 0.20),
)


@dataclass
class Observation:
    """Simulated statistics and handles of one finished run."""

    #: every numeric summary field — equal digests mean an identical run
    scalars: Dict[str, float]
    arrived: int
    #: accepted-but-late + accepted-but-unfinished + never decided + leaked
    failed: int
    guarantee_ratio: float
    msgs_per_job: float
    admit_p99: float
    admit_p50: float
    latency_samples: int
    summary: Any
    sim: Any
    network: Any
    workload_tasks: int
    soak_report: Optional[Any] = None

    @property
    def digest(self) -> str:
        return stats.digest(self.scalars)


class BatchCell:
    """A batch experiment cell run through ``repro.api.run``."""

    def __init__(self, name: str, why: str, config: ExperimentConfig) -> None:
        self.name = name
        self.why = why
        self.config = config

    def _workload_spec(self, resident) -> WorkloadSpec:
        """The spec ``run_experiment`` derives for ``workload=None``.

        Mirrors the runner field for field (``test_harness.py`` pins that
        the seed-0 cell reproduces ``api.run(config)`` exactly).
        """
        cfg = self.config
        dag_factory = None
        if cfg.workload != "synthetic":
            dag_factory = trace_dag_factory(parse_workload(cfg.workload)[1])
        return WorkloadSpec(
            n_sites=resident.n_base_sites,
            rho=cfg.rho,
            duration=cfg.duration,
            laxity_factor=cfg.laxity_factor,
            dag_size=cfg.dag_size,
            dag_factory=dag_factory,
            deadline_jitter=cfg.deadline_jitter,
            hot_fraction=cfg.hot_fraction,
            hot_sites=cfg.hot_sites,
            capacities=resident.capacities(),
            seed=cfg.seed + 7,
        )

    def prepare(self, seed: int) -> Workload:
        """Set-up: routed network + the job list (then the network is dropped).

        GC is paused as ``run_experiment`` pauses it around the same work.
        """
        gc.disable()
        try:
            resident = build_resident(self.config)
            base = scenarios.generate_workload(self._workload_spec(resident))
            return relabel_origins(base, resident.n_base_sites, seed)
        finally:
            gc.enable()

    def call(self, workload: Workload):
        return api.run(self.config, workload=workload)

    def observe(self, result) -> Observation:
        s = result.summary
        collector = result.collector
        latencies = [
            r.decision_latency for r in collector.records() if r.decision_latency is not None
        ]
        undecided = collector.count(JobOutcome.PENDING)
        leaked = result.resident.unfinished_plan_records()
        return Observation(
            scalars=result.scalar_metrics(),
            arrived=s.n_jobs,
            failed=s.n_missed + s.n_unfinished + undecided + leaked,
            guarantee_ratio=s.guarantee_ratio,
            msgs_per_job=s.messages_per_job,
            admit_p99=stats.percentile(latencies, 99.0),
            admit_p50=stats.percentile(latencies, 50.0),
            latency_samples=len(latencies),
            summary=s,
            sim=result.resident.sim,
            network=result.network,
            workload_tasks=sum(len(j.dag) for j in result.workload.jobs),
        )


def relabel_origins(workload: Workload, n_sites: int, seed: int) -> Workload:
    """Move every job's arrival site through a seeded site permutation.

    Seed ``BASE_SEED`` keeps the list as generated. DAGs, arrival times
    and deadlines are untouched, so the offered load is the same for
    every seed; only which site (and so which sphere) meets which stream
    of arrivals changes.
    """
    if seed == BASE_SEED:
        return workload
    perm = np.random.default_rng(seed).permutation(n_sites)
    out = Workload()
    for job in workload.jobs:
        out.add(replace(job, origin=int(perm[job.origin])))
    return out


@dataclass
class PinnedSoakConfig(api.SoakConfig):
    """A soak whose network stays the base seed's; ``seed`` draws the stream."""

    def experiment_config(self) -> ExperimentConfig:
        return replace(super().experiment_config(), seed=BASE_SEED)


class SoakCell:
    """The open-loop service soak run through ``repro.api.soak``."""

    N_SITES = 48
    RHO = 0.6
    TARGET_JOBS = 8000

    def __init__(self, name: str, why: str) -> None:
        self.name = name
        self.why = why

    def _config(self, seed: int) -> PinnedSoakConfig:
        # the rate "auto" would calibrate for the base seed, pinned so the
        # offered load does not move with the stream's seed (repr
        # round-trips the float, so seed 0 is exactly arrival="auto")
        rate = openloop.open_loop_rate(self.RHO, [1.0] * self.N_SITES, dag_size="small", seed=BASE_SEED)
        return PinnedSoakConfig(
            n_sites=self.N_SITES,
            rho=self.RHO,
            target_jobs=self.TARGET_JOBS,
            seed=seed,
            arrival=f"poisson:{rate!r}",
        )

    def prepare(self, seed: int) -> PinnedSoakConfig:
        """Set-up as ``run_soak`` does it: resident network + stream spec."""
        cfg = self._config(seed)
        res = ResidentSimulation(cfg.experiment_config(), fold=True)
        cfg.open_loop_spec(res.capacities())
        return cfg

    def call(self, cfg: PinnedSoakConfig):
        """``api.soak`` returns a report only; the resident simulation it
        builds is captured on the way (one extra call per soak) because
        message counts and the missed/unfinished audit live there."""
        captured: List[ResidentSimulation] = []
        make = soak_module.ResidentSimulation

        def capturing(*args, **kwargs):
            res = make(*args, **kwargs)
            captured.append(res)
            return res

        patches = Patches()
        patches.set(soak_module, "ResidentSimulation", capturing)
        try:
            report = api.soak(cfg)
        finally:
            patches.restore()
        return report, captured[0]

    def observe(self, raw) -> Observation:
        report, res = raw
        s = res.summarize()
        collector = res.resident.metrics
        undecided = collector.count(JobOutcome.PENDING)
        return Observation(
            scalars=res.scalar_metrics(),
            arrived=s.n_jobs,
            failed=s.n_missed + s.n_unfinished + undecided + report.leaked_unfinished,
            guarantee_ratio=s.guarantee_ratio,
            msgs_per_job=s.messages_per_job,
            # the service's own reservoir estimate (512 of the decisions)
            admit_p99=report.lat_p99,
            admit_p50=report.lat_p50,
            latency_samples=report.n_jobs,
            summary=s,
            sim=res.resident.sim,
            network=res.resident.network,
            workload_tasks=0,
            soak_report=report,
        )


def _macro(seed: int = BASE_SEED, **overrides) -> ExperimentConfig:
    return ExperimentConfig(
        topology="erdos_renyi",
        topology_kwargs=dict(MACRO_TOPOLOGY),
        rho=0.7,
        duration=3000.0,
        seed=seed,
        **overrides,
    )


def all_workloads() -> Dict[str, Any]:
    """Name -> cell, in the order they run."""
    cells = [
        BatchCell(
            "steady48",
            "E9 macro cell: message pipeline (engine, network, site dispatch, SPHERE gossip); "
            "64% of jobs settle on the local test",
            _macro(),
        ),
        BatchCell(
            "montage48",
            "same network, large Montage DAGs: mapper, validation and timeline probing dominate, "
            "a third of jobs rejected; catches gains bought at the distributed path's cost",
            _macro(workload="trace:montage"),
        ),
        BatchCell(
            "wide_geo1024",
            "E10 cell, 1024 sites, oracle routing: set-up and memory (n^2 tables, cold per-site "
            "memos), under two jobs per site; run-phase gains should barely move it",
            widenet_config("geometric", 1024, seed=BASE_SEED),
        ),
        SoakCell(
            "soak48",
            "open-loop service soak, 8000 jobs: the only path through service.*, the open-loop "
            "generator and pruning/folding hygiene",
        ),
    ]
    return {c.name: c for c in cells}
