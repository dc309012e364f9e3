"""The experiment runner.

``run_experiment(config)`` is the one entry point every benchmark and
example uses. A run has two phases:

1. **setup** — sites run their routing protocol (RTDS: ``2h`` phases;
   baselines needing global routing: hop-diameter phases). The message
   counter is snapshotted at the end: setup traffic is reported separately
   from per-job protocol traffic.
2. **workload** — job arrivals are injected at their (setup-shifted)
   times; the simulation runs until every deadline plus
   :data:`DRAIN_MARGIN` has passed.

Determinism: everything derives from ``config.seed`` — topology delays,
workload, random-offload choices, and the tie-break rules are seed-free.

One build, one drive: :func:`assemble` stands a live
:class:`ResidentNetwork` up over a :func:`resolve_topology` result
(:func:`build_resident` adds the latent joiner sites first), and that
object schedules jobs, prunes and summarizes — for the batch runner
here and the resident service of :mod:`repro.service` alike.
``run_experiment(config, workload=...)`` replays an explicit job list
(the service ≡ batch differential).
"""

from __future__ import annotations

import gc
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro.baselines.centralized import CentralizedSite
from repro.baselines.focused import BROADCAST_PERIOD, FocusedSite
from repro.baselines.local_only import LocalOnlySite
from repro.baselines.random_offload import RandomOffloadSite
from repro.core.config import RTDSConfig
from repro.core.events import JobOutcome, JobRecord
from repro.core.rtds import RTDSSite
from repro.errors import ConfigError, WorkloadError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.metrics.collector import MetricsCollector
from repro.metrics.summary import ExperimentSummary, summarize
from repro.routing.oracle import oracle_routing_factory
from repro.routing.reference import dijkstra
from repro.routing.vectorized import (
    Links,
    SharedTables,
    hop_diameter_fast,
    phased_tables,
    true_distance_matrix,
    weight_matrix,
)
from repro.simnet.engine import Simulator
from repro.simnet.network import Network
from repro.simnet.speeds import resolve_site_speeds
from repro.simnet.topology import Topology, build_network, topology_factory
from repro.simnet.trace import Tracer
from repro.types import Time
from repro.workloads.jobs import JobSpec, Workload
from repro.workloads.scenarios import WorkloadSpec, generate_workload

ALGORITHMS = ("rtds", "local", "centralized", "focused", "random")

#: simulated time a run goes on past its last deadline, so work admitted
#: late still finishes (or misses) inside the run
DRAIN_MARGIN = 300.0


@dataclass
class ExperimentConfig:
    """Declarative description of one simulation run."""

    #: Default delays are small relative to task complexities (c ∈ [1, 8]):
    #: distribution can only ever pay off when compute time dominates
    #: propagation delay, the regime loosely-coupled real-time systems are
    #: engineered for (and the implicit regime of the paper's example,
    #: where ω = 3 vs task times 5-12).
    topology: str = "erdos_renyi"
    topology_kwargs: Dict[str, Any] = field(
        default_factory=lambda: {"n": 16, "p": 0.25, "delay_range": (0.2, 1.0)}
    )
    algorithm: str = "rtds"
    rtds: RTDSConfig = field(default_factory=RTDSConfig)
    #: workload
    rho: float = 0.6
    duration: float = 600.0
    laxity_factor: float = 3.0
    dag_size: str = "small"
    #: custom job-DAG factory ``rng -> Dag`` (overrides ``dag_size``'s mix)
    dag_factory: Optional[Callable] = None
    deadline_jitter: float = 0.2
    hot_fraction: float = 0.0
    hot_sites: int = 0
    #: declarative per-site speed profile (E11 heterogeneity): ``None``
    #: (default, byte-identical homogeneous path), an explicit vector, or
    #: a spec string — ``"uniform[:X]"``, ``"skew:K"``, ``"tiers:a,b"``,
    #: ``"lognormal:SIGMA"`` (see :mod:`repro.simnet.speeds`). Resolved
    #: against ``(n_sites, seed)`` and carried on the run's
    #: :class:`~repro.simnet.topology.Topology`.
    site_speeds: Optional[Any] = None
    #: workload family: ``"synthetic"`` (the ``dag_size`` mixes) or
    #: ``"trace:<name>"`` replaying a workflow trace from
    #: :mod:`repro.workloads.traces` (E11). ``dag_factory`` overrides both.
    workload: str = "synthetic"
    #: §13 data-volume model: finite link throughput (None = pure
    #: propagation delay) and per-task data volumes drawn from this range
    link_throughput: Optional[float] = None
    data_volume_range: Optional[tuple] = None
    #: the run's one surplus window: every site, RTDS or baseline, is
    #: built with it
    surplus_window: float = 200.0
    #: fault injection (repro.faults): ``None`` or a zero plan leaves the
    #: no-faults code path bit-for-bit untouched. Window/churn times are
    #: relative to workload start; setup/routing always runs fault-free.
    #: Plans with membership *joins* additionally require oracle routing
    #: (the joins repair the shared tables) and an rtds/local algorithm.
    faults: Optional[FaultPlan] = None
    #: routing back end: ``"protocol"`` simulates the phased Bellman–Ford
    #: message-for-message (the default; identity goldens pin it);
    #: ``"oracle"`` installs vectorized precomputed tables
    #: (:mod:`repro.routing.oracle`) — same final routes bit-for-bit, but
    #: setup costs milliseconds instead of simulating O(n * phases * degree)
    #: messages, which is what makes 1000+-site networks (E10) practical.
    #: In oracle mode setup takes zero simulated time and sends zero
    #: messages, so ``setup_time``/``setup_messages`` read 0.
    routing_mode: str = "protocol"
    seed: int = 0
    #: record the run's trace events (:class:`~repro.simnet.trace.Tracer`);
    #: the phase timeline and metrics of :mod:`repro.obs` are read off them
    trace: bool = False
    #: admission plan cache (repro.core.admission_cache): memoized §10
    #: validation endorsements, shared network-wide. Result-invisible by
    #: contract — cache-on reproduces cache-off bit for bit (the
    #: ``tests/cache/`` differential pins it) — so it is excluded from
    #: ``config_fingerprint``: toggling it cannot change a campaign cell
    #: key.
    admission_cache: bool = True
    label: Optional[str] = None

    def __post_init__(self) -> None:
        # the workload generator would refuse these too, but only after the
        # network is built, and as a WorkloadError no CLI boundary expects;
        # an infinite horizon or load would overflow arrival sizing, and
        # an infinite laxity would give every job an infinite deadline
        if not 0 < self.duration < math.inf:
            raise ConfigError(f"duration must be > 0 and finite, got {self.duration}")
        if not 0 < self.laxity_factor < math.inf:
            raise ConfigError(f"laxity_factor must be > 0 and finite, got {self.laxity_factor}")
        if not 0 <= self.rho < math.inf:
            raise ConfigError(f"rho must be >= 0 and finite, got {self.rho}")
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(f"unknown algorithm {self.algorithm!r}; known: {ALGORITHMS}")
        if self.routing_mode not in ("protocol", "oracle"):
            raise ConfigError(
                f"unknown routing_mode {self.routing_mode!r}; known: ('protocol', 'oracle')"
            )
        if self.site_speeds is not None:
            # validate the spec shape now — a campaign must reject a bad
            # profile before shipping cells to workers (n=2 is a neutral
            # probe; the real resolution happens against the topology)
            resolve_site_speeds(self.site_speeds, 2, self.seed)
        if self.workload != "synthetic":
            from repro.workloads.traces import parse_workload

            try:
                parse_workload(self.workload)
            except WorkloadError as err:
                raise ConfigError(str(err)) from None
            if self.dag_factory is not None:
                raise ConfigError(
                    f"workload={self.workload!r} and dag_factory are mutually "
                    "exclusive (a custom factory already defines the job stream)"
                )
        if (
            self.faults is not None
            and self.faults.perturbs_network()
            and self.algorithm == "rtds"
            and not self.rtds.hardened
        ):
            raise ConfigError(
                "a FaultPlan that perturbs the network requires the hardened "
                "protocol: set RTDSConfig.ack_timeout (see repro.faults.hardened)"
            )
        if self.faults is not None and self.faults.has_joins():
            if self.routing_mode != "oracle":
                raise ConfigError(
                    "membership joins require routing_mode='oracle': joins "
                    "repair the shared vectorized tables (repro.membership)"
                )
            if self.algorithm not in ("rtds", "local"):
                raise ConfigError(
                    "membership joins support algorithms 'rtds' and 'local' "
                    f"only, not {self.algorithm!r} (global-routing baselines "
                    "assume a fixed site set)"
                )

    def resolved_label(self) -> str:
        """The display label: explicit ``label`` or the algorithm name."""
        return self.label or self.algorithm


@dataclass
class RunResult:
    """Everything a bench might want from one finished run."""

    config: ExperimentConfig
    summary: ExperimentSummary
    collector: MetricsCollector
    network: Network
    tracer: Tracer
    topology: Topology
    #: the executed job list (generated or replayed)
    workload: Workload
    setup_messages: int
    setup_time: float
    #: the armed fault injector (stats + concrete windows), or None when
    #: the run had no (or a zero) fault plan
    faults: Optional[FaultInjector] = None
    #: the resident network the run executed on — survivability state
    #: (membership manager, injector) hangs off it
    resident: Optional[Any] = None

    def scalar_metrics(self) -> Dict[str, float]:
        """Every numeric summary field as a plain JSON-able dict.

        The serialization boundary between execution and aggregation: this
        is what crosses worker-pool processes and lands in the campaign
        result store (:mod:`repro.experiments.parallel`), so campaigns can
        aggregate without holding networks or collectors. New numeric
        fields on :class:`~repro.metrics.summary.ExperimentSummary` flow
        through automatically; strings and dicts are excluded.
        """
        return self.summary.scalars()


#: the site class of each algorithm
_SITE_CLASSES: Dict[str, type] = {
    "rtds": RTDSSite,
    "local": LocalOnlySite,
    "centralized": CentralizedSite,
    "focused": FocusedSite,
    "random": RandomOffloadSite,
}


def _site_factory(
    config: ExperimentConfig,
    topo: Topology,
    metrics: MetricsCollector,
    routing_factory,
    global_phases: int,
) -> Callable[[int, Network], Any]:
    """The ``(sid, network) -> site`` constructor of ``config.algorithm``:
    what the algorithm's sites need on top of what every site takes — the
    protocol config for RTDS, the global routing budget for the
    global-state baselines, the offload seed for random."""
    algorithm = config.algorithm
    site_cls = _SITE_CLASSES[algorithm]
    own: Dict[str, Any] = {}
    if algorithm == "rtds":
        own["config"] = config.rtds
    elif algorithm != "local":
        own["routing_phases"] = global_phases
    if algorithm == "random":
        own["seed"] = config.seed

    def factory(sid: int, net: Network):
        return site_cls(
            sid, net, speed=topo.speed_of(sid), metrics=metrics,
            routing_factory=routing_factory, surplus_window=config.surplus_window, **own,
        )

    return factory


@contextmanager
def _gc_paused():
    """Pause the cyclic GC for the duration of the simulation loop.

    Generational collections cost ~5-10% of the allocation-heavy loop
    (measured on the E9 macro bench). The pause is free because a run
    makes no reference cycles: everything it drops is freed by reference
    counting at once, so nothing piles up while collection is off.
    Recursive helpers and self-re-arming timers are therefore
    module-level functions or methods, never closures that refer to
    themselves; ``tests/experiments/test_run_garbage.py`` holds every run
    to zero objects for one collection to find. The live network itself
    is cyclic (sites and their network point at each other) and is
    reclaimed once collection resumes and the caller drops it. No-op if
    GC was already off (an outer caller owns the policy).
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@dataclass
class ResidentNetwork:
    """A routed, live network — the one thing jobs are pushed through.

    The batch runner builds one, pushes a generated workload through it and
    tears it down; the admission service (:mod:`repro.service`) keeps one
    resident for its whole lifetime and feeds it jobs as they arrive. Both
    submit through :meth:`submit_spec`, which is why they produce identical
    schedules for identical job streams (the service ≡ batch differential).

    Job times in a :class:`~repro.workloads.jobs.JobSpec` are
    workload-relative; :attr:`shift` (= setup time) converts them to
    simulation time exactly as the batch runner always has.
    """

    config: ExperimentConfig
    topology: Topology
    sim: Simulator
    tracer: Tracer
    metrics: MetricsCollector
    network: Network
    #: the sites living on ``network``, in id order
    sites: List[Any]
    setup_messages: int
    setup_time: float
    injector: Optional[FaultInjector] = None
    #: number of *base* sites — when the fault plan declares joins, the
    #: topology is extended with latent (link-less) joiner sites and this
    #: records where they start; None means no extension (all sites base)
    n_base: Optional[int] = None
    #: phase budget -> SharedTables (oracle routing only); repaired
    #: incrementally by :mod:`repro.membership` on joins, from the
    #: network's own links
    shared_tables: Optional[Dict[int, SharedTables]] = None
    #: armed survivability machinery (see :meth:`arm_faults`)
    membership: Optional[Any] = None
    #: gate-blocked records reaped by hygiene (fault runs only) — plan
    #: state whose prerequisite result was lost for good
    abandoned_reaped: int = 0

    @property
    def shift(self) -> float:
        """Workload-relative → simulation-time offset (== setup time)."""
        return self.setup_time

    @property
    def n_base_sites(self) -> int:
        """Sites that exist from t=0 (workload origins draw from these)."""
        return self.n_base if self.n_base is not None else self.topology.n

    def capacities(self) -> List[float]:
        """Per-base-site computing powers (workload calibration input)."""
        return [self.topology.speed_of(sid) for sid in range(self.n_base_sites)]

    def arm_faults(self, default_horizon: float) -> None:
        """Arm the run's survivability machinery at workload start.

        Safe no-op for configs without faults. Order matters: the
        injector first (membership hooks its ``on_site_up`` rejoin
        transition), then membership joins. ``t0`` is the
        resident's shift so plan times stay workload-relative, exactly as
        the batch runner always armed the injector.
        """
        config = self.config
        plan = config.faults
        if plan is not None and plan.perturbs_network():
            self.injector = FaultInjector(self.network, plan, entropy=config.seed)
            self.injector.arm(t0=self.shift, default_horizon=default_horizon)
        if plan is not None and plan.has_joins():
            from repro.membership.manager import MembershipManager

            self.membership = MembershipManager(self, plan, entropy=config.seed)
            self.membership.arm(t0=self.shift, default_horizon=default_horizon)

    def submit_spec(self, job: JobSpec) -> None:
        """Submit one job *now* (``sim.now`` should be its shifted arrival).

        Fault-aware: a job arriving on a partitioned site is recorded as
        :attr:`~repro.core.events.JobOutcome.LOST_SITE_DOWN` so churn
        degrades the guarantee ratio instead of shrinking its denominator.
        """
        site = self.network.site(job.origin)
        if self.injector is not None:
            if self.injector.site_down(site.sid):
                self._drop_job(job, site.sid, JobOutcome.LOST_SITE_DOWN, "fault.job_dropped")
                return
            coord = getattr(site, "coordinator_id", None)
            if coord is not None and coord != site.sid and self.injector.site_down(coord):
                # the arrival site is fine but its coordinator is
                # partitioned and no successor takes over: a *named* loss
                # instead of a silently-dropped submission, so centralized
                # churn runs stop looking degenerate
                self._drop_job(
                    job, site.sid, JobOutcome.LOST_COORDINATOR, "fault.job_lost_coordinator"
                )
                return
        site.submit_job(job.job, job.dag, self.shift + job.deadline)

    def _drop_job(self, job: JobSpec, sid: int, outcome: JobOutcome, event: str) -> None:
        """Record a harness-level job loss (site or coordinator down)."""
        self.injector.stats.jobs_dropped += 1
        self.tracer.emit(self.sim.now, event, sid, job=job.job)
        self.metrics.register_job(
            JobRecord(
                job=job.job,
                origin=sid,
                arrival=self.sim.now,
                deadline=self.shift + job.deadline,
                n_tasks=len(job.dag),
                total_work=job.dag.total_complexity(),
            )
        )
        self.metrics.decide(job.job, outcome, self.sim.now)

    def schedule_job(self, job: JobSpec) -> None:
        """Schedule one job's submission at its shifted arrival time."""
        self.sim.schedule_call_at(self.shift + job.arrival, self.submit_spec, job)

    def schedule_workload(self, workload: Workload) -> Time:
        """Schedule a job list; returns the horizon: the last deadline plus
        the drain margin, in simulation time."""
        for job in workload:
            self.schedule_job(job)
        return self.shift + workload.last_deadline() + DRAIN_MARGIN

    def prune_pass(self) -> int:
        """One memory-hygiene pass: sites forget settled history older than
        one surplus window (decision-neutral, see ``RTDSSite.prune_history``).

        Fault runs additionally reap abandoned executor records —
        committed reservations whose prerequisite result was lost for
        good (:meth:`~repro.sched.executor.PlanExecutor.reap_abandoned`);
        the no-fault path never reaps, keeping it byte-identical. Returns
        the number of plan reservations dropped.
        """
        keep_from = self.sim.now - self.config.surplus_window
        if keep_from <= 0:
            return 0
        pruned = 0
        for s in self.sites:
            prune = getattr(s, "prune_history", None)
            if prune is not None:
                pruned += prune(keep_from)
        if self.injector is not None:
            for s in self.sites:
                self.abandoned_reaped += s.executor.reap_abandoned(keep_from)
        return pruned

    def unfinished_plan_records(self) -> int:
        """Total committed-but-unfinished executor records across all sites.

        The soak's leak audit: after a full drain this must be 0 — anything
        else is a reservation that leaked out of a plan.
        """
        return sum(s.executor.n_unfinished() for s in self.sites)

    def summarize(self, label: Optional[str] = None) -> ExperimentSummary:
        """Summary over everything decided so far (folded + live)."""
        return summarize(
            label or self.config.resolved_label(),
            self.metrics,
            n_sites=self.topology.n,
            total_messages=self.network.stats.total,
            setup_messages=self.setup_messages,
        )

    def scalar_metrics(self) -> Dict[str, float]:
        """Numeric summary fields (same shape as ``RunResult.scalar_metrics``)."""
        return self.summarize().scalars()

    def result(self, workload: Workload) -> RunResult:
        """Summarize the run so far into a :class:`RunResult`."""
        return RunResult(
            config=self.config,
            summary=self.summarize(),
            collector=self.metrics,
            network=self.network,
            tracer=self.tracer,
            topology=self.topology,
            workload=workload,
            setup_messages=self.setup_messages,
            setup_time=self.setup_time,
            faults=self.injector,
            resident=self,
        )


def resolve_topology(config: ExperimentConfig) -> Topology:
    """The seeded topology of ``config``, carrying its resolved speed vector
    — the single source of truth every later consumer (site construction,
    workload calibration, post-run audits) reads. ``site_speeds=None``
    keeps the topology untouched: the homogeneous path stays byte-identical.
    """
    rng = np.random.default_rng(config.seed)
    topo = topology_factory(config.topology, rng=rng, **config.topology_kwargs)
    site_speed_vec = resolve_site_speeds(config.site_speeds, topo.n, config.seed)
    if site_speed_vec is not None:
        topo = topo.with_site_speeds(site_speed_vec)
    return topo


def assemble(config: ExperimentConfig, topo: Topology) -> ResidentNetwork:
    """Phase 1, the one build path: sites, links, routing — returned live."""
    oracle = config.routing_mode == "oracle"
    global_state = config.algorithm in ("centralized", "focused", "random")
    # The dense weight matrix exists only for the global-state baselines
    # (their hop diameter and, in oracle mode, the centralized coordinator's
    # all-pairs distances); routing tables are solved from the links.
    W = weight_matrix(topo) if global_state else None
    # Global routing phase budget: the network's hop diameter. Only the
    # baselines need it; RTDS's 2h-bounded flooding never does, so wide
    # RTDS runs skip this all-pairs sweep entirely.
    global_phases = max(1, hop_diameter_fast(W)) if global_state else 1

    routing_factory = None
    shared_tables: Optional[Dict[int, SharedTables]] = None
    if oracle:
        if config.algorithm == "rtds":
            phase_budget = config.rtds.pcs_phases
        elif config.algorithm == "local":
            phase_budget = 1
        else:
            phase_budget = global_phases
        tables = phased_tables(Links(topo.n, topo.edges), phase_budget)
        shared_tables = {phase_budget: tables}
        routing_factory = oracle_routing_factory(shared_tables)

    sim = Simulator()
    tracer = Tracer(enabled=config.trace)
    metrics = MetricsCollector()
    admission_cache = None
    if config.algorithm == "rtds":
        from repro.core.admission_cache import AdmissionCache

        admission_cache = AdmissionCache(enabled=config.admission_cache)
    net = build_network(
        topo,
        sim,
        _site_factory(config, topo, metrics, routing_factory, global_phases),
        tracer,
        throughput=config.link_throughput,
        admission_cache=admission_cache,
    )

    sites = [net.site(sid) for sid in net.site_ids()]
    for s in sites:
        s.start()
    if config.algorithm == "centralized":
        if oracle:
            # converged min-plus == true shortest delays, one batched pass
            # over the dense weight matrix
            dist = true_distance_matrix(W)
            distances = {
                sid: {
                    d: float(dist[sid, d])
                    for d in range(topo.n)
                    if np.isfinite(dist[sid, d])
                }
                for sid in range(topo.n)
            }
        else:
            adj = topo.adjacency()
            distances = {sid: dijkstra(adj, sid) for sid in adj}
        coord = net.site(0)
        coord.install_coordinator(dict(net.sites), distances)

    # --- phase 1: setup (routing; focused also primes its surplus tables).
    # Routing drains on its own; focused's periodic broadcast never stops,
    # so bound setup by one broadcast round trip.
    if config.algorithm == "focused":
        sim.run(until=BROADCAST_PERIOD * 1.5)
        while not all(s.routing.done for s in sites):
            sim.run(until=sim.now + BROADCAST_PERIOD)
    else:
        sim.run(until=None)
    for s in sites:
        if not s.routing.done:
            raise ConfigError(
                f"site {s.sid}: routing did not finish during setup "
                f"(algorithm={config.algorithm})"
            )
    return ResidentNetwork(
        config=config,
        topology=topo,
        sim=sim,
        tracer=tracer,
        metrics=metrics,
        network=net,
        sites=sites,
        setup_messages=net.stats.total,
        setup_time=sim.now,
        shared_tables=shared_tables,
    )


def build_resident(config: ExperimentConfig) -> ResidentNetwork:
    """Phase 1 alone: build the network, run routing, return it live.

    Everything :func:`run_experiment` does before the workload exists —
    identical construction order, so a resident built here and fed the
    batch workload reproduces ``run_experiment`` exactly.
    """
    topo = resolve_topology(config)
    # Membership joins: pre-build the joiners as latent, link-less sites.
    # Isolated rows are inert for the phased Bellman–Ford (no neighbours,
    # infinite columns never offered), so the base sites' tables — and
    # everything downstream — are byte-identical to the unextended run
    # until the first join links up.
    n_base: Optional[int] = None
    n_joins = config.faults.n_join_sites() if config.faults is not None else 0
    if n_joins > 0:
        n_base = topo.n
        pad = (1.0,) * n_joins
        topo = Topology(
            n_base + n_joins,
            topo.edges,
            topo.name + f"+join{n_joins}",
            site_speeds=(topo.site_speeds + pad) if topo.site_speeds is not None else None,
        )
    resident = assemble(config, topo)
    resident.n_base = n_base
    return resident


def run_experiment(
    config: ExperimentConfig, workload: Optional[Workload] = None
) -> RunResult:
    """Build, run, summarize one experiment — the single batch entry point.

    With the default ``workload=None`` the config's seeded batch workload
    is generated and run. Passing an explicit
    :class:`~repro.workloads.jobs.Workload` replays that job list through
    a fresh resident network instead — the replay half of the service ≡
    batch differential (e.g. an open-loop stream captured via
    :func:`repro.workloads.openloop.open_loop_workload`). An explicit
    workload makes the config's own generation knobs
    (``rho``/``duration``/``dag_size``) irrelevant; everything else
    applies as usual.
    """
    with _gc_paused():
        resident = build_resident(config)
        if workload is None:
            workload = _generate_batch_workload(config, resident)
        return _execute_workload(resident, workload)


def _generate_batch_workload(
    config: ExperimentConfig, resident: ResidentNetwork
) -> Workload:
    """Phase 2's job list: the seeded batch workload of ``config``.

    Origins draw from the *base* sites only — latent joiners receive no
    arrivals (they can still host offloaded tasks once joined)."""
    dag_factory = config.dag_factory
    if dag_factory is None and config.workload != "synthetic":
        from repro.workloads.traces import parse_workload, trace_dag_factory

        _, trace_name = parse_workload(config.workload)
        dag_factory = trace_dag_factory(trace_name)
    if config.data_volume_range is not None:
        from repro.graphs.transform import with_volumes_factory
        from repro.workloads.scenarios import mixed_dag_factory

        base_factory = dag_factory or mixed_dag_factory(config.dag_size)
        dag_factory = with_volumes_factory(base_factory, config.data_volume_range)
    spec = WorkloadSpec(
        n_sites=resident.n_base_sites,
        rho=config.rho,
        duration=config.duration,
        laxity_factor=config.laxity_factor,
        dag_size=config.dag_size,
        dag_factory=dag_factory,
        deadline_jitter=config.deadline_jitter,
        hot_fraction=config.hot_fraction,
        hot_sites=config.hot_sites,
        capacities=resident.capacities(),
        seed=config.seed + 7,
    )
    return generate_workload(spec)


def _execute_workload(resident: ResidentNetwork, workload: Workload) -> RunResult:
    """Run a job list through a resident to completion and summarize."""
    resident.arm_faults(default_horizon=resident.config.duration)
    resident.sim.run(until=resident.schedule_workload(workload))
    return resident.result(workload)
