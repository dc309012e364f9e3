"""The layer ledger: which ``repro`` callables are timed, under which name.

Layers are module names (``simnet.engine``, ``core.mapper``, ...).
:func:`install` wraps each layer's public entry points with the
benchmark's own :class:`~tracing.Tracer`; :func:`per_layer` turns the
tracer's accumulators plus the run's own exact counters into the flat
per-layer metric dict the benchmark prints. ``PER_LAYER`` is the single
list of those metrics; ``BENCHMARK.json`` mirrors it
(``test_harness.py`` checks the two agree).

A few wrapped names are not public (`PlanExecutor._on_timer` /
``_finish_call``): they are the callbacks the engine fires into the
executor, i.e. the layer boundary itself. Message handlers are reached
through the public ``SiteBase.on`` registration, which is why wrappers
must be installed *before* the network is built — sites bind their
handlers at construction.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Optional, Tuple

from repro.core import adjustment, local_test, mapper, validation
from repro.core.admission_cache import AdmissionCache
from repro.core.rtds import RTDSSite
from repro.metrics import summary as summary_module
from repro.metrics.collector import MetricsCollector
from repro.routing import bellman_ford, vectorized
from repro.sched import feasibility, soa
from repro.sched.executor import PlanExecutor
from repro.sched.plan import SchedulingPlan
from repro.service.resident import ResidentSimulation
from repro.simnet import topology
from repro.simnet.engine import Simulator
from repro.simnet.network import Network
from repro.simnet.site import SiteBase
from repro.spheres import pcs
from repro.workloads import openloop, scenarios

from tracing import Patches, Tracer

#: the ten RTDS protocol message types, each its own handler layer
RTDS_TYPES = (
    "SPHERE", "ENROLL", "ENROLL_ACK", "ENROLL_REFUSE", "VALIDATE",
    "VALIDATE_ACK", "EXECUTE", "EXECUTE_ACK", "UNLOCK", "RESULT",
)

_DECISIONS = (
    ("core.rtds.reject.no_sphere", "rejected_no_sphere"),
    ("core.rtds.reject.mapper", "rejected_mapper"),
    ("core.rtds.reject.validation", "rejected_validation"),
    ("core.rtds.reject.timeout", "rejected_timeout"),
)


def _per_layer_table() -> Tuple[Tuple[str, str, str], ...]:
    s, n, r = ("s", "lower"), ("count", "lower"), ("ratio", "higher")
    rows = [
        # set-up (traced around the set-up step) -> setup_s
        ("simnet.topology.build_s", *s),
        ("simnet.topology.network_s", *s),
        ("routing.vectorized.tables_s", *s),
        ("spheres.pcs.build_s", *s),
        ("spheres.pcs.mean_size", *n),
        ("routing.bellman_ford.setup_s", *s),
        ("routing.bellman_ford.msgs", *n),
        ("workloads.scenarios.generate_s", *s),
        ("workloads.scenarios.tasks", *n),
        # message pipeline -> jobs_per_s on steady48
        ("simnet.engine.events", *n),
        ("simnet.engine.loop_s", *s),
        ("simnet.engine.events_per_s", "1/s", "higher"),
        ("simnet.engine.self_s", *s),
        ("simnet.network.msgs", *n),
        ("simnet.network.transmit_calls", *n),
        ("simnet.network.transmit_s", *s),
        ("spheres.pcs.gossip_calls", *n),
        ("spheres.pcs.gossip_s", *s),
    ]
    for mtype in RTDS_TYPES:
        rows += [(f"core.rtds.{mtype}.calls", *n), (f"core.rtds.{mtype}.s", *s)]
    rows += [
        # admission -> jobs_per_s on montage48
        ("core.rtds.submit.calls", *n),
        ("core.rtds.submit.s", *s),
        ("core.local_test.calls", *n),
        ("core.local_test.s", *s),
        ("core.local_test.accept_ratio", *r),
        ("core.mapper.calls", *n),
        ("core.mapper.s", *s),
        ("core.adjustment.s", *s),
        ("core.validation.calls", *n),
        ("core.validation.s", *s),
        ("core.admission_cache.lookups", *n),
        ("core.admission_cache.hit_ratio", *r),
        ("core.admission_cache.s", *s),
        ("sched.feasibility.calls", *n),
        ("sched.feasibility.s", *s),
        ("sched.soa.fit_calls", *n),
        ("sched.soa.fit_s", *s),
        ("sched.executor.tasks", *n),
        ("sched.executor.s", *s),
        # service and hygiene -> jobs_per_s / peak_rss_mb on soak48
        ("service.resident.advance_s", *s),
        ("service.admission.wall_s", *s),
        ("service.admission.backpressure_waits", *n),
        ("service.admission.max_queue_depth", *n),
        ("workloads.openloop.generate_s", *s),
        ("sched.plan.prune_s", *s),
        ("sched.plan.pruned", "count", "higher"),
        ("metrics.collector.fold_s", *s),
        ("metrics.collector.folded", "count", "higher"),
        ("metrics.summary.s", *s),
        # decisions -> guarantee_ratio, msgs_per_job, admit_p99_sim
        ("core.rtds.accept.local", "count", "higher"),
        ("core.rtds.accept.distributed", "count", "higher"),
    ]
    rows += [(name, *n) for name, _ in _DECISIONS]
    rows += [
        ("core.rtds.mean_acs_size", *n),
        ("admit_p50_sim", "simtime", "lower"),
        # the harness itself
        ("harness.import_s", *s),
        ("harness.rep_spread", "ratio", "lower"),
        ("harness.cpu_over_wall", *r),
        ("harness.calib_s", *s),
        ("trace.overhead_ratio", "ratio", "lower"),
        ("trace.coverage", *r),
    ]
    return tuple(rows)


#: per-layer metrics: (name, unit, better)
PER_LAYER: Tuple[Tuple[str, str, str], ...] = _per_layer_table()


# -- job ids carried by wrapped calls' arguments ---------------------------

def _msg_job(args: tuple) -> Optional[int]:
    """Job id of a protocol message (a SPHERE envelope carries it inside)."""
    payload = args[0].payload
    job = payload.get("job")
    if job is None:
        inner = payload.get("inner_payload")
        if inner is not None:
            job = inner.get("job")
    return job


def _arg(i: int) -> Callable[[tuple], Optional[int]]:
    return lambda args: args[i]


def handler_layer(mtype: str) -> str:
    """Layer a registered message handler is charged to."""
    if mtype == bellman_ford.MSG_ROUTING_UPDATE:
        return "routing.bellman_ford"
    return f"core.rtds.{mtype}"


def install(tracer: Tracer) -> Patches:
    """Wrap every layer's entry points; returns the handle that undoes it."""
    p = Patches()

    def fn_span(module, attr: str, name: str, job_of=None) -> None:
        fn = getattr(module, attr)
        p.replace_function(fn, tracer.span(fn, name, job_of), "repro")

    def fn_kernel(module, attr: str, name: str) -> None:
        fn = getattr(module, attr)
        p.replace_function(fn, tracer.kernel(fn, name), "repro")

    def method_span(cls, attr: str, name: str, job_of=None) -> None:
        p.set(cls, attr, tracer.span(vars(cls)[attr], name, job_of))

    def method_kernel(cls, attr: str, name: str, measure=None) -> None:
        p.set(cls, attr, tracer.kernel(vars(cls)[attr], name, measure))

    # set-up
    fn_span(topology, "topology_factory", "simnet.topology.build")
    fn_span(topology, "build_network", "simnet.topology.network")
    fn_span(vectorized, "weight_matrix", "routing.vectorized.tables")
    fn_span(vectorized, "phased_tables", "routing.vectorized.tables")
    fn_kernel(pcs, "build_pcs", "spheres.pcs.build")
    method_kernel(bellman_ford.PhasedBellmanFord, "start", "routing.bellman_ford")
    fn_span(scenarios, "generate_workload", "workloads.scenarios.generate")
    fn_kernel(openloop, "open_loop_rate", "workloads.openloop.generate")
    gen = openloop.open_loop_jobs
    p.replace_function(
        gen,
        tracer.kernel_iter(gen, "workloads.openloop.generate", lambda job: len(job.dag)),
        "repro",
    )

    # message pipeline
    method_span(Simulator, "run", "simnet.engine")
    method_kernel(Network, "transmit", "simnet.network.transmit")
    fn_kernel(pcs, "sphere_broadcast", "spheres.pcs.gossip")
    fn_kernel(pcs, "handle_sphere_message", "spheres.pcs.gossip")
    register = vars(SiteBase)["on"]

    def on(site, mtype, handler):
        layer = handler_layer(mtype)
        if layer == "routing.bellman_ford":
            handler = tracer.kernel(handler, layer)
        else:
            handler = tracer.span(handler, layer, _msg_job)
        return register(site, mtype, handler)

    p.set(SiteBase, "on", on)

    # admission
    method_span(RTDSSite, "submit_job", "core.rtds.submit", _arg(1))
    fn_span(local_test, "local_guarantee_test", "core.local_test", _arg(2))
    fn_span(mapper, "build_trial_mapping", "core.mapper", _arg(0))
    fn_span(adjustment, "adjust_trial_mapping", "core.adjustment", lambda a: a[0].job)
    fn_span(validation, "endorse_mapping", "core.validation", _arg(1))
    fn_kernel(validation, "compute_permutation", "core.validation.permute")
    method_span(AdmissionCache, "endorse", "core.admission_cache", _arg(2))
    fn_kernel(feasibility, "try_schedule_dag_locally", "sched.feasibility")
    fn_kernel(soa, "fit_and_hold", "sched.soa.fit")
    for attr in ("notify_committed", "deliver_token", "_on_timer", "_finish_call", "prune_done_before"):
        method_kernel(PlanExecutor, attr, "sched.executor")
    method_kernel(MetricsCollector, "on_task_complete", "metrics.collector.task_done")

    # service and hygiene
    method_span(ResidentSimulation, "advance_to", "service.resident.advance")
    method_kernel(ResidentSimulation, "feed", "service.resident.feed")
    method_span(ResidentSimulation, "hygiene", "service.resident.hygiene")
    method_kernel(SchedulingPlan, "prune_before", "sched.plan.prune", int)
    method_kernel(MetricsCollector, "fold_before", "metrics.collector.fold", int)
    fn_span(summary_module, "summarize", "metrics.summary")
    return p


def _finite(x: float) -> float:
    """NaN (a mean over nothing) has no JSON form; the ledger prints 0."""
    return 0.0 if isinstance(x, float) and math.isnan(x) else x


def per_layer(
    setup: Tracer,
    call: Tracer,
    obs,
    *,
    call_wall_traced: float,
    call_wall_untraced: float,
    loop_s_untraced: float,
    harness: Dict[str, float],
) -> Dict[str, float]:
    """Assemble every ``PER_LAYER`` metric of one traced run.

    ``setup`` traced the set-up step, ``call`` the user call; ``obs`` is
    the traced call's :class:`~workloads.Observation`. Counts come from
    the run's own exact counters where it keeps them (events, messages,
    decisions, cache hits) and from the wrappers' call counts otherwise.
    ``loop_s_untraced`` is ``Simulator.wall_seconds`` of the fastest
    untraced repetition — the loop's cost without the wrappers in it.
    """
    sim, net, s = obs.sim, obs.network, obs.summary
    cache = net.admission_cache
    sites = list(net.sites.values())
    report = obs.soak_report
    local_calls = call.calls("core.local_test")
    advance_s = call.busy_s("service.resident.advance")
    m: Dict[str, float] = {
        "simnet.topology.build_s": setup.self_s("simnet.topology.build"),
        "simnet.topology.network_s": setup.self_s("simnet.topology.network"),
        "routing.vectorized.tables_s": setup.self_s("routing.vectorized.tables"),
        "spheres.pcs.build_s": setup.self_s("spheres.pcs.build"),
        "spheres.pcs.mean_size": sum(len(x.pcs) for x in sites) / len(sites),
        "routing.bellman_ford.setup_s": setup.self_s("routing.bellman_ford"),
        "routing.bellman_ford.msgs": s.setup_messages,
        "workloads.scenarios.generate_s": setup.self_s("workloads.scenarios.generate"),
        "workloads.scenarios.tasks": obs.workload_tasks
        or call.measured("workloads.openloop.generate"),
        "simnet.engine.events": sim.events_processed,
        "simnet.engine.loop_s": loop_s_untraced,
        "simnet.engine.events_per_s": sim.events_processed / loop_s_untraced,
        "simnet.engine.self_s": call.self_s("simnet.engine"),
        "simnet.network.msgs": net.stats.total,
        "simnet.network.transmit_calls": call.calls("simnet.network.transmit"),
        "simnet.network.transmit_s": call.self_s("simnet.network.transmit"),
        "spheres.pcs.gossip_calls": call.calls("spheres.pcs.gossip"),
        "spheres.pcs.gossip_s": call.self_s("spheres.pcs.gossip"),
        "core.rtds.submit.calls": call.calls("core.rtds.submit"),
        "core.rtds.submit.s": call.self_s("core.rtds.submit"),
        "core.local_test.calls": local_calls,
        "core.local_test.s": call.self_s("core.local_test"),
        "core.local_test.accept_ratio": s.n_accepted_local / local_calls if local_calls else 0.0,
        "core.mapper.calls": call.calls("core.mapper"),
        "core.mapper.s": call.self_s("core.mapper"),
        "core.adjustment.s": call.self_s("core.adjustment"),
        "core.validation.calls": call.calls("core.validation"),
        "core.validation.s": call.self_s("core.validation") + call.self_s("core.validation.permute"),
        "core.admission_cache.lookups": call.calls("core.admission_cache"),
        "core.admission_cache.hit_ratio": cache.hit_rate(),
        "core.admission_cache.s": call.self_s("core.admission_cache"),
        "sched.feasibility.calls": call.calls("sched.feasibility"),
        "sched.feasibility.s": call.self_s("sched.feasibility"),
        "sched.soa.fit_calls": call.calls("sched.soa.fit"),
        "sched.soa.fit_s": call.self_s("sched.soa.fit"),
        "sched.executor.tasks": call.calls("metrics.collector.task_done"),
        "sched.executor.s": call.self_s("sched.executor"),
        "service.resident.advance_s": advance_s,
        "service.admission.wall_s": call_wall_traced - advance_s if report is not None else 0.0,
        "service.admission.backpressure_waits": report.backpressure_waits if report else 0,
        "service.admission.max_queue_depth": report.max_queue_depth if report else 0,
        "workloads.openloop.generate_s": call.self_s("workloads.openloop.generate"),
        "sched.plan.prune_s": call.self_s("sched.plan.prune"),
        "sched.plan.pruned": call.measured("sched.plan.prune"),
        "metrics.collector.fold_s": call.self_s("metrics.collector.fold"),
        "metrics.collector.folded": call.measured("metrics.collector.fold"),
        "metrics.summary.s": call.self_s("metrics.summary"),
        "core.rtds.accept.local": s.n_accepted_local,
        "core.rtds.accept.distributed": s.n_accepted_distributed,
        "core.rtds.mean_acs_size": _finite(s.mean_acs_size),
        "admit_p50_sim": obs.admit_p50,
        "trace.overhead_ratio": call_wall_traced / call_wall_untraced,
        "trace.coverage": call.attributed_s() / call_wall_traced,
    }
    for mtype in RTDS_TYPES:
        m[f"core.rtds.{mtype}.calls"] = call.calls(f"core.rtds.{mtype}")
        m[f"core.rtds.{mtype}.s"] = call.self_s(f"core.rtds.{mtype}")
    for name, outcome in _DECISIONS:
        m[name] = s.rejected_by.get(outcome, 0)
    m.update(harness)
    return {name: m[name] for name, _, _ in PER_LAYER}
