"""Release/deadline adjustment (paper §12.2) and the schedule S*.

Given the Trial-Mapping's surplus-scaled schedule ``S`` (makespan ``M``)
and the job window ``[r, d]``:

* build ``S*`` — same assignment and same per-processor task order, but
  with every surplus at 100% (durations ``c/speed``); its makespan ``M*``
  is the lower bound of ``M`` for this mapping;
* **case (i)** ``M* > d − r`` → the job is rejected;
* **case (ii)** ``M ≤ d − r`` → stretch: ``d(ti) = r + (di − r)·(d−r)/M``
  (eq. (3)), then releases by eq. (5), in topological order;
* **case (iii)** ``M* ≤ d − r ≤ M`` → laxity scattering: with η = the
  maximum number of tasks on any critical path of ``S*`` and laxity
  ``ℓ(t) = (d − r − M*)/η``, deadlines follow eq. (4) in reverse
  topological order and releases eq. (5) in topological order.

  η alone is not enough. Eq. (4) chains windows along DAG edges, and a
  non-critical DAG path may hold more tasks than η: it then spends more
  laxity than the slack it has, and a window on it shrinks below
  ``c/speed``. So the laxity is divided by ``W = max(η, heaviest DAG path
  by weight)`` instead. Along any DAG path ``Σ(c/speed + ω) ≤ M*`` and
  ``Σℓ ≤ slack``, so every window keeps at least ``c/speed + ℓ``.
  :attr:`AdjustmentResult.eta` stays the paper's η; ``W`` is recorded next
  to it.

§13 "Laxity Dispatching": in ``busyness`` mode the per-task laxity is
weighted by the busyness of the task's processor — ``ℓ(t) = slack · w(t) /
W`` where ``w(t) = busyness + ε`` and ``W`` is the larger of the maximum
path-weight over critical paths and the heaviest DAG path, so the total
laxity spent along any path still never exceeds the slack (uniform mode is
the special case w ≡ 1, W = max(η, most tasks on a DAG path)).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import MappingError
from repro.core.trial_mapping import TrialMapping
from repro.types import EPS, TaskId, Time

#: small weight floor so an all-idle ACS still scatters laxity
_BUSYNESS_FLOOR = 0.05


@dataclass(frozen=True)
class SStar:
    """The optimistic schedule S* (100% surpluses, same mapping)."""

    start: Dict[TaskId, Time]
    finish: Dict[TaskId, Time]
    makespan: Time


@dataclass
class AdjustmentResult:
    """Outcome of §12.2 on one Trial-Mapping."""

    case: str  # "reject" | "stretch" | "laxity"
    accepted: bool
    sstar: SStar
    eta: Optional[int] = None
    #: the laxity divisor of case (iii): η's weight, raised to the heaviest
    #: DAG path's (``ℓ(t) = slack · w(t) / W``)
    wmax: Optional[float] = None
    laxity: Optional[Dict[TaskId, Time]] = None

    @property
    def mstar(self) -> Time:
        return self.sstar.makespan


def schedule_sstar(tm: TrialMapping) -> SStar:
    """Recompute the mapping's schedule with all surpluses at 100%.

    Tasks are re-timed in the order of their S start times, which respects
    both precedence and the per-processor sequence of S.
    """
    order = sorted(tm.dag.topological_order(), key=lambda t: (tm.start[t], repr(t)))
    start: Dict[TaskId, Time] = {}
    finish: Dict[TaskId, Time] = {}
    avail: Dict[int, Time] = {p.index: tm.job_release for p in tm.procs}
    for t in order:
        proc = tm.assignment[t]
        spec = tm.procs[proc]
        ready = tm.job_release
        for p in tm.dag.predecessors(t):
            ready = max(ready, finish[p] + tm.comm_delay(p, t))
        s = max(ready, avail[proc])
        f = s + spec.optimistic_duration(tm.dag.complexity(t))
        start[t] = s
        finish[t] = f
        avail[proc] = f
    return SStar(start, finish, max(finish.values()) - tm.job_release)


def _schedule_edges(tm: TrialMapping) -> Dict[TaskId, List[Tuple[TaskId, Time]]]:
    """Out-edges of the *schedule graph*: DAG edges weighted by ω (or 0)
    plus zero-weight processor-order edges between consecutive tasks."""
    out: Dict[TaskId, List[Tuple[TaskId, Time]]] = {t: [] for t in tm.dag}
    for u, v in tm.dag.edges:
        out[u].append((v, tm.comm_delay(u, v)))
    for proc in tm.used_procs():
        seq = tm.tasks_on(proc)
        for a, b in zip(seq, seq[1:]):
            out[a].append((b, 0.0))
    return out


def schedule_eta_and_weights(
    tm: TrialMapping, sstar: SStar, weights: Dict[TaskId, float]
) -> Tuple[int, float, Dict[TaskId, bool]]:
    """η (max tasks on an S* critical path) and the max path weight W.

    A task is *critical* when its start plus its longest downstream chain
    equals M*; an edge is *tight* when the successor starts exactly at the
    predecessor's finish plus the edge weight. η / W are the longest
    task-count / weight paths through the tight critical subgraph.
    """
    edges = _schedule_edges(tm)
    dur = {
        t: tm.procs[tm.assignment[t]].optimistic_duration(tm.dag.complexity(t))
        for t in tm.dag
    }
    # longest tail in the schedule graph, computed in reverse S*-start order
    order = sorted(tm.dag.topological_order(), key=lambda t: (sstar.start[t], repr(t)))
    tail: Dict[TaskId, Time] = {}
    for t in reversed(order):
        best = 0.0
        for s, w in edges[t]:
            best = max(best, w + tail[s])
        tail[t] = dur[t] + best
    mstar = sstar.makespan
    r = tm.job_release

    critical = {
        t: abs((sstar.start[t] - r) + tail[t] - mstar) <= 1e-6 for t in tm.dag
    }
    has_tight_in = {t: False for t in tm.dag}
    tight_out: Dict[TaskId, List[TaskId]] = {t: [] for t in tm.dag}
    for t in tm.dag:
        if not critical[t]:
            continue
        for s, w in edges[t]:
            if critical[s] and abs(sstar.start[s] - (sstar.finish[t] + w)) <= 1e-6:
                tight_out[t].append(s)
                has_tight_in[s] = True

    cnt: Dict[TaskId, int] = {}
    wsum: Dict[TaskId, float] = {}
    for t in reversed(order):
        if not critical[t]:
            continue
        best_c, best_w = 0, 0.0
        for s in tight_out[t]:
            best_c = max(best_c, cnt[s])
            best_w = max(best_w, wsum[s])
        cnt[t] = 1 + best_c
        wsum[t] = weights[t] + best_w

    roots = [t for t in tm.dag if critical[t] and not has_tight_in[t]]
    if not roots:  # float-noise fallback: every schedule has a critical chain
        roots = [t for t in tm.dag if critical[t]]
    if not roots:
        raise MappingError("no critical task found in S* (internal error)")
    eta = max(cnt[t] for t in roots)
    wmax = max(wsum[t] for t in roots)
    return eta, wmax, critical


def adjust_trial_mapping(
    tm: TrialMapping,
    job_deadline: Time,
    laxity_mode: str = "uniform",
) -> AdjustmentResult:
    """Apply §12.2: classify into case (i)/(ii)/(iii) and fill the adjusted
    ``r(ti)``/``d(ti)`` of ``tm`` in place (cases (ii)/(iii) only).
    """
    r = tm.job_release
    d = job_deadline
    window = d - r
    sstar = schedule_sstar(tm)
    m = tm.makespan
    mstar = sstar.makespan

    # case (i): even the optimistic schedule cannot fit.
    if mstar > window + EPS:
        return AdjustmentResult(case="reject", accepted=False, sstar=sstar)

    topo = tm.dag.topological_order()

    if m <= window + EPS:
        # case (ii): stretch S by (d-r)/M  (eq. (3)), releases by eq. (5).
        factor = window / m if m > EPS else 1.0
        for t in topo:
            tm.deadline[t] = r + (tm.finish[t] - r) * factor
        _releases_eq5(tm, r)
        return AdjustmentResult(case="stretch", accepted=True, sstar=sstar)

    # case (iii): M* <= d-r < M — scatter the extra laxity over S*.
    if laxity_mode == "busyness":
        weights = {
            t: tm.procs[tm.assignment[t]].busyness + _BUSYNESS_FLOOR for t in tm.dag
        }
    else:
        weights = {t: 1.0 for t in tm.dag}
    eta, wmax, _critical = schedule_eta_and_weights(tm, sstar, weights)
    wmax = max(wmax, _heaviest_dag_path(tm.dag, weights))
    slack = window - mstar
    laxity = {t: slack * weights[t] / wmax for t in tm.dag}

    dur = {
        t: tm.procs[tm.assignment[t]].optimistic_duration(tm.dag.complexity(t))
        for t in tm.dag
    }
    for t in reversed(topo):  # eq. (4), reverse topological order
        succs = tm.dag.successors(t)
        if not succs:
            tm.deadline[t] = d
        else:
            tm.deadline[t] = min(
                tm.deadline[s] - laxity[s] - dur[s] - tm.comm_delay(t, s)
                for s in succs
            )
    _releases_eq5(tm, r)
    return AdjustmentResult(
        case="laxity", accepted=True, sstar=sstar, eta=eta, wmax=wmax, laxity=laxity
    )


def _heaviest_dag_path(dag, weights: Dict[TaskId, float]) -> float:
    """The largest total weight of the tasks on one DAG path."""
    heaviest: Dict[TaskId, float] = {}
    for t in reversed(dag.topological_order()):
        heaviest[t] = weights[t] + max((heaviest[s] for s in dag.successors(t)), default=0.0)
    return max(heaviest.values())


def _releases_eq5(tm: TrialMapping, r: Time) -> None:
    """eq. (5): r(ti) = r for sources, else max over predecessors of
    d(tj) + ω(pj, pi); topological order."""
    for t in tm.dag.topological_order():
        preds = tm.dag.predecessors(t)
        if not preds:
            tm.release[t] = r
        else:
            tm.release[t] = max(
                tm.deadline[p] + tm.comm_delay(p, t) for p in preds
            )
