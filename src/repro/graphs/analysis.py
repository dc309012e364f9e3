"""Structural analysis of job DAGs.

Implements the quantities the Mapper and the adjustment step need:

* *bottom level* ``bl(t)`` — length of the longest node-weighted path from
  ``t`` to a sink, **including** ``t`` itself. This is exactly the list
  scheduling priority of §12 ("the length of the longest path from ti to a
  sink task in the graph (node weights only, ti included)").
* *top level* ``tl(t)`` — longest node-weighted path from a source up to but
  excluding ``t`` (the classic companion quantity; used by generators and
  deadline assignment).
* critical path and its length (ideal makespan on infinitely many unit-speed
  processors with free communication) — the workload layer derives job
  deadlines from it.
* ``longest_path_task_count`` — maximum number of tasks on any critical path,
  the η of equation (4)'s laxity ℓ(t) = (d − r − M*)/η, here in its DAG form
  (the schedule-aware form lives in :mod:`repro.core.adjustment`).

Everything is a single O(|T| + |E|) dynamic program over the memoised
topological order — no recursion, so graphs of 10^5 tasks are fine.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.graphs.dag import Dag
from repro.types import EPS, TaskId


def topological_order(dag: Dag) -> Tuple[TaskId, ...]:
    """Stable topological order of ``dag`` (delegates to the memoised one)."""
    return dag.topological_order()


def bottom_levels(dag: Dag) -> Dict[TaskId, float]:
    """Node-weighted longest path from each task to a sink, inclusive.

    ``bl(t) = c(t) + max(bl(s) for s in Γ⁺(t))`` with ``bl(sink) = c(sink)``.
    Delegates to the memoised map on the (immutable) ``dag`` — treat the
    result as read-only.
    """
    return dag.bottom_levels()


def top_levels(dag: Dag) -> Dict[TaskId, float]:
    """Node-weighted longest path from a source to each task, exclusive.

    ``tl(t) = max(tl(p) + c(p) for p in Γ⁻(t))`` with ``tl(source) = 0``.
    """
    tl: Dict[TaskId, float] = {}
    for t in dag.topological_order():
        preds = dag.predecessors(t)
        tl[t] = max((tl[p] + dag.complexity(p) for p in preds), default=0.0)
    return tl


def critical_path_length(dag: Dag) -> float:
    """Length (sum of complexities) of the longest path in the DAG
    (memoised on the immutable ``dag``)."""
    return dag.critical_path_length()


def critical_path(dag: Dag) -> List[TaskId]:
    """One longest node-weighted path, source → sink.

    Ties are broken deterministically by following the first maximising
    successor in adjacency order, so repeated calls agree.
    """
    bl = bottom_levels(dag)
    # Start from the source with maximal bottom level.
    cur = max(dag.sources(), key=lambda t: (bl[t], repr(t)))
    path = [cur]
    while dag.successors(cur):
        nxt = None
        best = -1.0
        for s in dag.successors(cur):
            if bl[s] > best + EPS:
                best = bl[s]
                nxt = s
        assert nxt is not None
        path.append(nxt)
        cur = nxt
    return path


def longest_path_task_count(dag: Dag) -> int:
    """Maximum number of tasks on any *node-weight-critical* path.

    Among all source→sink paths whose total complexity equals the critical
    path length, return the largest task count. This is η restricted to the
    DAG itself (no schedule edges); the schedule-level η used by equation (4)
    is computed in :func:`repro.core.adjustment.schedule_eta` on the S*
    schedule graph.

    A node ``t`` is *critical* iff ``tl(t) + bl(t) == cp_len``; an edge
    ``(t, s)`` between critical nodes continues a critical path iff
    ``bl(t) == c(t) + bl(s)``. Every critical node lies on some critical
    path, so η is the longest (task-count) path in the critical sub-DAG.
    """
    bl = bottom_levels(dag)
    tl = top_levels(dag)
    cp_len = max(bl[s] for s in dag.sources())

    def is_critical(t: TaskId) -> bool:
        return abs(tl[t] + bl[t] - cp_len) <= EPS

    # count[t] = max tasks on a critical suffix starting at critical t.
    count: Dict[TaskId, int] = {}
    for t in reversed(dag.topological_order()):
        if not is_critical(t):
            continue
        best = 0
        for s in dag.successors(t):
            if is_critical(s) and abs(bl[t] - (dag.complexity(t) + bl[s])) <= EPS:
                best = max(best, count[s])
        count[t] = 1 + best
    return max((count[s] for s in dag.sources() if is_critical(s)), default=1)


def parallelism_profile(dag: Dag) -> Dict[int, int]:
    """Tasks per precedence *depth* (hop level), for workload diagnostics."""
    depth: Dict[TaskId, int] = {}
    for t in dag.topological_order():
        preds = dag.predecessors(t)
        depth[t] = 1 + max((depth[p] for p in preds), default=-1)
    profile: Dict[int, int] = {}
    for d in depth.values():
        profile[d] = profile.get(d, 0) + 1
    return profile


def width(dag: Dag) -> int:
    """Maximum number of tasks at any depth (a cheap parallelism proxy)."""
    return max(parallelism_profile(dag).values())
