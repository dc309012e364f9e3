"""The Mapper: Trial-Mapping construction (paper §9 + the §12 instance).

The paper's §12 instance, implemented exactly:

* **task selection** — list scheduling by critical path: the priority of a
  task is the length of the longest node-weighted path from it to a sink,
  itself included (= its bottom level); only *free* tasks (all predecessors
  mapped) are eligible;
* **processor selection** — greedy: the logical processor giving the
  earliest finish time, with estimated duration ``c(t) / I`` (surplus
  scaling, eq. (1)) and communication from each immediate predecessor on a
  different logical processor over-estimated by the ACS delay diameter ω;
* a task starts no sooner than the end of the previous task mapped on its
  processor, nor before the communications from its predecessors.

Determinism: priority ties fall back to topological index; finish-time ties
prefer the lower processor index (= higher surplus). These tie-breaks
reproduce Figures 3/4 and Table 1 exactly (tests/core/test_paper_example).

§13 "Local knowledge of k": a processor spec carrying the initiator's own
``timeline`` is scheduled by real insertion (earliest gap, true duration
``c/speed``) instead of the surplus estimate. The caller's timeline is
only read: the mapper probes a private copy of its live tail past the job
release.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import MappingError
from repro.graphs.dag import Dag
from repro.sched.intervals import BusyTimeline, Reservation
from repro.core.trial_mapping import LogicalProcSpec, TrialMapping
from repro.types import EPS, JobId, LogicalProc, TaskId, Time


def build_trial_mapping(
    job: JobId,
    dag: Dag,
    procs: Sequence[LogicalProcSpec],
    omega: Time,
    job_release: Time,
) -> TrialMapping:
    """Construct the Trial-Mapping ``M`` (the §12 list-scheduling instance).

    ``procs`` must be ordered by descending surplus (index 0 = highest);
    ``omega`` is the ACS delay diameter; ``job_release`` the (already
    protocol-margin-augmented, §13) release ``r``.

    The returned mapping has compacted logical processors: only processors
    that received a task remain, re-indexed to ``0..|U|-1`` preserving the
    surplus order. Releases/deadlines are *not* yet adjusted — see
    :func:`repro.core.adjustment.adjust_trial_mapping`.
    """
    if not procs:
        raise MappingError(f"job {job}: mapper needs at least one logical processor")
    for i, p in enumerate(procs):
        if p.index != i:
            raise MappingError(f"proc spec at position {i} has index {p.index}")
        if i > 0 and p.surplus > procs[i - 1].surplus + EPS:
            raise MappingError("proc specs must be sorted by descending surplus")
    if omega < 0:
        raise MappingError(f"omega must be >= 0, got {omega}")

    prio = dag.bottom_levels()
    topo_index = dag.topo_index()

    assignment: Dict[TaskId, LogicalProc] = {}
    start: Dict[TaskId, Time] = {}
    finish: Dict[TaskId, Time] = {}
    proc_avail: List[Time] = [job_release] * len(procs)
    #: §13 local-knowledge scratch timelines (per proc that has one): the
    #: one copy of the caller's timeline, its live tail only — every probe
    #: and tentative reservation below starts at or after ``job_release``
    scratch: Dict[int, BusyTimeline] = {
        i: p.timeline.copy(job_release)
        for i, p in enumerate(procs)
        if p.timeline is not None
    }
    # hoisted per-proc estimate state: estimated_duration is c / (I·speed)
    # (eq. (1)) and runs |T|·|U| times — precomputing the denominator keeps
    # the division (bit-identical) and drops the method dispatch; a None
    # denominator marks a §13 local-knowledge proc (real insertion instead)
    est_denom: List[Optional[float]] = [
        None if p.timeline is not None else p.surplus * p.speed for p in procs
    ]
    speeds: List[float] = [p.speed for p in procs]
    n_procs = len(procs)

    # Free list as a heap of (-priority, topo_index, task).
    unmapped_preds = {t: len(dag.predecessors(t)) for t in dag}
    free = [(-prio[t], topo_index[t], t) for t in dag if unmapped_preds[t] == 0]
    heapq.heapify(free)

    while free:
        _, _, t = heapq.heappop(free)
        c = dag.complexity(t)
        preds = dag.predecessors(t)
        best: Optional[Tuple[Time, int, Time]] = None  # (finish, proc, start)
        for i in range(n_procs):
            ready = job_release
            for p in preds:
                pf = finish[p] if assignment[p] == i else finish[p] + omega
                if pf > ready:
                    ready = pf
            denom = est_denom[i]
            if denom is not None:
                s = proc_avail[i]
                if ready > s:
                    s = ready
                f = s + c / denom
            else:
                dur = c / speeds[i]
                lo = proc_avail[i]
                if ready > lo:
                    lo = ready
                s0 = scratch[i].earliest_fit(dur, lo, float("inf"))
                assert s0 is not None  # deadline is +inf
                s, f = s0, s0 + dur
            if best is None or f < best[0] - EPS or (abs(f - best[0]) <= EPS and i < best[1]):
                best = (f, i, s)
        assert best is not None
        f, i, s = best
        assignment[t] = i
        start[t] = s
        finish[t] = f
        proc_avail[i] = max(proc_avail[i], f)
        if i in scratch:
            scratch[i].reserve(Reservation(s, f, job, t))
        for succ in dag.successors(t):
            unmapped_preds[succ] -= 1
            if unmapped_preds[succ] == 0:
                heapq.heappush(free, (-prio[succ], topo_index[succ], succ))

    if len(assignment) != len(dag):
        raise MappingError(f"job {job}: mapper covered {len(assignment)}/{len(dag)} tasks")

    return _compact(
        TrialMapping(
            job=job,
            dag=dag,
            procs=list(procs),
            assignment=assignment,
            start=start,
            finish=finish,
            omega=omega,
            job_release=job_release,
        )
    )


def _compact(tm: TrialMapping) -> TrialMapping:
    """Drop empty logical processors, re-indexing to 0..|U|-1.

    Preserves the descending-surplus order; the paper's U contains only
    processors that actually received tasks (§10 validates each i ∈ U).
    """
    used = sorted(set(tm.assignment.values()))
    if used == list(range(len(tm.procs))):
        return tm
    remap = {old: new for new, old in enumerate(used)}
    procs = [
        LogicalProcSpec(
            index=remap[p.index],
            surplus=p.surplus,
            speed=p.speed,
            busyness=p.busyness,
            timeline=p.timeline,
        )
        for p in tm.procs
        if p.index in remap
    ]
    return TrialMapping(
        job=tm.job,
        dag=tm.dag,
        procs=procs,
        assignment={t: remap[p] for t, p in tm.assignment.items()},
        start=tm.start,
        finish=tm.finish,
        omega=tm.omega,
        job_release=tm.job_release,
    )
