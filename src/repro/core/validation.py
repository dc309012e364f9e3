"""Trial-Mapping validation (paper §10).

Site side — :func:`endorse_mapping`: "upon reception of M, a site j tries
to validate all tasks assigned to a logical site i for each i ∈ U. [...] A
set of tasks Ti is locally satisfiable iff each task t of Ti may be
executed with respect to its release r(t) and deadline d(t)." The site
answers with the list of endorsable logical processors and caches the
concrete slots so an eventual EXECUTE commits exactly what was tested.

What a probe pays for is the *live tail* of the plan, not its history:
every task window is floored at ``now``, so the probe copies only the
intervals that end after ``now`` (``BusyTimeline.scratch_arrays(now)``),
with every placement the same as on the full plan. The slots are plain
:data:`~repro.sched.intervals.Slot` tuples; a site is matched to at most
one logical processor, and :func:`slot_reservations` turns only that one's
slots into ``Reservation`` objects, at commit.

Initiator side — :func:`compute_permutation`: "it computes a maximum
coupling [...]. If the cardinality of the maximum coupling is less than |U|
then no combination satisfies all Ti and the DAG is rejected"; otherwise the
perfect matching *is* the site ↔ logical-processor permutation.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.sched.feasibility import WindowTask
from repro.sched.intervals import BusyTimeline, Reservation, Slot
from repro.sched.matching import perfect_left_matching
from repro.sched.preemptive import preemptive_slots
from repro.sched.soa import fit_and_hold
from repro.types import JobId, LogicalProc, SiteId, TaskId, Time

#: VALIDATE payload entry: (task, complexity, release, deadline)
ProcTasks = Dict[LogicalProc, List[Tuple[TaskId, float, Time, Time]]]

#: internal probe entry: (task, duration, release, deadline)
_Entry = Tuple[TaskId, Time, Time, Time]


def _edf_key(e: _Entry) -> Tuple[Time, Time, str]:
    return (e[3], e[2], repr(e[0]))


def _llf_key(e: _Entry) -> Tuple[Time, Time, str]:
    return ((e[3] - e[2]) - e[1], e[3], repr(e[0]))


_ENTRY_ORDERS = {"edf": _edf_key, "llf": _llf_key}


def _probe_window_entries(
    timeline: BusyTimeline,
    entries: List[_Entry],
    not_before: Time,
    order: str,
) -> Optional[List[Slot]]:
    """The non-preemptive §10 satisfiability test over payload entries.

    Every task must fit entirely inside ``[max(release, not_before),
    deadline]``, at the earliest gap of the timeline's live tail. Tasks are
    inserted in EDF order (deadline, then release, then id — duration does
    not enter the key), optimal for the nested/agreeable windows the
    adjustment step produces, or least-laxity-first (laxity ``(d - r) -
    duration``), which gives the tightest windows first pick of the gaps.
    """
    try:
        key = _ENTRY_ORDERS[order]
    except KeyError:
        raise ValueError(
            f"unknown insertion order {order!r}; known: {sorted(_ENTRY_ORDERS)}"
        ) from None
    starts, ends = timeline.scratch_arrays(not_before)
    placed: List[Slot] = []
    for e in sorted(entries, key=key):
        lo = e[2] if e[2] > not_before else not_before
        start = fit_and_hold(starts, ends, e[1], lo, e[3])
        if start is None:
            return None
        placed.append((start, start + e[1], e[0], e[2], e[3]))
    return placed


def slot_reservations(job: JobId, slots: Sequence[Slot]) -> List[Reservation]:
    """The committed processor's slots as plan reservations.

    The one place validation slots become ``Reservation`` objects: called
    for the single logical processor a site is matched to, at commit.
    """
    return [
        Reservation(s, e, job, task, release=r, deadline=d)
        for (s, e, task, r, d) in slots
    ]


def endorse_mapping(
    timeline: BusyTimeline,
    job: JobId,
    procs: ProcTasks,
    now: Time,
    preemptive: bool = False,
    speed: float = 1.0,
    order: str = "edf",
) -> Tuple[List[LogicalProc], Dict[LogicalProc, List[Slot]]]:
    """Which logical processors can this site endorse?

    Each processor's task set is tested *independently* against the current
    plan (a site is matched to at most one logical processor, so the tests
    must not see each other's slots). Durations are ``complexity / speed``
    — a heterogeneous (§13 uniform machines) site answers for itself.

    Returns the endorsed indices and the concrete slots per index, as
    uncommitted :data:`~repro.sched.intervals.Slot` tuples on both the
    EDF/LLF and the preemptive path (see :func:`slot_reservations`).
    """
    endorsed: List[LogicalProc] = []
    slots: Dict[LogicalProc, List[Slot]] = {}
    for proc in sorted(procs):
        entries: List[_Entry] = []
        too_tight = False
        for (tid, c, r, d) in procs[proc]:
            dur = c / speed
            if r + dur > d + 1e-9:
                too_tight = True  # window too small even on an empty machine
                break
            entries.append((tid, dur, r, d))
        if too_tight:
            continue
        if preemptive:
            tasks = [WindowTask(job, tid, dur, r, d) for (tid, dur, r, d) in entries]
            fit = preemptive_slots(timeline, tasks, not_before=now)
        else:
            fit = _probe_window_entries(timeline, entries, not_before=now, order=order)
        if fit is not None:
            endorsed.append(proc)
            slots[proc] = fit
    return endorsed, slots


def compute_permutation(
    used_procs: Sequence[LogicalProc],
    endorsements: Dict[SiteId, List[LogicalProc]],
) -> Optional[Dict[LogicalProc, SiteId]]:
    """The §10 coupling: a perfect matching proc → site, or ``None``.

    ``endorsements[site]`` lists the logical processors the site can endorse;
    every processor in ``used_procs`` must be covered for acceptance.
    """
    adjacency: Dict[LogicalProc, List[SiteId]] = {p: [] for p in used_procs}
    for site in sorted(endorsements):
        for p in endorsements[site]:
            if p in adjacency:
                adjacency[p].append(site)
    return perfect_left_matching(adjacency)
