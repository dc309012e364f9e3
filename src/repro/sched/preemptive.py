"""Preemptive-EDF variant of the local scheduler (paper §13, first bullet).

"This algorithm may provide better results in the preemptive case": when a
site may split a task across several idle windows, more task sets become
locally satisfiable. On one processor, preemptive EDF is *optimal* for
independent tasks with release times and deadlines, so simulating EDF over
the plan's idle windows is an exact feasibility test — anything EDF misses
is genuinely infeasible.

:func:`preemptive_chunks` additionally returns the concrete execution
chunks (as ordinary :class:`Reservation` slices) so the plan can commit a
preemptive admission with the same machinery as the non-preemptive path;
:func:`preemptive_slots` returns the same chunks as uncommitted
:data:`~repro.sched.intervals.Slot` tuples for §10 validation, which
commits at most one of the processors it tests.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Sequence, Tuple

from repro.sched.intervals import BusyTimeline, Reservation, Slot
from repro.sched.feasibility import WindowTask
from repro.types import EPS, Time

#: one execution chunk: (start, end, index of its task)
_Run = Tuple[Time, Time, int]


def _edf_simulation(
    timeline: BusyTimeline,
    tasks: Sequence[WindowTask],
    not_before: Time,
    collect: bool,
) -> Optional[List[_Run]]:
    """Simulate preemptive EDF inside the timeline's idle windows.

    Returns the chunk list (or ``[]`` when ``collect`` is False) on success,
    ``None`` on a deadline miss.
    """
    if not tasks:
        return []
    releases = sorted(
        ((max(t.release, not_before), i) for i, t in enumerate(tasks)),
        key=lambda x: (x[0], x[1]),
    )
    horizon = max(t.deadline for t in tasks)
    windows = timeline.idle_windows(
        min(r for r, _ in releases), horizon
    )
    remaining = [t.duration for t in tasks]
    chunks: List[_Run] = []
    ready: List[Tuple[Time, int]] = []  # (deadline, index) heap
    next_rel = 0
    n_done = 0

    for w_start, w_end in windows:
        now = w_start
        while now < w_end - EPS:
            # admit released tasks
            while next_rel < len(releases) and releases[next_rel][0] <= now + EPS:
                _, i = releases[next_rel]
                heapq.heappush(ready, (tasks[i].deadline, i))
                next_rel += 1
            if not ready:
                if next_rel >= len(releases):
                    now = w_end
                    break
                now = min(w_end, releases[next_rel][0])
                continue
            ddl, i = ready[0]
            if ddl < now + remaining[i] - EPS and ddl < now - EPS:
                # current earliest deadline already passed
                return None
            # run task i until: window end, next release, or completion
            until = w_end
            if next_rel < len(releases):
                until = min(until, releases[next_rel][0])
            run = min(remaining[i], until - now)
            if run > EPS:
                if collect:
                    chunks.append((now, now + run, i))
                remaining[i] -= run
                now += run
            if remaining[i] <= EPS:
                heapq.heappop(ready)
                if now > tasks[i].deadline + EPS:
                    return None
                n_done += 1
            elif now >= until - EPS and until < w_end - EPS:
                # a release interrupted us; loop to re-evaluate EDF order
                continue
            elif now >= w_end - EPS:
                break
        # window exhausted; check no ready task is already doomed
        for ddl, i in ready:
            if ddl < now - EPS:
                return None

    if n_done < len(tasks):
        return None
    # merge adjacent chunks of the same task for tidier plans
    if collect and chunks:
        merged: List[_Run] = [chunks[0]]
        for ch in chunks[1:]:
            last = merged[-1]
            if ch[2] == last[2] and abs(ch[0] - last[1]) <= EPS:
                merged[-1] = (last[0], ch[1], last[2])
            else:
                merged.append(ch)
        return merged
    return chunks


def preemptive_chunks(
    timeline: BusyTimeline, tasks: Sequence[WindowTask], not_before: Time
) -> Optional[List[Reservation]]:
    """Concrete EDF execution chunks, or ``None`` if infeasible."""
    runs = _edf_simulation(timeline, tasks, not_before, collect=True)
    if runs is None:
        return None
    out: List[Reservation] = []
    for s, e, i in runs:
        t = tasks[i]
        out.append(Reservation(s, e, t.job, t.task, release=t.release, deadline=t.deadline))
    return out


def preemptive_slots(
    timeline: BusyTimeline, tasks: Sequence[WindowTask], not_before: Time
) -> Optional[List[Slot]]:
    """The chunks of :func:`preemptive_chunks` as uncommitted slots."""
    runs = _edf_simulation(timeline, tasks, not_before, collect=True)
    if runs is None:
        return None
    out: List[Slot] = []
    for s, e, i in runs:
        t = tasks[i]
        out.append((s, e, t.task, t.release, t.deadline))
    return out
