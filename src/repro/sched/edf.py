"""EDF analysis utilities (demand-bound reasoning).

These are *analysis* helpers, not used on the protocol hot path: the
processor-demand criterion gives a necessary condition for feasibility of
window tasks on a timeline, which the property tests use to cross-check the
constructive tests in :mod:`repro.sched.feasibility` and
:mod:`repro.sched.preemptive` (a constructive "yes" must satisfy the bound;
a bound violation must make both tests say "no").
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.sched.feasibility import WindowTask
from repro.sched.intervals import BusyTimeline
from repro.types import EPS, Time


def demand(tasks: Sequence[WindowTask], t1: Time, t2: Time) -> Time:
    """Processor demand of ``tasks`` in ``[t1, t2]``: total work of tasks
    whose window lies entirely inside the interval."""
    return sum(
        t.duration for t in tasks if t.release >= t1 - EPS and t.deadline <= t2 + EPS
    )


def demand_points(tasks: Sequence[WindowTask]) -> Tuple[List[Time], List[Time]]:
    """Candidate interval endpoints (releases, deadlines) for the criterion."""
    rel = sorted({t.release for t in tasks})
    ddl = sorted({t.deadline for t in tasks})
    return rel, ddl


def demand_bound_satisfied(
    timeline: BusyTimeline, tasks: Sequence[WindowTask], not_before: Time
) -> bool:
    """Necessary feasibility condition (even preemptively).

    For every release/deadline pair ``(t1, t2)``, the demand inside
    ``[max(t1, not_before), t2]`` must not exceed the timeline's idle
    capacity there. O(n² · timeline) — test-oracle usage only.
    """
    rel, ddl = demand_points(tasks)
    for t1 in rel:
        lo = max(t1, not_before)
        for t2 in ddl:
            if t2 <= lo + EPS:
                continue
            need = demand(tasks, t1, t2)
            if need <= EPS:
                continue
            have = timeline.idle_time(lo, t2)
            if need > have + EPS:
                return False
    return True
