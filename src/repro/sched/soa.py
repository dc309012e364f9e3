"""Structure-of-arrays feasibility probing.

The admission hot path (local test, trial-mapping probes, validation
endorsements) spends its time asking one question thousands of times per
second: *where is the earliest gap of duration ``c`` inside ``[r, d]`` on
this timeline, given the placements already tentatively made?* The
object-based route — copy the :class:`~repro.sched.intervals.BusyTimeline`,
build a ``Reservation`` per probe, re-run the overlap check on insert —
pays for attribute access and object construction on every step.

This module is the flat core those tests now share: probing and tentative
insertion operate directly on parallel ``starts``/``ends`` float lists.
The lists are the timeline's *live tail* (``BusyTimeline.scratch_arrays(
cutoff)``, the intervals ending after the probes' common floor), so a
probe costs what is still scheduled, not the plan's whole history; the
dropped prefix only shifts every bisect index by a constant. The local
test builds ``Reservation`` objects for placements that survive the whole
test; validation builds them only for the one processor it commits.

There is one earliest-gap scan, :func:`earliest_gap`:
``BusyTimeline.earliest_fit`` is that scan over the timeline's own arrays,
and :func:`fit_and_hold` is the scan followed by the insertion
``BusyTimeline.reserve`` would make (same bisect insertion point), so every
placement is byte-identical to what the object path produced. The
identity goldens gate this.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import List, Optional

from repro.errors import SchedulingError
from repro.types import EPS, Time


def earliest_gap(
    starts: List[Time],
    ends: List[Time],
    duration: Time,
    release: Time,
    deadline: Time,
) -> Optional[Time]:
    """Earliest ``s >= release`` with ``[s, s+duration)`` free on the
    sorted parallel arrays and ``s + duration <= deadline``; ``None`` if
    no such gap exists.
    """
    if duration <= EPS:
        raise SchedulingError(f"duration must be > 0, got {duration}")
    if release + duration > deadline + EPS:
        return None
    n = len(starts)
    s = release
    i = bisect_right(starts, s + EPS)
    if i > 0 and ends[i - 1] > s + EPS:
        # release falls inside a busy interval: earliest candidate is its end
        s = ends[i - 1]
    while True:
        if s + duration > deadline + EPS:
            return None
        if i < n and starts[i] < s + duration - EPS:
            # gap before next reservation too small; jump past it
            s = ends[i]
            i += 1
            continue
        return s


def fit_and_hold(
    starts: List[Time],
    ends: List[Time],
    duration: Time,
    release: Time,
    deadline: Time,
) -> Optional[Time]:
    """Earliest fit of ``duration`` in ``[release, deadline]`` — and take it.

    On success the slot ``[s, s+duration)`` is inserted into the parallel
    arrays (keeping them sorted) and ``s`` is returned; on failure the
    arrays are untouched and ``None`` is returned. The arrays are the
    caller's scratch state, so "insert" here is a tentative hold, not a
    commitment.
    """
    s = earliest_gap(starts, ends, duration, release, deadline)
    if s is None:
        return None
    # Same insertion point as BusyTimeline.reserve: the slot is free, so
    # no existing start lies in (s, s+EPS] and the EPS-shifted bisect
    # equals the exact one.
    j = bisect_right(starts, s + EPS)
    starts.insert(j, s)
    ends.insert(j, s + duration)
    return s
