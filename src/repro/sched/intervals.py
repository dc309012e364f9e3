"""Busy-interval timeline with earliest-fit queries.

The central data structure of the local scheduler: a sorted sequence of
non-overlapping, labelled busy intervals ``[start, end)`` on one compute
processor. Insertion-based scheduling ("in-between tasks already accepted",
paper §5) reduces to :meth:`BusyTimeline.earliest_fit`: the earliest gap of a
given duration inside a release/deadline window.

Performance notes (profiled on the E1 workload): plans hold tens of live
reservations; ``bisect`` + list insert is faster than any tree below ~10^3
entries, and :meth:`prune_before` — called by the executor at every
completion — keeps a plan to one surplus window of finished history. Every
what-if probe still works on the *live tail* only —
:meth:`BusyTimeline.scratch_arrays` and :meth:`BusyTimeline.copy` take a
cutoff and drop the intervals that end at or before it, which no probe
released at or after the cutoff can see.
All comparisons use the shared EPS tolerance so adjacent reservations
(end == next start) never collide through float noise.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from repro.errors import SchedulingError
from repro.sched.soa import earliest_gap
from repro.types import DATACLASS_SLOTS, EPS, JobId, TaskId, Time


@dataclass(frozen=True, **DATACLASS_SLOTS)
class Reservation:
    """One committed busy interval.

    ``job``/``task`` identify what runs; ``release``/``deadline`` record the
    window the slot was allocated inside (diagnostics + re-validation).
    """

    start: Time
    end: Time
    job: JobId
    task: TaskId
    release: Time = 0.0
    deadline: Time = float("inf")

    def __post_init__(self) -> None:
        if self.end <= self.start + EPS:
            raise SchedulingError(
                f"reservation for job {self.job} task {self.task!r}: "
                f"empty/negative interval [{self.start}, {self.end})"
            )

    @property
    def duration(self) -> Time:
        return self.end - self.start

    def key(self) -> Tuple[JobId, TaskId]:
        return (self.job, self.task)


#: A tested, not yet committed placement ``(start, end, task, release,
#: deadline)`` — what §10 validation answers per endorsed processor. A site
#: commits at most one processor, and only that one becomes ``Reservation``s.
Slot = Tuple[Time, Time, TaskId, Time, Time]


class BusyTimeline:
    """Sorted, non-overlapping busy intervals on one processor.

    Structure-of-arrays layout: ``_starts`` and ``_ends`` are parallel
    primitive-float lists mirroring ``_items``. Feasibility probing
    (:mod:`repro.sched.soa`) walks the float arrays directly — no
    ``Reservation`` attribute access, no timeline copies — and the arrays
    double as the timeline's state signature for the admission cache.
    """

    __slots__ = ("_starts", "_ends", "_items")

    def __init__(self) -> None:
        self._starts: List[Time] = []
        self._ends: List[Time] = []
        self._items: List[Reservation] = []

    # -- queries -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[Reservation]:
        return iter(self._items)

    def is_free(self, start: Time, end: Time) -> bool:
        """True iff [start, end) overlaps no reservation."""
        if end <= start + EPS:
            raise SchedulingError(f"empty window [{start}, {end})")
        starts = self._starts
        ends = self._ends
        i = bisect_right(starts, start + EPS)
        # predecessor may cover start; successor may begin before end
        if i > 0 and ends[i - 1] > start + EPS:
            return False
        if i < len(starts) and starts[i] < end - EPS:
            return False
        return True

    def earliest_fit(
        self, duration: Time, release: Time, deadline: Time
    ) -> Optional[Time]:
        """Earliest ``s >= release`` with ``[s, s+duration)`` free and
        ``s + duration <= deadline``; ``None`` if no such gap exists.
        """
        return earliest_gap(self._starts, self._ends, duration, release, deadline)

    def idle_windows(self, start: Time, end: Time) -> List[Tuple[Time, Time]]:
        """Maximal free sub-intervals of [start, end), in order."""
        if end <= start + EPS:
            return []
        out: List[Tuple[Time, Time]] = []
        starts = self._starts
        ends = self._ends
        n = len(starts)
        cur = start
        i = bisect_right(starts, start + EPS)
        if i > 0 and ends[i - 1] > start + EPS:
            cur = min(ends[i - 1], end)
        while cur < end - EPS:
            if i >= n or starts[i] >= end - EPS:
                out.append((cur, end))
                break
            ns = starts[i]
            if ns > cur + EPS:
                out.append((cur, min(ns, end)))
            cur = max(cur, min(ends[i], end))
            i += 1
        return out

    def idle_time(self, start: Time, end: Time) -> Time:
        """Total free time inside [start, end).

        Same walk as :meth:`idle_windows` with the interval list fused
        away — this runs on every enrollment answer (surplus), so the
        intermediate tuples are pure overhead there.
        """
        starts = self._starts
        ends = self._ends
        n = len(starts)
        total = 0.0
        cur = start
        i = bisect_right(starts, start + EPS)
        if i > 0 and ends[i - 1] > start + EPS:
            cur = min(ends[i - 1], end)
        while cur < end - EPS:
            if i >= n or starts[i] >= end - EPS:
                total += end - cur
                break
            ns = starts[i]
            if ns > cur + EPS:
                total += min(ns, end) - cur
            cur = max(cur, min(ends[i], end))
            i += 1
        return total

    def _tail_start(self, cutoff: Optional[Time]) -> int:
        """Index of the first interval with ``end > cutoff + EPS``.

        Intervals never overlap, so ``_ends`` is sorted like ``_starts``
        and the finished history is always a prefix.
        """
        return 0 if cutoff is None else bisect_right(self._ends, cutoff + EPS)

    def scratch_arrays(
        self, after: Optional[Time] = None
    ) -> Tuple[List[Time], List[Time]]:
        """Mutable (starts, ends) copies for what-if probing.

        Feasibility tests probe and tentatively insert on these plain float
        lists (:mod:`repro.sched.soa`) instead of copying the whole
        timeline. With ``after`` only the live tail is copied (see
        :meth:`tail_signature`): every placement made by probes released
        at or after ``after`` is the same as on the full arrays — the
        dropped prefix only shifts the bisect indices by a constant.
        """
        k = self._tail_start(after)
        return (self._starts[k:], self._ends[k:])

    def signature(self) -> Tuple[Tuple[Time, ...], Tuple[Time, ...]]:
        """Hashable (starts, ends) snapshot — the admission-cache state digest.

        Two timelines with equal signatures admit exactly the same windows:
        feasibility probing reads nothing but these two arrays.
        """
        return (tuple(self._starts), tuple(self._ends))

    def tail_signature(
        self, cutoff: Time
    ) -> Tuple[Tuple[Time, ...], Tuple[Time, ...]]:
        """Signature of the intervals still visible past ``cutoff``.

        An interval with ``end <= cutoff + EPS`` cannot influence any
        probe whose release is at or after ``cutoff`` (the predecessor
        check ignores it, and probing only moves forward), so two
        timelines with equal *tail* signatures answer all such probes
        identically — whatever already-finished history they carry.
        """
        k = self._tail_start(cutoff)
        return (tuple(self._starts[k:]), tuple(self._ends[k:]))

    def tail_len(self, cutoff: Time) -> int:
        """Number of intervals still visible past ``cutoff``."""
        return len(self._ends) - self._tail_start(cutoff)

    def at(self, time: Time) -> Optional[Reservation]:
        """The reservation covering ``time``, if any."""
        i = bisect_right(self._starts, time + EPS)
        if i > 0 and self._items[i - 1].end > time + EPS:
            return self._items[i - 1]
        return None

    # -- mutation ------------------------------------------------------------

    def reserve(self, res: Reservation) -> None:
        """Insert ``res``; raises :class:`SchedulingError` on overlap.

        One bisect serves both the overlap check and the insertion point:
        when the window is free there is no existing start inside
        ``(start, start+EPS]`` (it would overlap), so the EPS-shifted
        index equals the exact one.
        """
        start = res.start
        end = res.end
        if end <= start + EPS:
            raise SchedulingError(f"empty window [{start}, {end})")
        starts = self._starts
        ends = self._ends
        i = bisect_right(starts, start + EPS)
        if (i > 0 and ends[i - 1] > start + EPS) or (
            i < len(starts) and starts[i] < end - EPS
        ):
            clash = self.at(start) or self.at(end - 2 * EPS)
            raise SchedulingError(
                f"reservation {res.job}/{res.task!r} [{start}, {end}) "
                f"overlaps {clash.job}/{clash.task!r} [{clash.start}, {clash.end})"
                if clash
                else f"reservation [{start}, {end}) overlaps existing work"
            )
        starts.insert(i, start)
        ends.insert(i, end)
        self._items.insert(i, res)

    def remove_exact(self, res: Reservation) -> None:
        """Remove exactly ``res`` (identity); raises if it is not present.

        Rollback primitive for atomic batch commits: starts are unique
        (intervals are non-overlapping with positive length), so the
        bisect lands on the only possible slot.
        """
        i = bisect_left(self._starts, res.start)
        if i < len(self._items) and self._items[i] is res:
            del self._items[i]
            del self._starts[i]
            del self._ends[i]
            return
        raise SchedulingError(
            f"reservation {res.job}/{res.task!r} [{res.start}, {res.end}) not present"
        )

    def prune_before(self, time: Time) -> int:
        """Drop reservations that end at or before ``time`` (history) —
        the prefix :meth:`_tail_start` finds."""
        i = self._tail_start(time)
        if i:
            del self._items[:i]
            del self._starts[:i]
            del self._ends[:i]
        return i

    def copy(self, after: Optional[Time] = None) -> "BusyTimeline":
        """Shallow copy (reservations are frozen, safe to share).

        With ``after``, a scratch copy of the live tail only — the same cut
        as :meth:`scratch_arrays`, for what-if schedules whose every probe
        and reservation starts at or after ``after``.
        """
        k = self._tail_start(after)
        other = BusyTimeline()
        other._starts = self._starts[k:]
        other._ends = self._ends[k:]
        other._items = self._items[k:]
        return other

    # -- invariants ------------------------------------------------------------

    def check_invariants(self) -> None:
        """Assert sortedness and non-overlap (used by property tests)."""
        for i in range(1, len(self._items)):
            a, b = self._items[i - 1], self._items[i]
            if b.start < a.end - EPS:
                raise SchedulingError(
                    f"overlap: [{a.start},{a.end}) and [{b.start},{b.end})"
                )
            if self._starts[i] != b.start or self._starts[i - 1] != a.start:
                raise SchedulingError("start index out of sync")
            if self._ends[i] != b.end or self._ends[i - 1] != a.end:
                raise SchedulingError("end index out of sync")
