"""Discrete-event simulation engine.

A minimal, fast, deterministic event loop:

* the heap holds plain ``(time, priority, seq, handle)`` tuples, so heap
  ordering is decided entirely by C-level tuple comparison — no Python
  ``__lt__`` ever runs on the hot path;
* ``seq`` is a global monotonically increasing counter, so events with equal
  time and priority fire in scheduling order — together with seeded RNGs
  this makes every simulation bit-for-bit reproducible (``seq`` is unique,
  so a comparison never falls through to the handle);
* callbacks are plain callables (no generator/coroutine machinery — profiling
  early prototypes showed the callback style is ~3x faster in CPython for
  our message-dominated workloads, and the protocol state machines read more
  naturally as handler methods anyway);
* :meth:`Simulator.schedule_call` passes a single argument positionally to
  the callback, so high-rate callers (message delivery) never allocate a
  closure per event;
* cancelled events are dropped lazily, but once they outnumber the live
  ones the heap is compacted in place (:meth:`Simulator.cancel`), so
  timer-churn workloads (ack/retransmission timers) cannot rot the heap.

The engine knows nothing about networks or scheduling; it is reused by the
routing layer tests directly.
"""

from __future__ import annotations

import heapq
import itertools
from time import perf_counter
from typing import Callable, List, Optional, Tuple

from repro.errors import SimulationError
from repro.types import Time

#: Default priority for ordinary events. Lower fires first at equal times.
PRIORITY_NORMAL = 0
#: Message deliveries use a slightly later priority than timers so that a
#: timer set "for now" observes pre-delivery state (matches how the protocol
#: pseudo-code reads).
PRIORITY_DELIVERY = 10
#: End-of-run bookkeeping (metric flushes) fires after everything else.
PRIORITY_LATE = 100

#: Sentinel: "this event's callback takes no argument".
_NO_ARG = object()

#: Compaction floor: never compact tiny heaps (rebuild cost would dominate).
_COMPACT_MIN_CANCELLED = 64


class _Event:
    """Cancellation handle riding in the heap entry's last slot.

    The heap entry itself is a plain tuple ``(time, priority, seq, handle)``
    — ordering never touches this object. ``cancelled`` doubles as a
    "consumed" flag: it is set when the event fires, which is what makes
    :meth:`Simulator.cancel` naturally idempotent (double-cancel and
    cancel-after-fire are both no-ops that cannot corrupt the live count).
    """

    __slots__ = ("callback", "arg", "cancelled")

    def __init__(self, callback: Callable, arg=_NO_ARG):
        self.callback = callback
        self.arg = arg
        self.cancelled = False


#: Heap entry type (time, priority, seq, handle).
_Entry = Tuple[Time, int, int, _Event]


class Simulator:
    """The event loop.

    Typical use::

        sim = Simulator()
        sim.schedule(1.5, lambda: print("at t=1.5"))
        sim.run()
    """

    def __init__(self) -> None:
        self._heap: List[_Entry] = []
        self._seq = itertools.count()
        self._now: Time = 0.0
        self._running = False
        self.events_processed = 0
        #: cumulative real time spent inside :meth:`run` (events/sec =
        #: ``events_processed / wall_seconds``; the E9 bench reads this)
        self.wall_seconds = 0.0
        #: not-yet-cancelled events still queued (O(1) ``pending()``)
        self._live = 0
        #: cancelled entries still physically in the heap
        self._dead = 0

    # -- time --------------------------------------------------------------

    @property
    def now(self) -> Time:
        """Current simulated time."""
        return self._now

    # -- scheduling --------------------------------------------------------

    def schedule(
        self, delay: Time, callback: Callable[[], None], priority: int = PRIORITY_NORMAL
    ) -> _Event:
        """Schedule ``callback`` to run ``delay`` time units from now.

        Returns a handle usable with :meth:`cancel`.
        """
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self.schedule_at(self._now + delay, callback, priority)

    def schedule_at(
        self, time: Time, callback: Callable[[], None], priority: int = PRIORITY_NORMAL
    ) -> _Event:
        """Schedule ``callback`` at absolute simulated time ``time``."""
        if time < self._now:
            raise SimulationError(f"cannot schedule in the past: {time} < now {self._now}")
        # inline construction (no Python __init__ frame on the hot path)
        ev = _Event.__new__(_Event)
        ev.callback = callback
        ev.arg = _NO_ARG
        ev.cancelled = False
        heapq.heappush(self._heap, (time, priority, next(self._seq), ev))
        self._live += 1
        return ev

    def schedule_call(
        self, delay: Time, callback: Callable, arg, priority: int = PRIORITY_NORMAL
    ) -> _Event:
        """Like :meth:`schedule`, but fires ``callback(arg)``.

        The closure-free fast path: the delivery pipeline schedules
        ``receive(msg)`` without building a lambda per message.
        """
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self.schedule_call_at(self._now + delay, callback, arg, priority)

    def schedule_call_at(
        self, time: Time, callback: Callable, arg, priority: int = PRIORITY_NORMAL
    ) -> _Event:
        """Like :meth:`schedule_at`, but fires ``callback(arg)``."""
        if time < self._now:
            raise SimulationError(f"cannot schedule in the past: {time} < now {self._now}")
        ev = _Event.__new__(_Event)
        ev.callback = callback
        ev.arg = arg
        ev.cancelled = False
        heapq.heappush(self._heap, (time, priority, next(self._seq), ev))
        self._live += 1
        return ev

    def cancel(self, event: _Event) -> None:
        """Cancel a pending event.

        Idempotent: cancelling twice, or cancelling an event that already
        fired, is a no-op (the live/dead counters stay exact). Once the
        cancelled entries outnumber the live ones the heap is compacted in
        place — equal-time ordering is untouched because the full sort key
        ``(time, priority, seq)`` is total.
        """
        if event.cancelled:
            return
        event.cancelled = True
        self._live -= 1
        self._dead += 1
        if self._dead >= _COMPACT_MIN_CANCELLED and self._dead * 2 > len(self._heap):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify, preserving pop order."""
        heap = self._heap
        heap[:] = [entry for entry in heap if not entry[3].cancelled]
        heapq.heapify(heap)
        self._dead = 0

    # -- running -----------------------------------------------------------

    def run(self, until: Optional[Time] = None, max_events: Optional[int] = None) -> Time:
        """Process events until the heap drains, ``until`` is passed, or
        ``max_events`` have fired. Returns the final simulated time.

        ``until`` is inclusive: events *at* ``until`` still fire; the clock
        is left at ``until`` if the run was time-bounded.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        self._running = True
        processed = 0
        heap = self._heap
        pop = heapq.heappop
        no_arg = _NO_ARG
        # +inf sentinels keep the per-event None-checks out of the loop
        limit = float("inf") if until is None else until
        budget = float("inf") if max_events is None else max_events
        t0 = perf_counter()
        try:
            while heap:
                time = heap[0][0]
                if time > limit:
                    self._now = until
                    break
                ev = pop(heap)[3]
                if ev.cancelled:
                    self._dead -= 1
                    continue
                if time < self._now:
                    raise SimulationError(
                        f"event time {time} precedes clock {self._now} (heap corruption)"
                    )
                self._now = time
                # Same-tick batch: every further event at this timestamp
                # shares the limit/clock checks done once above (message
                # deliveries cluster heavily on identical arrival times).
                # Pop order is untouched — (time, priority, seq) is total.
                while True:
                    self._live -= 1
                    ev.cancelled = True  # consumed: a late cancel() must no-op
                    arg = ev.arg
                    if arg is no_arg:
                        ev.callback()
                    else:
                        ev.callback(arg)
                    processed += 1
                    if processed >= budget:
                        break
                    nxt = None
                    while heap and heap[0][0] == time:
                        cand = pop(heap)[3]
                        if cand.cancelled:
                            self._dead -= 1
                            continue
                        nxt = cand
                        break
                    if nxt is None:
                        break
                    ev = nxt
                if processed >= budget:
                    break
            else:
                if until is not None:
                    self._now = max(self._now, until)
        finally:
            self._running = False
            self.events_processed += processed
            self.wall_seconds += perf_counter() - t0
        return self._now

    def pending(self) -> int:
        """Number of not-yet-cancelled events still queued. O(1)."""
        return self._live
