"""Wall-clock spans recorded from *outside* the program under test.

The benchmark owns its instrumentation: :class:`Tracer` wraps public
callables of ``repro`` (functions, methods, registered message handlers)
in timing closures, :class:`Patches` installs them and restores the
originals afterwards. Nothing under ``src/`` knows it is being timed.

Two kinds of wrapper:

* a **span** is recorded individually — name, start, end, the span that
  was open when it started (its parent) and, where the arguments carry
  one, the job id — and kept in memory until the run ends;
* a **kernel** is only accumulated as calls + seconds. Inner loops
  (``fit_and_hold``, ``Network.transmit``) run hundreds of thousands of
  times per cell; a span record each would cost more than the kernel.

Both kinds open a *frame* while they run, so a wrapped callee's time is
charged to the callee and subtracted from the caller: the **self time**
of a name is its busy time minus whatever its frames' children covered.
Self times over all names therefore add up to the traced call's wall
(minus the root's own, unattributed, remainder) without double counting.
"""

from __future__ import annotations

import functools
import sys
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: accumulator slots of one name
CALLS, BUSY, SELF, MEASURED = 0, 1, 2, 3


class Tracer:
    """In-memory span store plus per-name accumulators.

    ``clock`` is injectable so tests can drive it with a fake clock.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        #: span-name table; span columns refer to it by index
        self.names: List[str] = []
        self._name_id: Dict[str, int] = {}
        # recorded spans, one entry per column (parallel lists)
        self.span_name: List[int] = []
        self.span_start: List[float] = []
        self.span_end: List[float] = []
        self.span_parent: List[int] = []
        self.span_job: List[Optional[int]] = []
        #: name -> [calls, busy seconds, self seconds, measured sum]
        self.acc: Dict[str, List[float]] = {}
        #: child-seconds cells of the open frames; slot 0 is the root frame
        self._stack: List[List[float]] = [[0.0]]
        #: index of the innermost open recorded span (-1 = none)
        self._cur = -1

    # -- wrapping ----------------------------------------------------------

    def _acc(self, name: str) -> List[float]:
        return self.acc.setdefault(name, [0, 0.0, 0.0, 0])

    def span(
        self,
        fn: Callable,
        name: str,
        job_of: Optional[Callable[[tuple], Optional[int]]] = None,
    ) -> Callable:
        """Wrap ``fn`` so every call records one span called ``name``.

        ``job_of(args)`` extracts the job id from the positional
        arguments, for spans that belong to one job.
        """
        acc = self._acc(name)
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        clock, stack = self.clock, self._stack
        col_name, col_start, col_end = self.span_name, self.span_start, self.span_end
        col_parent, col_job = self.span_parent, self.span_job

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(col_name)
            col_name.append(nid)
            col_parent.append(self._cur)
            col_job.append(job_of(args) if job_of is not None else None)
            col_end.append(0.0)
            self._cur = idx
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            col_start.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self._cur = col_parent[idx]
                col_end[idx] = t1
                dur = t1 - t0
                stack[-1][0] += dur
                acc[CALLS] += 1
                acc[BUSY] += dur
                acc[SELF] += dur - frame[0]

        return traced

    def kernel(
        self,
        fn: Callable,
        name: str,
        measure: Optional[Callable[[Any], float]] = None,
    ) -> Callable:
        """Wrap ``fn`` so calls accumulate under ``name`` without a record.

        ``measure(result)`` (optional) is summed into the name's fourth
        slot — work done, as the callee itself reports it (reservations
        pruned, records folded, tasks generated).
        """
        acc = self._acc(name)
        clock, stack = self.clock, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                if measure is not None:
                    acc[MEASURED] += measure(result)
                return result
            finally:
                dur = clock() - t0
                stack.pop()
                stack[-1][0] += dur
                acc[CALLS] += 1
                acc[BUSY] += dur
                acc[SELF] += dur - frame[0]

        return traced

    def kernel_iter(
        self,
        fn: Callable[..., Iterator],
        name: str,
        measure: Optional[Callable[[Any], float]] = None,
    ) -> Callable[..., Iterator]:
        """Wrap a generator function: each ``next()`` is one kernel call.

        A lazily generated stream does its work while it is consumed, so
        the time to charge is the time spent inside ``__next__``.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            step = self.kernel(iter(fn(*args, **kwargs)).__next__, name, measure)
            while True:
                try:
                    item = step()
                except StopIteration:
                    return
                yield item

        return traced

    # -- results -----------------------------------------------------------

    def calls(self, name: str) -> int:
        return int(self.acc[name][CALLS]) if name in self.acc else 0

    def busy_s(self, name: str) -> float:
        return self.acc[name][BUSY] if name in self.acc else 0.0

    def self_s(self, name: str) -> float:
        return self.acc[name][SELF] if name in self.acc else 0.0

    def measured(self, name: str) -> float:
        return self.acc[name][MEASURED] if name in self.acc else 0

    def attributed_s(self) -> float:
        """Seconds covered by top-level frames: what the root handed out."""
        return self._stack[0][0]

    def document(self) -> Dict[str, Any]:
        """The trace as one JSON-able dict: span columns, name table, accumulators.

        Times are seconds since the first span started, rounded to 0.1 µs
        (the clock's useful resolution) to keep the file small.
        """
        t0 = self.span_start[0] if self.span_start else 0.0
        return {
            "names": self.names,
            "spans": {
                "name": self.span_name,
                "start": [round(t - t0, 7) for t in self.span_start],
                "end": [round(t - t0, 7) for t in self.span_end],
                "parent": self.span_parent,
                "job": self.span_job,
            },
            "accumulated": {
                name: {"calls": int(a[CALLS]), "busy_s": a[BUSY], "self_s": a[SELF], "measured": a[MEASURED]}
                for name, a in sorted(self.acc.items())
            },
        }


def self_time_by_name(
    names: Sequence[str],
    starts: Sequence[float],
    ends: Sequence[float],
    parents: Sequence[int],
) -> Dict[str, float]:
    """Self seconds per name, recomputed from recorded spans alone.

    A span's self time is its duration minus the part of that interval
    its child spans cover; children are found through ``parents``. This
    is the offline counterpart of the tracer's online accumulators (equal
    to them whenever no kernel ran inside the spans).
    """
    covered = [0.0] * len(names)
    for i, parent in enumerate(parents):
        if parent >= 0:
            covered[parent] += ends[i] - starts[i]
    out: Dict[str, float] = {}
    for i, name in enumerate(names):
        out[name] = out.get(name, 0.0) + (ends[i] - starts[i]) - covered[i]
    return out


class Patches:
    """Installs replacements on modules/classes; ``restore`` undoes them all."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any]] = []

    def set(self, owner: Any, attr: str, new: Any) -> None:
        """Replace ``owner.attr`` (a module global or a class's own attribute)."""
        if attr not in vars(owner):
            raise AttributeError(
                f"{owner!r} does not define {attr!r} itself; patch the class "
                "or module that does, so restoring it is exact"
            )
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def replace_function(self, fn: Callable, new: Callable, package: str) -> int:
        """Rebind every global of ``package``'s loaded modules that *is* ``fn``.

        ``from x import f`` copies the reference into the importing
        module, so patching ``x.f`` alone would leave those callers on the
        original. Returns how many bindings were replaced.
        """
        n = 0
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == package or modname.startswith(package + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self.set(module, attr, new)
                    n += 1
        return n

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
