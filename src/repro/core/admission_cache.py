"""Admission plan cache — memoized §10 validation endorsements.

Trace workloads (Montage, Epigenomics) re-admit a handful of DAG shapes
thousands of times, and every ACS round asks up to ``|sphere|`` sites the
same question: *can you host logical processor i of this trial mapping?*
The answer is a pure function of (a) the VALIDATE payload (task windows
and complexities), (b) the site's speed and insertion order, and (c) the
site's committed timeline — **provided** the probe's ``not_before = now``
floor is inactive, i.e. ``now`` is at or before every window release. The
adjustment step guarantees exactly that in steady state: adjusted releases
sit at or above ``r_map = now_init + 3 · radius`` (``PROTOCOL_MARGIN_FACTOR``
in :mod:`repro.core.rtds`), which is strictly later than any member
receives the VALIDATE.

So the cache memoizes :func:`repro.core.validation.endorse_mapping`
network-wide, keyed by:

* the job and the *identity* of the delivered ``procs`` payload — one
  sphere broadcast shares a single payload object across all members, so
  ``id(procs)`` distinguishes mappings without hashing their contents
  (each entry keeps a strong reference, keeping the id valid);
* the site's ``speed`` and insertion ``order``;
* the site-state digest from ``SchedulingPlan.state_digest()`` — the
  timeline's (starts, ends) signature. Feasibility probing reads nothing
  else, so two sites with equal digests (typically: both idle) share one
  computed endorsement, slot tuples included (safe: the §10 perfect
  matching commits each logical processor on at most one site, and the
  slots are immutable — each committing site builds its own
  ``Reservation`` objects from them).

Temporal validity is *checked, not assumed*: a lookup with ``now`` past
the payload's minimum release is answered by direct computation and
counted ``uncacheable``. Any plan commit/release/fault changes the
digest, so stale entries can never be served; per-job invalidation on
session teardown (EXECUTE, UNLOCK, lease expiry, session end) reclaims
them. Counters are plain ints — zero overhead when telemetry is off —
folded into the obs registry at run end.

The ``admission_cache`` flag lives on ``ExperimentConfig`` and is
excluded from ``config_fingerprint``: cache on/off cannot change a cell
key, because it cannot change results — the differential suite in
``tests/cache/`` holds it to that, bit for bit.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.core.validation import ProcTasks, endorse_mapping
from repro.sched.intervals import Slot
from repro.sched.plan import SchedulingPlan
from repro.types import JobId, LogicalProc, Time

#: (job, payload id, speed, order, plan state digest)
_Key = Tuple[JobId, int, float, str, tuple]
#: (endorsed procs, slots per proc, strong payload ref)
_Entry = Tuple[List[LogicalProc], Dict[LogicalProc, List[Slot]], ProcTasks]


class AdmissionCache:
    """Network-level memo in front of :func:`endorse_mapping`.

    One instance is shared by every site of a network (attached as
    ``network.admission_cache``); sites call :meth:`endorse` instead of
    the raw function and :meth:`invalidate_job` on session teardown.
    """

    __slots__ = ("enabled", "hits", "misses", "uncacheable", "invalidations", "_entries", "_by_job")

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.hits = 0
        self.misses = 0
        #: lookups answered by direct computation because the result could
        #: depend on ``now`` (late VALIDATE) or uses the preemptive tester
        self.uncacheable = 0
        self.invalidations = 0
        self._entries: Dict[_Key, _Entry] = {}
        self._by_job: Dict[JobId, List[_Key]] = {}

    def endorse(
        self,
        plan: SchedulingPlan,
        job: JobId,
        procs: ProcTasks,
        now: Time,
        preemptive: bool,
        speed: float,
        order: str,
    ) -> Tuple[List[LogicalProc], Dict[LogicalProc, List[Slot]]]:
        """Memoized :func:`endorse_mapping` (same signature semantics).

        Returns fresh list/dict containers on a hit — callers stash and
        mutate them — while sharing the immutable slot tuples.
        """
        if not self.enabled or preemptive:
            # §13 preemptive chunking consults idle windows from ``now``
            # even inside open task windows; only the non-preemptive
            # tester is provably now-independent. Cache off → pure pass-through.
            if self.enabled:
                self.uncacheable += 1
            return endorse_mapping(
                plan.timeline, job, procs, now,
                preemptive=preemptive, speed=speed, order=order,
            )
        min_release = None
        for entries in procs.values():
            for e in entries:
                r = e[2]
                if min_release is None or r < min_release:
                    min_release = r
        if min_release is not None and now > min_release:
            # ``not_before = now`` floor is live: the result depends on
            # when this site was asked, so it cannot be shared or reused
            self.uncacheable += 1
            return endorse_mapping(
                plan.timeline, job, procs, now,
                preemptive=preemptive, speed=speed, order=order,
            )
        digest = plan.state_digest(horizon=min_release) if min_release is not None else ()
        key: _Key = (job, id(procs), speed, order, digest)
        hit = self._entries.get(key)
        if hit is not None:
            self.hits += 1
            endorsed, slots, _ = hit
            return list(endorsed), {p: list(rs) for p, rs in slots.items()}
        self.misses += 1
        endorsed, slots = endorse_mapping(
            plan.timeline, job, procs, now,
            preemptive=preemptive, speed=speed, order=order,
        )
        self._entries[key] = (list(endorsed), {p: list(rs) for p, rs in slots.items()}, procs)
        self._by_job.setdefault(job, []).append(key)
        return endorsed, slots

    def invalidate_job(self, job: JobId) -> int:
        """Drop every entry of ``job`` (session ended: no more lookups).

        Idempotent — initiator and members all tear down the same job.
        """
        keys = self._by_job.pop(job, None)
        if not keys:
            return 0
        dropped = 0
        for key in keys:
            if self._entries.pop(key, None) is not None:
                dropped += 1
        self.invalidations += dropped
        return dropped

    def stats(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "uncacheable": self.uncacheable,
            "invalidations": self.invalidations,
            "live_entries": len(self._entries),
        }

    def hit_rate(self) -> float:
        """Hits over cacheable lookups (0.0 when none happened)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
