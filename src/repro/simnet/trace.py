"""Structured tracing and message accounting.

Two concerns live here:

* :class:`Tracer` — an append-only log of :class:`TraceEvent` records with
  category filters. The protocol emits one record per externally observable
  step (job arrival, local accept, enrollment, validation verdict, ...);
  Figure-1 style protocol walkthroughs and the integration tests read it.
* :class:`MessageStats` — counters of physical transmissions grouped by
  message type, plus byte·hop volume. Experiment E2 (messages/job vs network
  size) is computed from these.

Tracing is enabled by default but cheap (a dataclass append); benchmarks that
measure raw simulator speed can disable it wholesale.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional

from repro.types import DATACLASS_SLOTS, SiteId, Time


@dataclass(frozen=True, **DATACLASS_SLOTS)
class TraceEvent:
    """One trace record (slotted: traces hold one per protocol step)."""

    time: Time
    category: str
    site: Optional[SiteId]
    detail: Dict[str, Any] = field(default_factory=dict)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        where = "-" if self.site is None else str(self.site)
        kv = " ".join(f"{k}={v!r}" for k, v in self.detail.items())
        return f"[{self.time:10.3f}] {self.category:<22} @{where:<4} {kv}"


class Tracer:
    """Append-only structured event log with category filtering.

    ``enabled`` is a property: assigning it notifies registered toggle
    listeners, so the hot-path mirrors (``Network.trace_enabled``,
    ``SiteBase.trace_on``) can never silently go stale.
    """

    def __init__(self, enabled: bool = True, categories: Optional[Iterable[str]] = None):
        self._enabled = bool(enabled)
        #: callbacks fired with the new value whenever ``enabled`` flips
        #: (the network registers one to refresh its fast-path mirrors)
        self.on_toggle: List[Any] = []
        #: if not None, only these categories are recorded
        self.categories = set(categories) if categories is not None else None
        self.events: List[TraceEvent] = []

    @property
    def enabled(self) -> bool:
        return self._enabled

    @enabled.setter
    def enabled(self, value: bool) -> None:
        value = bool(value)
        self._enabled = value
        for listener in self.on_toggle:
            listener(value)

    def emit(self, time: Time, category: str, site: Optional[SiteId] = None, **detail: Any) -> None:
        """Record one event (no-op when disabled or filtered out)."""
        if not self._enabled:
            return
        if self.categories is not None and category not in self.categories:
            return
        self.events.append(TraceEvent(time, category, site, detail))

    def of(self, category: str) -> List[TraceEvent]:
        """All recorded events of one category, in time order."""
        return [e for e in self.events if e.category == category]

    def for_job(self, job_id: int) -> List[TraceEvent]:
        """All events whose detail mentions ``job`` == job_id."""
        return [e for e in self.events if e.detail.get("job") == job_id]

    def clear(self) -> None:
        self.events.clear()

    def __len__(self) -> int:
        return len(self.events)


def _jsonable(value: Any) -> Any:
    """Recursively convert a trace detail value to plain JSON types.

    Tuples become lists, sets become sorted lists, dict keys become
    strings — a *canonical* form, so two traces serialize identically iff
    they are identical up to these collection encodings. Unknown objects
    fall back to ``repr`` (deterministic for everything the protocol puts
    in a trace).
    """
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted((_jsonable(v) for v in value), key=repr)
    return repr(value)


def canonical_trace(events: Iterable[TraceEvent]) -> List[List[Any]]:
    """A trace as a canonical JSON-able list of ``[time, category, site,
    detail]`` rows.

    This is the bit-for-bit identity format: the golden-trace suite and
    the hot-path benchmarks serialize with it, so "same trace" means the
    serialized forms compare equal element-by-element. Message ``uid``
    fields are renumbered densely in first-appearance order: uids come
    from a process-global counter (they depend on how many messages
    *earlier runs in the same process* sent), so the raw values are not
    seed-deterministic — but their first-appearance order is, and any
    reordering of sends still changes the canonical form.
    """
    uid_map: Dict[Any, int] = {}
    rows: List[List[Any]] = []
    for e in events:
        detail = _jsonable(e.detail)
        if isinstance(detail, dict) and "uid" in detail:
            uid = detail["uid"]
            canon = uid_map.get(uid)
            if canon is None:
                canon = uid_map[uid] = len(uid_map)
            detail["uid"] = canon
        rows.append([float(e.time), e.category, e.site, detail])
    return rows


def trace_digest(events: Iterable[TraceEvent]) -> str:
    """SHA-256 over the canonical JSON serialization of ``events``."""
    blob = json.dumps(canonical_trace(events), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class MessageStats:
    """Physical-transmission counters.

    ``count[mtype]`` — number of single-hop transmissions of that type;
    ``volume[mtype]`` — sum of message sizes transmitted;
    ``total`` / ``total_volume`` — grand totals.

    :meth:`~repro.simnet.network.Network.transmit` updates them inline.
    """

    def __init__(self) -> None:
        self.count: Counter = Counter()
        self.volume: Counter = Counter()
        self.total: int = 0
        self.total_volume: float = 0.0

    def snapshot(self) -> Dict[str, int]:
        """Plain dict copy of per-type counts (stable for assertions)."""
        return dict(self.count)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(f"{k}={v}" for k, v in sorted(self.count.items()))
        return f"MessageStats(total={self.total}, {parts})"
