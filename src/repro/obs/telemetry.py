"""The telemetry registry: counters, gauges, percentile timers, spans.

:func:`repro.obs.run_telemetry` fills one :class:`Telemetry` from a
finished, traced run; the exporters (:mod:`repro.obs.export`) read it.
Nothing here runs while the simulation does. Four primitive kinds:

* **counters** — event counts (``rtds.local_accept``, ``net.msgs.<type>``);
* **gauges** — last-write-wins scalars (``run.sim_time``, ``net.bytes``);
* **timers** — bounded-memory percentile estimators
  (:class:`ReservoirTimer`, Vitter's algorithm R): every ``observe`` feeds
  an exact count/sum/min/max plus a fixed-size uniform sample the
  p50/p95/p99 come from. The reservoir RNG is seeded per timer name, so
  the same stream reports bit-identical percentiles;
* **spans** — *simulated-time* intervals ``[t0, t1]`` labelled with a
  category, a key (usually the job id) and a site. Protocol phases
  (enroll, map, validate, execute, retransmission) are spans; the Chrome
  trace exporter turns them into a Perfetto-viewable timeline, one lane
  per site. Recording a span also feeds its duration to the same-named
  timer, so phase percentiles are free.

:class:`ReservoirTimer` also serves live consumers: the admission
service's decision-latency timer, whose windowed :meth:`~ReservoirTimer.snapshot`
gives the soak its per-interval percentiles.
"""

from __future__ import annotations

import math
import random
import zlib
from typing import Any, Dict, List, Optional, Sequence

from repro.types import SiteId, Time

__all__ = [
    "Telemetry",
    "ReservoirTimer",
    "Span",
    "percentiles",
    "percentile",
]

#: default reservoir capacity: 512 samples bound memory while keeping the
#: p99 of campaign-sized streams within a few percent of exact
DEFAULT_RESERVOIR = 512


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of ``values`` (``q`` in [0, 100]).

    NaN for an empty stream; the single-sample stream returns that sample
    for every ``q`` (the degenerate distribution's every quantile).
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile q must be in [0, 100], got {q}")
    vals = sorted(values)
    if not vals:
        return float("nan")
    # nearest-rank: ceil(q/100 * n), 1-indexed, clamped to the extremes
    rank = max(1, min(len(vals), math.ceil(q / 100.0 * len(vals))))
    return float(vals[rank - 1])


def percentiles(
    values: Sequence[float], qs: Sequence[float] = (50.0, 95.0, 99.0)
) -> Dict[str, float]:
    """``{"p50": ..., "p95": ..., "p99": ...}`` (nearest-rank, NaN-safe).

    The one percentile routine every consumer shares — ``rtds stats`` and
    the reservoir timers (the phase spans' included) report quantiles
    through here, so they cannot disagree on method.
    """
    srt = sorted(values)
    return {f"p{q:g}": percentile(srt, q) for q in qs}


class ReservoirTimer:
    """Bounded-memory percentile estimator (uniform reservoir sampling).

    Exact ``count``/``sum``/``min``/``max`` over the whole stream; the
    percentiles come from a fixed-size uniform sample maintained with
    Vitter's algorithm R. The RNG is locally seeded, so two runs feeding
    the same stream report identical percentiles — determinism is part of
    the repo's identity contract even for observability.
    """

    __slots__ = (
        "capacity", "count", "total", "min", "max", "_sample", "_random",
        "_w_count", "_w_total", "_w_min", "_w_max", "_w_sample",
    )

    def __init__(self, capacity: int = DEFAULT_RESERVOIR, seed: int = 0) -> None:
        if capacity < 1:
            raise ValueError(f"reservoir capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self._sample: List[float] = []
        # pre-bound C-level uniform: the steady-state observe() draws one
        # float per sample, and randrange()'s pure-Python integer path is
        # too slow for per-decision streams (the admission service's)
        self._random = random.Random(seed).random
        # window state for :meth:`snapshot` — interval-local percentiles
        # (the E12 soak's per-interval p99s). None until the first
        # snapshot() call arms it, so non-windowed timers pay one
        # predictable-false branch per observe, nothing more.
        self._w_count = 0
        self._w_total = 0.0
        self._w_min = float("inf")
        self._w_max = float("-inf")
        self._w_sample: Optional[List[float]] = None

    def observe(self, value: float) -> None:
        """Feed one sample (algorithm R: O(1), bounded memory)."""
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        sample = self._sample
        if len(sample) < self.capacity:
            sample.append(value)
        else:
            j = int(self._random() * self.count)
            if j < self.capacity:
                sample[j] = value
        wsample = self._w_sample
        if wsample is not None:
            self._w_count += 1
            self._w_total += value
            if value < self._w_min:
                self._w_min = value
            if value > self._w_max:
                self._w_max = value
            if len(wsample) < self.capacity:
                wsample.append(value)
            else:
                j = int(self._random() * self._w_count)
                if j < self.capacity:
                    wsample[j] = value

    def snapshot(self, qs: Sequence[float] = (50.0, 95.0, 99.0)) -> Dict[str, float]:
        """Window summary since the previous :meth:`snapshot`, then reset.

        The first call arms windowing and reports the cumulative stream so
        far (the window since construction); every later call reports only
        the samples observed since the previous call. Cumulative state
        (``count``/``total``/:meth:`percentiles`) is untouched — a soak
        can read flat interval p99s *and* the whole-run summary from one
        timer. Interval-empty windows report count 0 and NaN quantiles.
        """
        if self._w_sample is None:
            # arming call: the window-so-far IS the cumulative stream
            out = {
                "count": float(self.count),
                "mean": self.mean,
                "min": self.min if self.count else float("nan"),
                "max": self.max if self.count else float("nan"),
            }
            out.update(percentiles(self._sample, qs))
        else:
            n = self._w_count
            out = {
                "count": float(n),
                "mean": self._w_total / n if n else float("nan"),
                "min": self._w_min if n else float("nan"),
                "max": self._w_max if n else float("nan"),
            }
            out.update(percentiles(self._w_sample, qs))
        self._w_count = 0
        self._w_total = 0.0
        self._w_min = float("inf")
        self._w_max = float("-inf")
        self._w_sample = []
        return out

    @property
    def mean(self) -> float:
        """Exact stream mean (NaN for an empty stream)."""
        return self.total / self.count if self.count else float("nan")

    def percentiles(self, qs: Sequence[float] = (50.0, 95.0, 99.0)) -> Dict[str, float]:
        """Reservoir-estimated quantiles (exact while count <= capacity)."""
        return percentiles(self._sample, qs)

    def summary(self) -> Dict[str, float]:
        """One flat dict: count, mean, min, max, p50/p95/p99."""
        out = {
            "count": float(self.count),
            "mean": self.mean,
            "min": self.min if self.count else float("nan"),
            "max": self.max if self.count else float("nan"),
        }
        out.update(self.percentiles())
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ReservoirTimer(count={self.count}, mean={self.mean:.4g})"


class Span:
    """One closed simulated-time interval (slotted; traces hold thousands).

    ``category`` is the span taxonomy name (``phase.enroll``, ...), ``key``
    identifies the instance (usually the job id), ``site`` the lane it
    renders on, ``ok`` whether the phase ended in success, and ``labels``
    ride into the exporter's ``args``.
    """

    __slots__ = ("category", "key", "site", "t0", "t1", "ok", "labels")

    def __init__(
        self,
        category: str,
        key: Any,
        site: Optional[SiteId],
        t0: Time,
        t1: Time,
        ok: bool = True,
        labels: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.category = category
        self.key = key
        self.site = site
        self.t0 = t0
        self.t1 = t1
        self.ok = ok
        self.labels = labels

    @property
    def duration(self) -> Time:
        """``t1 - t0`` in simulated time units."""
        return self.t1 - self.t0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flag = "" if self.ok else " FAILED"
        return (
            f"Span({self.category} key={self.key} @{self.site} "
            f"[{self.t0:.3f}, {self.t1:.3f}]{flag})"
        )


class Telemetry:
    """Registry of counters, gauges, percentile timers and sim-time spans."""

    def __init__(self, seed: int = 0, reservoir: int = DEFAULT_RESERVOIR) -> None:
        self.seed = seed
        self.reservoir = reservoir
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {}
        self.timers: Dict[str, ReservoirTimer] = {}
        self.spans: List[Span] = []

    def inc(self, name: str, n: float = 1.0) -> None:
        """Add ``n`` to counter ``name`` (created at 0)."""
        self.counters[name] = self.counters.get(name, 0.0) + n

    def gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` (last write wins)."""
        self.gauges[name] = float(value)

    def timer(self, name: str) -> ReservoirTimer:
        """The named timer, created on first use (per-name seeded RNG)."""
        t = self.timers.get(name)
        if t is None:
            # per-name seed: crc32 (not hash(), which PYTHONHASHSEED
            # randomizes) so reservoirs are independent streams fully
            # determined by (telemetry seed, timer name) across processes
            t = self.timers[name] = ReservoirTimer(
                self.reservoir, seed=(zlib.crc32(name.encode()) ^ self.seed) & 0x7FFFFFFF
            )
        return t

    def observe(self, name: str, value: float) -> None:
        """Feed one sample to timer ``name``."""
        self.timer(name).observe(value)

    def span(
        self,
        category: str,
        t0: Time,
        t1: Time,
        site: Optional[SiteId] = None,
        key: Any = None,
        ok: bool = True,
        **labels: Any,
    ) -> None:
        """Record one closed sim-time span (and time its duration)."""
        self.spans.append(Span(category, key, site, t0, t1, ok, labels or None))
        self.timer(category).observe(t1 - t0)

    def snapshot(self) -> Dict[str, Any]:
        """Plain-dict view of everything."""
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "timers": {name: t.summary() for name, t in self.timers.items()},
            "spans": len(self.spans),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Telemetry(counters={len(self.counters)}, gauges={len(self.gauges)}, "
            f"timers={len(self.timers)}, spans={len(self.spans)})"
        )


def rss_mb() -> Optional[float]:
    """Current peak RSS of this process in MB (None where unsupported).

    Linux reports ``ru_maxrss`` in KB, macOS in bytes; both are covered.
    Used by the per-cell campaign snapshot — the numbers the E12 soak
    roadmap item tracks over time.
    """
    try:
        import resource
        import sys

        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if sys.platform == "darwin":  # pragma: no cover - linux CI
            return peak / (1024.0 * 1024.0)
        return peak / 1024.0
    except (ImportError, ValueError):  # pragma: no cover - non-posix
        return None


def current_rss_mb() -> Optional[float]:
    """*Current* (not peak) RSS of this process in MB, None if unreadable.

    ``ru_maxrss`` is a high-water mark and can never go down, which makes
    it useless for the E12 memory-flatness contract — a soak that balloons
    early and then leaks nothing would still show a flat peak. This reads
    the live resident set from ``/proc/self/statm`` (Linux); elsewhere it
    falls back to the peak, the best available upper bound.
    """
    try:
        with open("/proc/self/statm", "rb") as f:
            fields = f.read().split()
        import resource

        page = resource.getpagesize()
        return int(fields[1]) * page / (1024.0 * 1024.0)
    except (OSError, ValueError, ImportError, IndexError):
        return rss_mb()
