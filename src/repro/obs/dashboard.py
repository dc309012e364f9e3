"""Live stderr campaign dashboard: per-cell lines + throughput/ETA footer.

:class:`CampaignDashboard` is a drop-in :data:`~repro.experiments.parallel.ProgressFn`
— the campaign runtime calls it from the *parent* process as each cell
completes (under ``--jobs`` pools included, since ``as_completed`` fires
in the coordinator), so dashboard state needs no cross-process plumbing.

Each completed cell prints one line (status, key, label, seed, GR, cell
wall time) followed by a footer::

    12/48 cells | 3.1 cells/s | elapsed 3.9s | eta 11.6s | GR 0.9571

The footer's numbers (``rate``, ``elapsed``, ``eta``) stay on the
dashboard as plain attributes, so tests read the same numbers the human
saw. Every line is flushed: pool workers may share the same stderr pipe,
and an unflushed parent buffer interleaves with worker tracebacks.
"""

from __future__ import annotations

import sys
import time
from typing import Any, Optional, TextIO

__all__ = ["CampaignDashboard"]


class CampaignDashboard:
    """ProgressFn with live cells/sec, elapsed and ETA accounting."""

    def __init__(
        self,
        stream: Optional[TextIO] = None,
        clock: Any = time.perf_counter,
    ) -> None:
        """``stream`` defaults to stderr; ``clock`` is injectable for tests."""
        self.stream = stream if stream is not None else sys.stderr
        self.clock = clock
        self.started_at: Optional[float] = None
        self.done = 0
        self.ok = 0
        self.failed = 0
        #: cells/s, seconds since the first completion, seconds to go
        self.rate = 0.0
        self.elapsed = 0.0
        self.eta = float("inf")
        self._gr_sum = 0.0
        self._gr_count = 0

    def __call__(self, result: Any, done: int, total: int) -> None:
        """Record one completed cell and repaint the progress footer."""
        now = self.clock()
        if self.started_at is None:
            self.started_at = now
        self.done = done
        gr = result.metrics.get("guarantee_ratio") if result.metrics else None
        if result.status == "ok":
            self.ok += 1
        else:
            self.failed += 1
        if gr is not None:
            self._gr_sum += gr
            self._gr_count += 1
        elapsed = max(now - self.started_at, 1e-9)
        # the first cell's wall time is inside result.elapsed even though
        # the dashboard clock starts at its completion; fold it back in so
        # the first footer's rate is not infinite
        if done == 1:
            elapsed = max(elapsed, result.elapsed, 1e-9)
        self.elapsed = elapsed
        self.rate = done / elapsed
        self.eta = (total - done) / self.rate if self.rate > 0 else float("inf")

        tail = f"GR={gr:.4f}" if gr is not None else f"error: {result.error}"
        print(
            f"[{done}/{total}] {result.status:>6}  cell {result.key}  "
            f"{result.label} seed={result.seed}  {tail}  ({result.elapsed:.2f}s)",
            file=self.stream,
            flush=True,
        )
        print(self.footer(total), file=self.stream, flush=True)

    def footer(self, total: int) -> str:
        """The one-line live summary rendered after every cell."""
        eta_s = f"{self.eta:.1f}s" if self.eta != float("inf") else "?"
        parts = [
            f"{self.done}/{total} cells",
            f"{self.rate:.1f} cells/s",
            f"elapsed {self.elapsed:.1f}s",
            f"eta {eta_s}",
        ]
        if self._gr_count:
            parts.append(f"GR {self._gr_sum / self._gr_count:.4f}")
        if self.failed:
            parts.append(f"{self.failed} FAILED")
        return "  " + " | ".join(parts)
