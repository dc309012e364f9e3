"""Small statistics helpers of the end-to-end benchmark.

Kept free of ``repro`` imports: the benchmark must not borrow the
arithmetic of the program it measures.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
from typing import Dict, Mapping, Sequence


def min_of_reps(values: Sequence[float]) -> float:
    """The least noise-contaminated repetition.

    Everything else running on a shared machine only ever *adds* wall
    time, so the minimum over repetitions of identical work estimates the
    undisturbed cost; medians and means inherit the disturbance.
    """
    if not values:
        raise ValueError("min_of_reps needs at least one repetition")
    return min(values)


def rep_spread(values: Sequence[float]) -> float:
    """``(max - min) / min`` of the repetitions (0 for a single one)."""
    lo = min_of_reps(values)
    return (max(values) - lo) / lo if lo > 0 else 0.0


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in [0, 100]; raises on no samples."""
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile q must be in [0, 100], got {q}")
    vals = sorted(values)
    if not vals:
        raise ValueError("percentile of an empty sample")
    rank = max(1, min(len(vals), math.ceil(q / 100.0 * len(vals))))
    return float(vals[rank - 1])


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie strictly beyond the ``q``-th percentile."""
    return n - max(1, min(n, math.ceil(q / 100.0 * n))) if n else 0


def spread_summary(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles, quartile spread and worst deviation of a sample.

    ``iqr_over_median`` is the figure the benchmark's bounds are judged
    against: the distance between the first and third quartile
    (``statistics.quantiles(values, n=4)``) as a share of the median.
    """
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    scale = abs(med) if med else 1.0
    return {
        "n": len(values),
        "median": med,
        "q1": q1,
        "q3": q3,
        "iqr_over_median": (q3 - q1) / scale,
        "max_dev_over_median": max(abs(v - med) for v in values) / scale,
    }


def digest(scalars: Mapping[str, float]) -> str:
    """Order-independent fingerprint of a ``scalar_metrics`` dict.

    ``repr`` round-trips floats exactly, so equal digests mean equal
    floats bit for bit (NaN included: it prints as ``nan`` on both sides).
    """
    blob = json.dumps({k: repr(v) for k, v in scalars.items()}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]
