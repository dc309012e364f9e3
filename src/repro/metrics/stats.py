"""Statistical helpers for experiment reporting.

Means with Student-t confidence intervals (t-quantiles from a small
two-sided 95% table + normal approximation beyond 30 dof — no scipy needed
at runtime, scipy cross-checks live in the tests).
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple

import numpy as np

# Two-sided 95% Student-t quantiles for 1..30 degrees of freedom.
_T95 = [
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
    2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
    2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
]


def t_quantile_95(dof: int) -> float:
    """Two-sided 95% t quantile (normal approximation past 30 dof)."""
    if dof < 1:
        raise ValueError(f"dof must be >= 1, got {dof}")
    if dof <= 30:
        return _T95[dof - 1]
    return 1.96


def mean_confidence_interval(
    values: Sequence[float],
) -> Tuple[float, float]:
    """(mean, half-width of the 95% CI). Half-width 0 for n < 2."""
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        return (float("nan"), 0.0)
    mean = float(arr.mean())
    if arr.size < 2:
        return (mean, 0.0)
    sem = float(arr.std(ddof=1)) / math.sqrt(arr.size)
    return (mean, t_quantile_95(arr.size - 1) * sem)
