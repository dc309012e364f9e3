"""Offered-load calibration.

Experiments sweep *offered load* ρ — the fraction of the network's
aggregate computing capacity the workload requests:

    ρ = λ_total · E[work per job] / (Σ_k speed_k)

Calibrating λ from ρ (instead of sweeping raw rates) makes guarantee-ratio
curves comparable across network sizes and DAG families — the x-axes of
experiments E1–E3.

E[work per job] comes from :func:`pilot_rate`'s pilot sample: 64 DAGs
drawn off their own generator (seeded ``seed + 1``), so calibration never
moves the workload's main stream. The batch generator and the open-loop
source calibrate through this one helper.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.errors import WorkloadError
from repro.graphs.dag import Dag

#: DAGs drawn to estimate E[work per job]
PILOT_SIZE = 64


def calibrate_rate(
    rho: float, mean_work: float, capacities: Sequence[float]
) -> float:
    """Aggregate arrival rate achieving offered load ``rho``."""
    if rho < 0:
        raise WorkloadError(f"rho must be >= 0, got {rho}")
    cap = float(sum(capacities))
    if cap <= 0 or mean_work <= 0:
        raise WorkloadError("capacity and mean work must be > 0")
    return rho * cap / mean_work


def pilot_rate(
    rho: float,
    dag_factory: Callable[[np.random.Generator], Dag],
    capacities: Sequence[float],
    seed: int,
) -> float:
    """Aggregate arrival rate achieving ``rho`` for ``dag_factory``'s jobs.

    E[work] is the mean total complexity of :data:`PILOT_SIZE` pilot DAGs
    drawn off ``default_rng(seed + 1)``.
    """
    pilot_rng = np.random.default_rng(seed + 1)
    pilot = [dag_factory(pilot_rng).total_complexity() for _ in range(PILOT_SIZE)]
    return calibrate_rate(rho, float(np.mean(pilot)), capacities)
