"""Named workload scenario builders.

:func:`generate_workload` is the single entry point the experiment runner
uses: it draws a DAG mix, per-site Poisson arrivals calibrated to an
offered load, and laxity-factor deadlines — all from one seeded generator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from repro.errors import WorkloadError
from repro.graphs.dag import Dag
from repro.graphs.generators import (
    fork_join_dag,
    gaussian_elimination_dag,
    layered_dag,
    linear_chain_dag,
    random_dag,
)
from repro.workloads.arrivals import per_site_arrivals
from repro.workloads.deadlines import assign_deadline
from repro.workloads.jobs import JobSpec, Workload
from repro.workloads.load import pilot_rate

DagFactory = Callable[[np.random.Generator], Dag]

#: workload knobs of the E10 wide-network cells: per-site offered load is
#: held constant (so total job count grows linearly with n and a 1024-site
#: cell finishes in seconds on one core), deadlines stay at the default
#: laxity, and DAGs stay small so the protocol — not task parallelism —
#: dominates.
WIDENET_WORKLOAD = {
    "rho": 0.35,
    "duration": 120.0,
    "laxity_factor": 3.0,
    "dag_size": "small",
}


def mixed_dag_factory(
    size: str = "small",
    c_range: Tuple[float, float] = (1.0, 8.0),
) -> DagFactory:
    """The default DAG mix: layered / fork-join / chain / random / LU.

    ``size``: ``"small"`` (≈5–15 tasks, protocol-dominated), ``"medium"``
    (≈15–40) or ``"large"`` (≈40–90, parallelism-dominated).
    """
    if size not in ("small", "medium", "large"):
        raise WorkloadError(f"unknown size {size!r}")

    def factory(rng: np.random.Generator) -> Dag:
        kind = rng.integers(5)
        if size == "small":
            layers, width, n = int(rng.integers(2, 4)), int(rng.integers(2, 4)), int(rng.integers(5, 14))
            ge = 3
        elif size == "medium":
            layers, width, n = int(rng.integers(3, 6)), int(rng.integers(3, 6)), int(rng.integers(15, 40))
            ge = 5
        else:
            layers, width, n = int(rng.integers(5, 9)), int(rng.integers(5, 9)), int(rng.integers(40, 90))
            ge = 8
        if kind == 0:
            return layered_dag(layers, width, rng, c_range, p_edge=0.35)
        if kind == 1:
            return fork_join_dag(max(2, n // 3), rng, c_range)
        if kind == 2:
            return linear_chain_dag(max(2, n // 2), rng, c_range)
        if kind == 3:
            return random_dag(n, rng, c_range, p_edge=0.2)
        return gaussian_elimination_dag(ge, rng, c_range)

    return factory


@dataclass
class WorkloadSpec:
    """Everything needed to generate a workload deterministically."""

    n_sites: int
    rho: float
    duration: float
    laxity_factor: float = 3.0
    start: float = 0.0
    dag_factory: Optional[DagFactory] = None
    dag_size: str = "small"
    deadline_jitter: float = 0.2
    hot_fraction: float = 0.0
    hot_sites: int = 0
    capacities: Optional[Sequence[float]] = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_sites < 1:
            raise WorkloadError("n_sites must be >= 1")
        if self.duration <= 0:
            raise WorkloadError("duration must be > 0")


def generate_workload(spec: WorkloadSpec) -> Workload:
    """Draw the full workload for one run."""
    rng = np.random.default_rng(spec.seed)
    factory = spec.dag_factory or mixed_dag_factory(spec.dag_size)
    capacities = (
        list(spec.capacities) if spec.capacities is not None else [1.0] * spec.n_sites
    )

    rate = pilot_rate(spec.rho, factory, capacities, spec.seed)

    arrivals = per_site_arrivals(
        rng,
        spec.n_sites,
        rate,
        spec.start,
        spec.start + spec.duration,
        hot_fraction=spec.hot_fraction,
        hot_sites=spec.hot_sites,
    )
    wl = Workload()
    for job_id, (t, sid) in enumerate(arrivals):
        dag = factory(rng)
        deadline = assign_deadline(
            dag, t, spec.laxity_factor, rng, jitter=spec.deadline_jitter
        )
        wl.add(JobSpec(job=job_id, dag=dag, origin=sid, arrival=t, deadline=deadline))
    return wl
