"""Open-loop job sources: rate × duration instead of fixed ``n_jobs``.

The batch generator (:func:`repro.workloads.scenarios.generate_workload`)
draws a whole workload up front — fine for a 300-unit experiment, hopeless
for a soak that pushes 10^5–10^6 jobs through a resident network. This
module provides the *streaming* counterpart:

* :class:`OpenLoopSpec` — everything needed to generate jobs
  deterministically from an :class:`~repro.workloads.arrivals` process;
* :func:`open_loop_jobs` — an **unbounded** iterator of
  :class:`~repro.workloads.jobs.JobSpec`, generated window-by-window so
  memory stays flat no matter how long the stream runs;
* :func:`open_loop_workload` — the same stream truncated to a duration and
  materialised as a batch :class:`~repro.workloads.jobs.Workload`.

The two share one code path, so a rate-shaped service run replayed as a
fixed job list through the batch runner sees the *identical* job sequence
— the service ≡ batch differential lockdown relies on this.

Determinism contract: all draws (arrival times, origins, DAGs, deadlines)
come from one ``default_rng(spec.seed)`` stream consumed in window order,
and the window width is a pure function of the spec — so job ``k`` is a
pure function of the spec, regardless of how far the stream is consumed
or on which worker it runs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Optional, Protocol, Sequence

import numpy as np

from repro.errors import WorkloadError
from repro.types import Time
from repro.workloads.deadlines import assign_deadline
from repro.workloads.jobs import JobSpec, Workload
from repro.workloads.load import pilot_rate
from repro.workloads.scenarios import DagFactory, mixed_dag_factory


class ArrivalProcess(Protocol):
    """Duck type of the open-loop processes in :mod:`repro.workloads.arrivals`."""

    def mean_rate(self) -> float: ...

    def times(self, rng: np.random.Generator, start: Time, end: Time) -> np.ndarray: ...


#: expected jobs per generation window when ``OpenLoopSpec.window`` is auto.
_JOBS_PER_WINDOW = 512.0


@dataclass
class OpenLoopSpec:
    """Everything needed to generate an open-loop job stream deterministically.

    ``process`` is any :class:`ArrivalProcess` (Poisson / MMPP / diurnal);
    jobs land on a uniformly random origin site. ``window`` is the
    generation chunk in simulation-time units — 0 (the default) derives it
    from the process's mean rate so each chunk holds ~500 jobs.
    """

    n_sites: int
    process: ArrivalProcess
    laxity_factor: float = 3.0
    start: Time = 0.0
    dag_factory: Optional[DagFactory] = None
    dag_size: str = "small"
    deadline_jitter: float = 0.2
    window: Time = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_sites < 1:
            raise WorkloadError("n_sites must be >= 1")
        if self.window < 0:
            raise WorkloadError(f"window must be >= 0, got {self.window}")
        if self.process.mean_rate() <= 0:
            raise WorkloadError("arrival process must have mean_rate > 0")

    def effective_window(self) -> Time:
        """The generation window actually used (auto-derived when 0)."""
        if self.window > 0:
            return self.window
        return max(1.0, _JOBS_PER_WINDOW / self.process.mean_rate())


def open_loop_jobs(spec: OpenLoopSpec) -> Iterator[JobSpec]:
    """Unbounded iterator of :class:`JobSpec` in nondecreasing arrival order.

    Generates one :meth:`~OpenLoopSpec.effective_window` at a time; memory
    per step is O(jobs in window), never O(jobs so far). Job ids count up
    from 0.
    """
    rng = np.random.default_rng(spec.seed)
    factory = spec.dag_factory or mixed_dag_factory(spec.dag_size)
    window = spec.effective_window()
    job_id = 0
    w0 = spec.start
    while True:
        w1 = w0 + window
        arrivals = spec.process.times(rng, w0, w1)
        origins = rng.integers(spec.n_sites, size=arrivals.size)
        for t, sid in zip(arrivals.tolist(), origins.tolist()):
            dag = factory(rng)
            deadline = assign_deadline(
                dag, t, spec.laxity_factor, rng, jitter=spec.deadline_jitter
            )
            yield JobSpec(
                job=job_id, dag=dag, origin=sid, arrival=t, deadline=deadline
            )
            job_id += 1
        w0 = w1


def open_loop_workload(spec: OpenLoopSpec, duration: Time) -> Workload:
    """The rate × duration contract: the stream truncated to ``duration``.

    Returns the exact prefix of :func:`open_loop_jobs` with
    ``arrival < spec.start + duration`` as a batch
    :class:`~repro.workloads.jobs.Workload` — the replay side of the
    service ≡ batch differential.
    """
    if duration <= 0:
        raise WorkloadError(f"duration must be > 0, got {duration}")
    end = spec.start + duration
    wl = Workload()
    for job in itertools.takewhile(lambda j: j.arrival < end, open_loop_jobs(spec)):
        wl.add(job)
    return wl


def open_loop_rate(
    rho: float,
    capacities: Sequence[float],
    dag_factory: Optional[DagFactory] = None,
    dag_size: str = "small",
    seed: int = 0,
) -> float:
    """Aggregate arrival rate achieving offered load ``rho`` for a DAG mix.

    The batch generator's calibration
    (:func:`~repro.workloads.load.pilot_rate`) for ``dag_factory``, or for
    the ``dag_size`` mix when no factory is given.
    """
    return pilot_rate(rho, dag_factory or mixed_dag_factory(dag_size), capacities, seed)
