"""Trace-driven workflow workloads (E11).

The synthetic mixes in :mod:`repro.workloads.scenarios` draw task
runtimes uniformly — fine for protocol stress, but real workflow
schedulers are evaluated against *workflow-shaped* job streams whose
runtimes follow heavy-tailed empirical distributions (Beránek et al.,
arXiv:2204.07211). This module replays such streams: each named **trace**
pairs a layered fan-out structure from :mod:`repro.graphs.workflows`
(Montage mosaicking, Epigenomics sequencing) with per-task-*type*
lognormal runtime models whose relative magnitudes follow the published
Pegasus workflow profiles (projection/co-add heavy and diff-fit light for
Montage; the map stage dominating Epigenomics lanes).

Usage — exactly like any other DAG factory::

    factory = trace_dag_factory("montage")
    dag = factory(np.random.default_rng(0))

or declaratively through the experiment runner::

    ExperimentConfig(workload="trace:epigenomics")

Determinism: every draw flows through the caller's generator, so a seeded
workload replays bit-for-bit; the structures themselves are the documented
task-id layouts of the :mod:`repro.graphs.workflows` generators.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.errors import WorkloadError
from repro.graphs.dag import Dag, Task
from repro.graphs.workflows import epigenomics_dag, montage_dag

DagFactory = Callable[[np.random.Generator], Dag]

#: minimum task runtime after sampling (keeps complexities strictly positive)
_MIN_RUNTIME = 0.05


@dataclass(frozen=True)
class RuntimeModel:
    """Lognormal runtime distribution of one task type.

    ``mean`` is the distribution mean in complexity units (comparable to
    the synthetic mixes' c ∈ [1, 8]); ``cv`` the coefficient of variation
    (heavy-tailed empirical runtimes sit around 0.3–0.6 in the published
    workflow profiles).
    """

    mean: float
    cv: float

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` runtimes (clamped to a small positive floor)."""
        sigma2 = float(np.log1p(self.cv * self.cv))
        mu = float(np.log(self.mean)) - sigma2 / 2.0
        draws = rng.lognormal(mean=mu, sigma=float(np.sqrt(sigma2)), size=size)
        return np.maximum(draws, _MIN_RUNTIME)


#: Montage task types, in the id-layout order of
#: :func:`repro.graphs.workflows.montage_dag`: projections, pairwise
#: diff-fits, the background model, per-tile corrections, the final co-add.
MONTAGE_RUNTIMES: Dict[str, RuntimeModel] = {
    "project": RuntimeModel(mean=6.0, cv=0.4),
    "diff": RuntimeModel(mean=1.0, cv=0.5),
    "bgmodel": RuntimeModel(mean=3.0, cv=0.3),
    "bgcorrect": RuntimeModel(mean=1.5, cv=0.4),
    "coadd": RuntimeModel(mean=8.0, cv=0.3),
}

#: Epigenomics per-stage types for the 4-stage reference lanes of
#: :func:`repro.graphs.workflows.epigenomics_dag`, plus split/merge/final.
EPIGENOMICS_RUNTIMES: Dict[str, RuntimeModel] = {
    "split": RuntimeModel(mean=2.0, cv=0.3),
    "filter": RuntimeModel(mean=3.0, cv=0.4),
    "sol2sanger": RuntimeModel(mean=1.5, cv=0.4),
    "fastq2bfq": RuntimeModel(mean=1.0, cv=0.4),
    "map": RuntimeModel(mean=10.0, cv=0.6),
    "merge": RuntimeModel(mean=4.0, cv=0.3),
    "final": RuntimeModel(mean=2.5, cv=0.3),
}

#: the per-lane stage sequence (id layout of ``epigenomics_dag``)
EPIGENOMICS_STAGES: Tuple[str, ...] = ("filter", "sol2sanger", "fastq2bfq", "map")


def montage_task_types(tiles: int) -> List[str]:
    """Task type per id of ``montage_dag(tiles)`` (its documented layout)."""
    n_diff = tiles if tiles > 2 else 1
    return (
        ["project"] * tiles
        + ["diff"] * n_diff
        + ["bgmodel"]
        + ["bgcorrect"] * tiles
        + ["coadd"]
    )


def epigenomics_task_types(lanes: int) -> List[str]:
    """Task type per id of ``epigenomics_dag(lanes)`` (its documented layout)."""
    return ["split"] + list(EPIGENOMICS_STAGES) * lanes + ["merge", "final"]


def _retyped(dag: Dag, types: List[str], runtimes: Dict[str, RuntimeModel], rng) -> Dag:
    """Rebuild ``dag`` with per-type empirical runtimes (same structure)."""
    order = sorted(dag, key=lambda t: t)
    if len(order) != len(types):
        raise WorkloadError(
            f"trace layout mismatch for {dag.name}: {len(order)} tasks, {len(types)} types"
        )
    # One vectorized draw per type keeps the RNG stream compact and stable.
    by_type: Dict[str, List[int]] = {}
    for tid, ttype in zip(order, types):
        by_type.setdefault(ttype, []).append(tid)
    runtime: Dict[int, float] = {}
    for ttype in sorted(by_type):
        tids = by_type[ttype]
        draws = runtimes[ttype].sample(rng, len(tids))
        for tid, c in zip(tids, draws):
            runtime[tid] = float(c)
    tasks = [Task(t, runtime[t], dag.task(t).data_volume) for t in order]
    return _shape(dag.name, tuple(order), dag.edges).with_tasks(tasks)


@lru_cache(maxsize=64)
def _shape(name: str, order: Tuple[int, ...], edges: Tuple[Tuple[int, int], ...]) -> Dag:
    """The unit-weight DAG of tasks ``order`` over the sorted ``edges``.

    A trace replays a handful of shapes thousands of times; every job of
    one shape shares this graph's structure. (The generator's own DAG
    cannot lend its structure: its adjacency follows the generator's edge
    order, the retyped job's the sorted edge list.)
    """
    return Dag([Task(t, 1.0) for t in order], edges, name=name)


def montage_trace_dag(rng: np.random.Generator, tiles: Tuple[int, int] = (4, 10)) -> Dag:
    """One Montage job: structure size drawn from ``tiles``, typed runtimes."""
    t = int(rng.integers(tiles[0], tiles[1] + 1))
    dag = montage_dag(t, rng)
    return _retyped(dag, montage_task_types(t), MONTAGE_RUNTIMES, rng)


def epigenomics_trace_dag(rng: np.random.Generator, lanes: Tuple[int, int] = (3, 8)) -> Dag:
    """One Epigenomics job: lane count drawn from ``lanes``, typed runtimes."""
    n_lanes = int(rng.integers(lanes[0], lanes[1] + 1))
    dag = epigenomics_dag(n_lanes, stages=len(EPIGENOMICS_STAGES), rng=rng)
    return _retyped(dag, epigenomics_task_types(n_lanes), EPIGENOMICS_RUNTIMES, rng)


#: the trace catalogue: name -> DagFactory
TRACES: Dict[str, DagFactory] = {
    "montage": montage_trace_dag,
    "epigenomics": epigenomics_trace_dag,
}


def _grid_mix(rng: np.random.Generator) -> Dag:
    """A 50/50 Montage/Epigenomics stream (a mixed grid-site trace)."""
    if int(rng.integers(2)) == 0:
        return montage_trace_dag(rng)
    return epigenomics_trace_dag(rng)


TRACES["grid-mix"] = _grid_mix


def trace_names() -> List[str]:
    """Sorted names of the available workflow traces."""
    return sorted(TRACES)


def trace_dag_factory(name: str) -> DagFactory:
    """The DAG factory replaying the named workflow trace."""
    try:
        return TRACES[name]
    except KeyError:
        raise WorkloadError(
            f"unknown workflow trace {name!r}; known: {trace_names()}"
        ) from None


def parse_workload(spec: str) -> Tuple[str, str]:
    """Split a workload spec into ``(kind, name)``.

    ``"synthetic"`` → ``("synthetic", "")``; ``"trace:montage"`` →
    ``("trace", "montage")``. Unknown kinds or trace names raise
    :class:`~repro.errors.WorkloadError` — validation happens here so
    :class:`~repro.experiments.runner.ExperimentConfig` can reject bad
    specs at construction time, before a campaign ships them to workers.
    """
    if spec == "synthetic":
        return ("synthetic", "")
    kind, sep, name = spec.partition(":")
    if kind != "trace" or not sep:
        raise WorkloadError(
            f"unknown workload spec {spec!r}; expected 'synthetic' or 'trace:<name>'"
        )
    if name not in TRACES:
        raise WorkloadError(f"unknown workflow trace {name!r}; known: {trace_names()}")
    return ("trace", name)
