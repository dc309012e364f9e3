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

Generation cost: a trace replays a handful of shapes thousands of times, so
each ``(family, size)`` shape is built and validated once — a cached
:class:`_TraceShape` holding the unit-weight DAG and its per-type id groups.
A job costs its draws and one weight vector: the size, the generator's own
uniform weights (drawn and discarded, exactly as the full generator would
draw them, so the stream stays where it was), one lognormal draw per task
type, and :meth:`~repro.graphs.dag.Dag.with_weights` over the shared
structure — no :class:`~repro.graphs.dag.Task` object per task.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Dict, List, NamedTuple, Tuple

import numpy as np

from repro.errors import WorkloadError
from repro.graphs.dag import Dag
from repro.graphs.generators import draw_complexities
from repro.graphs.workflows import WORKFLOW_C_RANGE, epigenomics_shape, montage_shape

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

    @cached_property
    def _params(self) -> Tuple[float, float]:
        """``(mu, sigma)`` of the underlying normal, computed once."""
        sigma2 = float(np.log1p(self.cv * self.cv))
        mu = float(np.log(self.mean)) - sigma2 / 2.0
        return mu, float(np.sqrt(sigma2))

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` runtimes (clamped to a small positive floor)."""
        mu, sigma = self._params
        draws = rng.lognormal(mean=mu, sigma=sigma, size=size)
        return np.maximum(draws, _MIN_RUNTIME)


#: Montage task types, in the id-layout order of
#: :func:`repro.graphs.workflows.montage_shape`: projections, pairwise
#: diff-fits, the background model, per-tile corrections, the final co-add.
MONTAGE_RUNTIMES: Dict[str, RuntimeModel] = {
    "project": RuntimeModel(mean=6.0, cv=0.4),
    "diff": RuntimeModel(mean=1.0, cv=0.5),
    "bgmodel": RuntimeModel(mean=3.0, cv=0.3),
    "bgcorrect": RuntimeModel(mean=1.5, cv=0.4),
    "coadd": RuntimeModel(mean=8.0, cv=0.3),
}

#: Epigenomics per-stage types for the 4-stage reference lanes of
#: :func:`repro.graphs.workflows.epigenomics_shape`, plus split/merge/final.
EPIGENOMICS_RUNTIMES: Dict[str, RuntimeModel] = {
    "split": RuntimeModel(mean=2.0, cv=0.3),
    "filter": RuntimeModel(mean=3.0, cv=0.4),
    "sol2sanger": RuntimeModel(mean=1.5, cv=0.4),
    "fastq2bfq": RuntimeModel(mean=1.0, cv=0.4),
    "map": RuntimeModel(mean=10.0, cv=0.6),
    "merge": RuntimeModel(mean=4.0, cv=0.3),
    "final": RuntimeModel(mean=2.5, cv=0.3),
}

#: the per-lane stage sequence (id layout of ``epigenomics_shape``)
EPIGENOMICS_STAGES: Tuple[str, ...] = ("filter", "sol2sanger", "fastq2bfq", "map")


def montage_task_types(tiles: int) -> List[str]:
    """Task type per id of ``montage_shape(tiles)`` (its documented layout)."""
    n_diff = tiles if tiles > 2 else 1
    return (
        ["project"] * tiles
        + ["diff"] * n_diff
        + ["bgmodel"]
        + ["bgcorrect"] * tiles
        + ["coadd"]
    )


def epigenomics_task_types(lanes: int) -> List[str]:
    """Task type per id of ``epigenomics_shape(lanes)`` (its documented layout)."""
    return ["split"] + list(EPIGENOMICS_STAGES) * lanes + ["merge", "final"]


class _TraceShape(NamedTuple):
    """One trace shape: its unit-weight DAG and per-type id groups."""

    #: built from the repr-sorted edge list (the order the jobs' adjacency
    #: has always followed), over task ids ``0..n-1``
    dag: Dag
    #: ``(type, ids)`` in sorted type order, ids ascending — the order the
    #: per-type runtime draws are taken in
    groups: Tuple[Tuple[str, Tuple[int, ...]], ...]


#: trace family -> (shape function, per-id type layout, runtime models)
_FAMILIES = {
    "montage": (montage_shape, montage_task_types, MONTAGE_RUNTIMES),
    "epigenomics": (
        lambda lanes: epigenomics_shape(lanes, stages=len(EPIGENOMICS_STAGES)),
        epigenomics_task_types,
        EPIGENOMICS_RUNTIMES,
    ),
}


@lru_cache(maxsize=64)
def _trace_shape(family: str, size: int) -> _TraceShape:
    """Build and validate the ``(family, size)`` shape once."""
    shape, task_types, _ = _FAMILIES[family]
    name, n, edges = shape(size)
    types = task_types(size)
    if n != len(types):
        raise WorkloadError(f"trace layout mismatch for {name}: {n} tasks, {len(types)} types")
    by_type: Dict[str, List[int]] = {}
    for tid, ttype in enumerate(types):
        by_type.setdefault(ttype, []).append(tid)
    dag = Dag.from_weights([1.0] * n, sorted(edges, key=repr), name)
    return _TraceShape(dag, tuple((t, tuple(by_type[t])) for t in sorted(by_type)))


def _trace_job(family: str, size: int, rng: np.random.Generator) -> Dag:
    """One job of ``family`` at ``size``, with per-type empirical runtimes."""
    shape = _trace_shape(family, size)
    runtimes = _FAMILIES[family][2]
    # the full generator's uniform weights: the retyped job never uses
    # them, but skipping the draw would shift every later draw
    draw_complexities(rng, len(shape.dag), WORKFLOW_C_RANGE)
    runtime = [0.0] * len(shape.dag)
    for ttype, tids in shape.groups:
        for tid, c in zip(tids, runtimes[ttype].sample(rng, len(tids)).tolist()):
            runtime[tid] = c
    return shape.dag.with_weights(runtime)


def montage_trace_dag(rng: np.random.Generator, tiles: Tuple[int, int] = (4, 10)) -> Dag:
    """One Montage job: structure size drawn from ``tiles``, typed runtimes."""
    return _trace_job("montage", int(rng.integers(tiles[0], tiles[1] + 1)), rng)


def epigenomics_trace_dag(rng: np.random.Generator, lanes: Tuple[int, int] = (3, 8)) -> Dag:
    """One Epigenomics job: lane count drawn from ``lanes``, typed runtimes."""
    return _trace_job("epigenomics", int(rng.integers(lanes[0], lanes[1] + 1)), rng)


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
