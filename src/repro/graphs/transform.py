"""DAG transformations.

Utilities that produce new DAGs from existing ones:

* :func:`assign_data_volumes` — decorate tasks with output-data volumes
  (the §13 data-volume communication model: "data volumes may be easily
  taken into account (decoration of the arcs in the DAG)"; we decorate the
  producing task, equivalent for identical throughputs);
* :func:`transitive_reduction` — drop precedence arcs implied by others
  (fewer gates/result messages for semantically identical jobs);
* :func:`reverse_dag` — flip all arcs (turns an out-tree into a reduction);
* :func:`relabel_tasks` — rename task ids through a bijection.

All functions return fresh immutable :class:`~repro.graphs.dag.Dag`
instances; inputs are never modified.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

import numpy as np

from repro.errors import DagError
from repro.graphs.dag import Dag, Task, descendants
from repro.types import TaskId


def assign_data_volumes(
    dag: Dag,
    rng: np.random.Generator,
    volume_range: Tuple[float, float],
) -> Dag:
    """Return a copy of ``dag`` whose tasks carry random data volumes.

    Volumes are drawn uniformly from ``volume_range`` (lo >= 0). A task's
    volume is the size of the result it ships to each remote successor.
    """
    lo, hi = volume_range
    if lo < 0 or hi < lo:
        raise DagError(f"invalid volume range {volume_range}")
    order = dag.topological_order()
    volumes = rng.uniform(lo, hi, size=len(order))
    cs = [dag.complexity(t) for t in order]
    return Dag.from_weights(cs, dag.edges, f"{dag.name}+dv", ids=order, volumes=volumes.tolist())


def transitive_reduction(dag: Dag) -> Dag:
    """Remove arcs implied by longer paths (minimal equivalent DAG).

    O(V·E) via per-node descendant sets; fine for job-sized graphs.
    """
    keep = []
    for u, v in dag.edges:
        # (u, v) is redundant iff v is reachable from another successor
        reachable_via_other = any(
            v in descendants(dag, w) for w in dag.successors(u) if w != v
        )
        if not reachable_via_other:
            keep.append((u, v))
    tasks = [dag.task(t) for t in dag.topological_order()]
    return Dag(tasks, keep, name=f"{dag.name}-tr")


def reverse_dag(dag: Dag) -> Dag:
    """Flip every arc (sources become sinks)."""
    tasks = [dag.task(t) for t in dag.topological_order()]
    edges = [(v, u) for (u, v) in dag.edges]
    return Dag(tasks, edges, name=f"{dag.name}-rev")


def relabel_tasks(dag: Dag, mapping: Dict[TaskId, TaskId]) -> Dag:
    """Rename task ids through a bijection ``old -> new``."""
    if set(mapping) != set(dag.tasks) or len(set(mapping.values())) != len(mapping):
        raise DagError("relabel mapping must be a bijection over all task ids")
    tasks = [
        Task(mapping[t.tid], t.complexity, t.data_volume)
        for t in (dag.task(tid) for tid in dag.topological_order())
    ]
    edges = [(mapping[u], mapping[v]) for (u, v) in dag.edges]
    return Dag(tasks, edges, name=dag.name)


def with_volumes_factory(
    factory: Callable[[np.random.Generator], Dag],
    volume_range: Tuple[float, float],
) -> Callable[[np.random.Generator], Dag]:
    """Wrap a DAG factory so every generated job carries data volumes."""

    def wrapped(rng: np.random.Generator) -> Dag:
        return assign_data_volumes(factory(rng), rng, volume_range)

    return wrapped
