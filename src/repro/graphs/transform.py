"""DAG decoration with data volumes.

:func:`assign_data_volumes` decorates tasks with output-data volumes (the
§13 data-volume communication model: "data volumes may be easily taken into
account (decoration of the arcs in the DAG)"; we decorate the producing
task, equivalent for identical throughputs), and
:func:`with_volumes_factory` wraps a DAG factory to do so for every job.
Both return fresh immutable :class:`~repro.graphs.dag.Dag` instances;
inputs are never modified.
"""

from __future__ import annotations

from typing import Callable, Tuple

import numpy as np

from repro.errors import DagError
from repro.graphs.dag import Dag


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


def with_volumes_factory(
    factory: Callable[[np.random.Generator], Dag],
    volume_range: Tuple[float, float],
) -> Callable[[np.random.Generator], Dag]:
    """Wrap a DAG factory so every generated job carries data volumes."""

    def wrapped(rng: np.random.Generator) -> Dag:
        return assign_data_volumes(factory(rng), rng, volume_range)

    return wrapped
