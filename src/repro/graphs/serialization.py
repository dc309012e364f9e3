"""Plain-dict (JSON-compatible) serialization for job DAGs.

The simulator ships "task code" between sites as messages; serializing the
DAG to a dict both sizes those messages realistically (see
``Message.payload_size``) and gives users a stable on-disk format.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.errors import DagError
from repro.graphs.dag import Dag


def dag_to_dict(dag: Dag) -> Dict[str, Any]:
    """Serialize ``dag`` to a JSON-compatible dict.

    Task ids must themselves be JSON-compatible (ints or strings); the
    generators only produce such ids. Tasks are written in insertion order
    and edges grouped by predecessor in that order, each group in its
    successor order, so :func:`dag_from_dict` rebuilds the same insertion
    order, successor tuples and topological order — and the same
    insertion-order sum of complexities.
    """
    tasks = list(dag.tasks.values())
    return {
        "name": dag.name,
        "tasks": [
            {"tid": t.tid, "complexity": t.complexity, "data_volume": t.data_volume}
            for t in tasks
        ],
        "edges": [[t.tid, v] for t in tasks for v in dag.successors(t.tid)],
    }


def dag_from_dict(data: Dict[str, Any]) -> Dag:
    """Inverse of :func:`dag_to_dict`. Validates structure eagerly."""
    try:
        tasks = data["tasks"]
        ids = [t["tid"] for t in tasks]
        cs = [float(t["complexity"]) for t in tasks]
        volumes = [float(t.get("data_volume", 0.0)) for t in tasks]
        edges = [(u, v) for (u, v) in data["edges"]]
        name = str(data.get("name", "dag"))
    except (KeyError, TypeError, ValueError) as exc:
        raise DagError(f"malformed DAG dict: {exc}") from exc
    return Dag.from_weights(cs, edges, name, ids=ids, volumes=volumes)


def estimate_code_size(dag: Dag, units_per_task: float = 4.0) -> float:
    """Size of the "tasks code" message of §11, in abstract size units.

    The unit scale is chosen to be commensurate with task *data volumes*
    (typically 1-12 units in the workloads) so that, under the §13
    finite-throughput model, code dispatch costs the same order as a few
    result transfers — code is small next to data in real deployments.
    """
    return units_per_task * len(dag) + 1.0 * dag.edge_count()
