"""Precedence-graph (job DAG) substrate.

A *job* in the paper is a Directed Acyclic Graph ``G = (T, E)`` whose nodes
are tasks with a Computational Complexity ``c(t)`` and whose arcs are
precedence constraints; the job carries a release ``r`` and a deadline ``d``.

This package provides the DAG data structure (:class:`~repro.graphs.dag.Dag`,
which also derives the §12 bottom levels and the critical-path length), the
random and structured generators used by the workload layer, data-volume
decoration and plain-dict serialization.
"""

from repro.graphs.dag import Dag, Task
from repro.graphs.generators import (
    fork_join_dag,
    gaussian_elimination_dag,
    layered_dag,
    linear_chain_dag,
    paper_example_dag,
    random_dag,
)
from repro.graphs.serialization import dag_from_dict, dag_to_dict
from repro.graphs.transform import assign_data_volumes
from repro.graphs.workflows import mapreduce_dag

__all__ = [
    "Dag",
    "Task",
    "fork_join_dag",
    "gaussian_elimination_dag",
    "layered_dag",
    "linear_chain_dag",
    "paper_example_dag",
    "random_dag",
    "dag_from_dict",
    "dag_to_dict",
    "assign_data_volumes",
    "mapreduce_dag",
]
