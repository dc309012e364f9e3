"""Property-based tests (hypothesis) for the graph substrate."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.dag import Dag
from repro.graphs.generators import layered_dag, random_dag
from repro.graphs.serialization import dag_from_dict, dag_to_dict


@st.composite
def random_dags(draw):
    n = draw(st.integers(min_value=1, max_value=24))
    p = draw(st.floats(min_value=0.0, max_value=0.6))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    return random_dag(n, np.random.default_rng(seed), p_edge=p)


@given(random_dags())
@settings(max_examples=60, deadline=None)
def test_topological_order_is_valid(dag: Dag):
    pos = {t: i for i, t in enumerate(dag.topological_order())}
    assert len(pos) == len(dag)
    for u, v in dag.edges:
        assert pos[u] < pos[v]


@given(random_dags())
@settings(max_examples=60, deadline=None)
def test_bottom_top_levels_bound_critical_path(dag: Dag):
    bl = dag.bottom_levels()
    cp = dag.critical_path_length()
    for t in dag:
        # a task's bottom level covers its own work and is a path length
        assert dag.complexity(t) - 1e-12 <= bl[t] <= cp + 1e-9
    # the max over sources achieves cp
    assert max(bl[s] for s in dag.sources()) == cp


def _assert_roundtrip_equal(dag: Dag) -> None:
    """What a receiving site schedules must be the graph that was sent:
    same insertion order, successor tuples, topological order and total
    work (an insertion-order sum, so a reordering moves its last bits)."""
    d2 = dag_from_dict(dag_to_dict(dag))
    assert d2.edges == dag.edges
    assert list(d2.tasks.items()) == list(dag.tasks.items())
    assert [d2.successors(t) for t in d2.tasks] == [dag.successors(t) for t in dag.tasks]
    assert d2.topological_order() == dag.topological_order()
    assert d2.total_complexity() == dag.total_complexity()


@given(random_dags())
@settings(max_examples=40, deadline=None)
def test_serialization_roundtrip(dag: Dag):
    _assert_roundtrip_equal(dag)


def test_serialization_roundtrip_keeps_a_layered_dags_order():
    """Writing tasks in topological order and edges sorted by ``repr``
    turned this job's topological order into ``… 6, 3, 5, 4, 10, 7, 9, 8``
    and changed its total work."""
    dag = layered_dag(3, 3, np.random.default_rng(4), p_edge=0.35)
    assert dag.topological_order() == (0, 1, 2, 6, 3, 5, 4, 7, 9, 10, 8)
    _assert_roundtrip_equal(dag)


@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=40, deadline=None)
def test_layered_dag_depth(layers, width_, seed):
    d = layered_dag(layers, width_, np.random.default_rng(seed), jitter=False)
    assert len(d) == layers * width_
    # depth == layers: the guaranteed predecessor chains span all layers
    depth = {}
    for t in d.topological_order():
        preds = d.predecessors(t)
        depth[t] = 1 + max((depth[p] for p in preds), default=-1)
    assert max(depth.values()) == layers - 1
