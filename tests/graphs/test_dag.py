"""Unit tests for the Dag structure."""

import pytest

from repro.errors import CycleError, DagError
from repro.graphs.dag import Dag, Task
from repro.graphs.generators import paper_example_dag


def make_diamond() -> Dag:
    tasks = [Task("a", 1.0), Task("b", 2.0), Task("c", 3.0), Task("d", 4.0)]
    return Dag(tasks, [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])


class TestTask:
    def test_valid(self):
        t = Task(1, 2.5)
        assert t.tid == 1 and t.complexity == 2.5 and t.data_volume == 0.0

    def test_zero_complexity_rejected(self):
        with pytest.raises(DagError):
            Task(1, 0.0)

    def test_negative_complexity_rejected(self):
        with pytest.raises(DagError):
            Task(1, -1.0)

    def test_negative_volume_rejected(self):
        with pytest.raises(DagError):
            Task(1, 1.0, data_volume=-0.5)

    def test_frozen(self):
        t = Task(1, 1.0)
        with pytest.raises(Exception):
            t.complexity = 2.0


class TestDagConstruction:
    def test_empty_rejected(self):
        with pytest.raises(DagError):
            Dag([])

    def test_duplicate_task_rejected(self):
        with pytest.raises(DagError, match="duplicate task"):
            Dag([Task(1, 1.0), Task(1, 2.0)])

    def test_unknown_edge_endpoint_rejected(self):
        with pytest.raises(DagError, match="unknown"):
            Dag([Task(1, 1.0)], [(1, 2)])
        with pytest.raises(DagError, match="unknown"):
            Dag([Task(2, 1.0)], [(1, 2)])

    def test_self_loop_rejected(self):
        with pytest.raises(CycleError):
            Dag([Task(1, 1.0)], [(1, 1)])

    def test_duplicate_edge_rejected(self):
        with pytest.raises(DagError, match="duplicate edge"):
            Dag([Task(1, 1.0), Task(2, 1.0)], [(1, 2), (1, 2)])

    def test_cycle_rejected(self):
        with pytest.raises(CycleError):
            Dag([Task(1, 1.0), Task(2, 1.0), Task(3, 1.0)], [(1, 2), (2, 3), (3, 1)])

    def test_two_cycle_rejected(self):
        with pytest.raises(CycleError):
            Dag([Task(1, 1.0), Task(2, 1.0)], [(1, 2), (2, 1)])

    def test_single_task(self):
        d = Dag([Task(7, 3.0)])
        assert len(d) == 1
        assert d.sources() == (7,)
        assert d.sinks() == (7,)
        assert d.topological_order() == (7,)


class TestDagQueries:
    def test_len_contains_iter(self):
        d = make_diamond()
        assert len(d) == 4
        assert "a" in d and "z" not in d
        assert set(iter(d)) == {"a", "b", "c", "d"}

    def test_task_lookup(self):
        d = make_diamond()
        assert d.task("b").complexity == 2.0
        with pytest.raises(DagError):
            d.task("zzz")

    def test_adjacency(self):
        d = make_diamond()
        assert set(d.successors("a")) == {"b", "c"}
        assert set(d.predecessors("d")) == {"b", "c"}
        assert d.predecessors("a") == ()
        assert d.successors("d") == ()

    def test_sources_sinks(self):
        d = make_diamond()
        assert d.sources() == ("a",)
        assert d.sinks() == ("d",)

    def test_topological_order_respects_edges(self):
        d = make_diamond()
        order = d.topological_order()
        pos = {t: i for i, t in enumerate(order)}
        for u, v in d.edges:
            assert pos[u] < pos[v]

    def test_total_complexity(self):
        assert make_diamond().total_complexity() == pytest.approx(10.0)

    def test_edge_count(self):
        assert make_diamond().edge_count() == 4

    def test_edges_sorted_stable(self):
        d1 = make_diamond()
        d2 = make_diamond()
        assert d1.edges == d2.edges

    def test_complexity_shorthand(self):
        d = make_diamond()
        assert d.complexity("c") == 3.0


def _structure(dag: Dag):
    """Everything a scheduler can observe of a DAG, order-sensitively."""
    return (
        list(dag.tasks.items()),
        {t: (dag.predecessors(t), dag.successors(t)) for t in dag.tasks},
        dag.edges,
        dag.topological_order(),
        dag.topo_index(),
        dag.bottom_levels(),
        dag.name,
    )


class TestWithWeights:
    def test_equals_full_constructor_on_the_same_edge_sequence(self):
        edges = [("a", "c"), ("a", "b"), ("c", "d"), ("b", "d")]  # not sorted
        base = Dag([Task(t, 1.0) for t in "abcd"], edges, name="diamond")
        cs = (5.0, 1.0, 9.0, 2.0)
        heavier = [Task(t, c) for t, c in zip("abcd", cs)]
        base.bottom_levels()  # a memo of the old weights must not leak
        assert _structure(base.with_weights(cs)) == _structure(
            Dag(heavier, edges, name="diamond")
        )

    def test_keeps_no_task_objects(self):
        dag = make_diamond().with_weights([2.0, 3.0, 4.0, 5.0])
        assert not any(isinstance(x, Task) for slot in Dag.__slots__ for x in _values(dag, slot))
        assert dag.total_complexity() == 14.0 and dag.data_volume("d") == 0.0

    @pytest.mark.parametrize("n", [3, 5])
    def test_rejects_a_vector_of_another_length(self, n):
        with pytest.raises(DagError, match="needs 4 complexities"):
            make_diamond().with_weights([1.0] * n)

    @pytest.mark.parametrize(
        "cs, message",
        [
            ((1.0, 0.0, 1.0, 1.0), "task 'b': complexity must be > 0, got 0.0"),
            ((1.0, 1.0, 1.0, -2.0), "task 'd': complexity must be > 0, got -2.0"),
        ],
        ids=["zero", "negative"],
    )
    def test_rejects_the_first_bad_weight_as_a_task_would(self, cs, message):
        with pytest.raises(DagError) as err:
            make_diamond().with_weights(cs)
        assert str(err.value) == message


def _values(dag: Dag, slot: str):
    """The objects one ``Dag`` slot holds, one level into containers."""
    value = getattr(dag, slot)
    if isinstance(value, dict):
        return [*value, *value.values()]
    return list(value) if isinstance(value, (tuple, list)) else [value]


class TestPaperDag:
    def test_structure(self):
        d = paper_example_dag()
        assert len(d) == 5
        assert set(d.edges) == {(1, 3), (2, 3), (1, 4), (3, 5), (4, 5)}
        assert [d.complexity(t) for t in (1, 2, 3, 4, 5)] == [6, 4, 4, 2, 5]

    def test_sources_and_sinks(self):
        d = paper_example_dag()
        assert set(d.sources()) == {1, 2}
        assert d.sinks() == (5,)
