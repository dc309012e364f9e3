"""Job generation ≡ its frozen pre-template version, bit for bit.

Fixed-shape families (chain, fork-join, Gaussian elimination) and the
workflow traces build one validated structure per shape and re-weight it
per job; every other graph goes through one construction core,
``Dag.from_weights``, which validates with whole-collection tests and which
``Dag(tasks, edges)`` wraps. Every job must still be the one the frozen
generators in
``tests/frozen_reference.py`` build — same name, same ``(tid, complexity,
data_volume)`` in insertion order, same sorted edges, topological order and
adjacency order — and leave the caller's generator in the same state,
because the next job is drawn from where this one stopped.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DagError
from repro.graphs import generators, workflows
from repro.graphs.dag import Dag, Task
from repro.workloads import traces
from repro.workloads.scenarios import mixed_dag_factory
from repro.workloads.traces import trace_dag_factory
from tests import frozen_reference as ref


def _shape_dag(shape, rng=None, c_range=workflows.WORKFLOW_C_RANGE):
    """A workflow shape weighted with the generators' draw, as a per-job
    build would weight it."""
    name, n, edges = shape
    cs = generators.draw_complexities(rng or np.random.default_rng(0), n, c_range)
    return Dag.from_weights(cs.tolist(), edges, name)


def _observed(dag):
    """Everything a scheduler can read off a DAG, order-sensitively."""
    return (
        dag.name,
        [(t.tid, t.complexity, t.data_volume) for t in dag.tasks.values()],
        dag.edges,
        dag.topological_order(),
        [(t, dag.predecessors(t), dag.successors(t)) for t in dag.tasks],
    )


def _first_mismatch(live, frozen, seed, jobs):
    """Draw ``jobs`` jobs from each factory off one seed; describe the first
    job whose DAG or post-call generator state differs (``None`` if none)."""
    a, b = np.random.default_rng(seed), np.random.default_rng(seed)
    for k in range(jobs):
        new, old = live(a), frozen(b)
        if _observed(new) != _observed(old):
            return f"job {k}: {new.name} differs from {old.name}"
        if a.bit_generator.state != b.bit_generator.state:
            return f"job {k}: generator state differs after {new.name}"
    return None


@st.composite
def factory_pairs(draw):
    """``(live factory, frozen factory)`` over every path the change touches."""
    kind = draw(
        st.sampled_from(
            ["mixed", "trace", "chain", "forkjoin", "gauss", "layered", "random",
             "montage", "epigenomics"]
        )
    )
    lo = draw(st.sampled_from([1.0, 0.5]))
    c_range = (lo, lo + draw(st.sampled_from([0.0, 7.0, 9.0])))
    if kind == "mixed":
        size = draw(st.sampled_from(["small", "medium", "large"]))
        return mixed_dag_factory(size), ref.mixed_dag_factory_reference(size)
    if kind == "trace":
        name = draw(st.sampled_from(sorted(ref.TRACES_REFERENCE)))
        return trace_dag_factory(name), ref.TRACES_REFERENCE[name]
    if kind == "chain":
        n = draw(st.integers(1, 40))
        return (
            lambda rng: generators.linear_chain_dag(n, rng, c_range),
            lambda rng: ref.linear_chain_dag_reference(n, rng, c_range),
        )
    if kind == "forkjoin":
        w = draw(st.integers(1, 30))
        return (
            lambda rng: generators.fork_join_dag(w, rng, c_range),
            lambda rng: ref.fork_join_dag_reference(w, rng, c_range),
        )
    if kind == "gauss":
        s = draw(st.integers(2, 9))
        return (
            lambda rng: generators.gaussian_elimination_dag(s, rng, c_range),
            lambda rng: ref.gaussian_elimination_dag_reference(s, rng, c_range),
        )
    if kind == "layered":
        layers, width = draw(st.integers(1, 7)), draw(st.integers(1, 7))
        p, jitter = draw(st.sampled_from([0.0, 0.35, 1.0])), draw(st.booleans())
        return (
            lambda rng: generators.layered_dag(layers, width, rng, c_range, p, jitter),
            lambda rng: ref.layered_dag_reference(layers, width, rng, c_range, p, jitter),
        )
    if kind == "random":
        n, p = draw(st.integers(1, 60)), draw(st.sampled_from([0.0, 0.2, 0.6, 1.0]))
        return (
            lambda rng: generators.random_dag(n, rng, c_range, p),
            lambda rng: ref.random_dag_reference(n, rng, c_range, p),
        )
    if kind == "montage":
        tiles = draw(st.integers(2, 12))
        return (
            lambda rng: _shape_dag(workflows.montage_shape(tiles), rng, c_range),
            lambda rng: ref.montage_dag_reference(tiles, rng, c_range),
        )
    lanes, stages = draw(st.integers(1, 8)), draw(st.integers(1, 5))
    return (
        lambda rng: _shape_dag(workflows.epigenomics_shape(lanes, stages), rng, c_range),
        lambda rng: ref.epigenomics_dag_reference(lanes, stages, rng, c_range),
    )


@given(factory_pairs(), st.integers(0, 2**32 - 1), st.integers(1, 6))
@settings(max_examples=150, deadline=None)
def test_generators_equal_frozen_reference(pair, seed, jobs):
    live, frozen = pair
    assert _first_mismatch(live, frozen, seed, jobs) is None


@pytest.mark.parametrize("name", ["montage", "epigenomics", "grid-mix"])
def test_trace_stream_equals_frozen_reference(name):
    """A long stream crosses every shape and revisits each many times."""
    live, frozen = trace_dag_factory(name), ref.TRACES_REFERENCE[name]
    assert _first_mismatch(live, frozen, seed=11, jobs=300) is None


def test_a_dropped_discarded_draw_is_caught(monkeypatch):
    """The trace path must still draw the generator's unused weights: a
    mutant that skips that draw yields other jobs and another stream."""
    monkeypatch.setattr(traces, "draw_complexities", lambda rng, n, c_range: None)
    for name in ("montage", "epigenomics"):
        live, frozen = trace_dag_factory(name), ref.TRACES_REFERENCE[name]
        assert _first_mismatch(live, frozen, seed=0, jobs=1) is not None


# -- the constructor's checks -------------------------------------------------


def _tasks(*tids):
    return [Task(t, float(i + 1)) for i, t in enumerate(tids)]


#: (case, tasks, edge factory); a factory so one-shot iterables stay fresh
CONSTRUCTOR_CASES = [
    ("valid", _tasks(1, 2, 3), lambda: [(2, 3), (1, 2)]),
    ("valid-no-edges", _tasks(1, 2), lambda: []),
    ("valid-iterator", _tasks(1, 2, 3), lambda: iter([(1, 2), (1, 3)])),
    ("valid-list-typed", _tasks(1, 2, 3), lambda: [[1, 2], [2, 3]]),
    ("valid-mixed-id-types", _tasks("a", 1, "b"), lambda: [("a", 1), (1, "b")]),
    ("no-tasks", [], lambda: []),
    ("duplicate-task", _tasks(1, 2, 1), lambda: []),
    ("duplicate-task-equal-value", _tasks(1, 2, 1.0), lambda: []),
    ("unknown-predecessor", _tasks(1, 2), lambda: [(1, 2), (9, 2)]),
    ("unknown-successor", _tasks(1, 2), lambda: [(1, 9)]),
    ("self-loop", _tasks(1, 2), lambda: [(1, 2), (2, 2)]),
    ("duplicate-edge", _tasks(1, 2, 3), lambda: [(1, 2), (2, 3), (1, 2)]),
    ("duplicate-edge-list-typed", _tasks(1, 2), lambda: [[1, 2], (1, 2)]),
    ("cycle", _tasks(1, 2, 3), lambda: [(1, 2), (2, 3), (3, 1)]),
    ("two-cycle", _tasks(1, 2), lambda: [(1, 2), (2, 1)]),
    ("duplicate-before-unknown", _tasks(1, 2), lambda: [(1, 2), (1, 2), (1, 9)]),
    ("unknown-before-duplicate", _tasks(1, 2), lambda: [(1, 9), (1, 2), (1, 2)]),
    ("cycle-and-a-later-self-loop", _tasks(1, 2, 3), lambda: [(1, 2), (2, 1), (3, 3)]),
    ("triple", _tasks(1, 2), lambda: [(1, 2, 3)]),
    ("unknown-before-triple", _tasks(1, 2), lambda: [(1, 9), (1, 2, 3)]),
    ("not-a-pair", _tasks(1, 2), lambda: [(1, 2), 5]),
    ("unhashable-endpoint", _tasks(1, 2), lambda: [([1], 2)]),
]


def _outcome(cls, tasks, edges):
    try:
        dag = cls(list(tasks), edges(), name="case")
    except Exception as exc:  # the class and message are what is compared
        return type(exc).__name__, str(exc)
    return "ok", _observed(dag)


def _core(tasks, edges, name):
    """``Dag(tasks, edges, name)`` built by the core from the tasks' numbers."""
    return Dag.from_weights(
        [t.complexity for t in tasks],
        edges,
        name,
        ids=[t.tid for t in tasks],
        volumes=[t.data_volume for t in tasks],
    )


@pytest.mark.parametrize(
    "tasks, edges", [c[1:] for c in CONSTRUCTOR_CASES], ids=[c[0] for c in CONSTRUCTOR_CASES]
)
def test_constructor_outcome_equals_frozen_constructor(tasks, edges):
    assert _outcome(Dag, tasks, edges) == _outcome(ref.DagReference, tasks, edges)


@pytest.mark.parametrize(
    "tasks, edges", [c[1:] for c in CONSTRUCTOR_CASES], ids=[c[0] for c in CONSTRUCTOR_CASES]
)
def test_core_outcome_equals_constructor(tasks, edges):
    assert _outcome(_core, tasks, edges) == _outcome(Dag, tasks, edges)


def _first_task_error(weights, volumes):
    """The error building the tasks one by one raises first (``None`` if none)."""
    try:
        for i, c in enumerate(weights):
            Task(i, c, 0.0 if volumes is None else volumes[i])
    except DagError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize(
    "weights, volumes",
    [
        ([1.0, 0.0, -1.0], None),
        ([float("nan"), 1.0, -2.0], None),
        ([1.0, 2.0], [-1.0, 0.0]),
        ([1.0, -2.0], [0.0, -1.0]),
    ],
    ids=["zero-then-negative", "nan-then-negative", "negative-volume", "weight-before-volume"],
)
def test_core_names_the_first_bad_weight_as_task_does(weights, volumes):
    with pytest.raises(DagError) as exc:
        Dag.from_weights(weights, [], volumes=volumes)
    assert str(exc.value) == _first_task_error(weights, volumes) is not None


@st.composite
def weighted_graphs(draw):
    """``(weights, edges, ids)``: an acyclic edge list in arbitrary input
    order over ids ``0..n-1`` (``ids=None``) or over other ids."""
    n = draw(st.integers(1, 14))
    weights = draw(st.lists(st.floats(0.25, 9.0), min_size=n, max_size=n))
    rank = draw(st.permutations(range(n)))  # a hidden topological order
    pairs = [(a, b) for a in range(n) for b in range(n) if rank[a] < rank[b]]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    naming = draw(st.sampled_from(["range", "shuffled", "str"]))
    if naming == "range":
        return weights, edges, None
    if naming == "shuffled":
        ids = draw(st.permutations(range(n)))
    else:
        ids = [f"t{i}" for i in range(n)]
    return weights, [(ids[a], ids[b]) for a, b in edges], list(ids)


def _frozen_levels(dag):
    """Bottom levels and critical path as the pre-core ``Dag`` defined them."""
    bl = {}
    for t in reversed(dag.topological_order()):
        succ = dag.successors(t)
        bl[t] = dag.task(t).complexity + (max([bl[s] for s in succ]) if succ else 0.0)
    return bl, max(bl[t] for t in dag.topological_order() if not dag.predecessors(t))


@given(weighted_graphs())
@settings(max_examples=150, deadline=None)
def test_core_equals_frozen_constructor(graph):
    """The core and its ``Dag(tasks, edges)`` wrapper ≡ the frozen
    constructor: same topological order, adjacency, sorted edges, bottom
    levels and critical path (the memoised float read first, off no map)."""
    weights, edges, ids = graph
    tids = range(len(weights)) if ids is None else ids
    tasks = [Task(t, c) for t, c in zip(tids, weights)]
    frozen = ref.DagReference(tasks, edges, name="g")
    levels, cp = _frozen_levels(frozen)
    for live in (Dag.from_weights(weights, edges, "g", ids=ids), Dag(tasks, edges, "g")):
        assert live.critical_path_length() == cp
        assert _observed(live) == _observed(frozen)
        assert live.edge_count() == len(frozen.edges)
        assert live.bottom_levels() == levels
        assert live.critical_path_length() == cp


GENERATOR_ERRORS = [
    ("chain", lambda g: g.linear_chain_dag(0), lambda: ref.linear_chain_dag_reference(0)),
    ("forkjoin", lambda g: g.fork_join_dag(0), lambda: ref.fork_join_dag_reference(0)),
    ("gauss", lambda g: g.gaussian_elimination_dag(1),
     lambda: ref.gaussian_elimination_dag_reference(1)),
    ("chain-c-range", lambda g: g.linear_chain_dag(3, c_range=(0.0, 1.0)),
     lambda: ref.linear_chain_dag_reference(3, c_range=(0.0, 1.0))),
    ("montage", lambda g: _shape_dag(workflows.montage_shape(1)), lambda: ref.montage_dag_reference(1)),
    ("montage-c-range", lambda g: _shape_dag(workflows.montage_shape(3), c_range=(2.0, 1.0)),
     lambda: ref.montage_dag_reference(3, c_range=(2.0, 1.0))),
    ("epigenomics", lambda g: _shape_dag(workflows.epigenomics_shape(0)),
     lambda: ref.epigenomics_dag_reference(0)),
    ("random-p", lambda g: g.random_dag(4, p_edge=1.5), lambda: ref.random_dag_reference(4, p_edge=1.5)),
]


@pytest.mark.parametrize(
    "live, frozen", [c[1:] for c in GENERATOR_ERRORS], ids=[c[0] for c in GENERATOR_ERRORS]
)
def test_generator_errors_equal_frozen_reference(live, frozen):
    with pytest.raises(Exception) as new:
        live(generators)
    with pytest.raises(Exception) as old:
        frozen()
    assert (type(new.value), str(new.value)) == (type(old.value), str(old.value))
