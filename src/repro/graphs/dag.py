"""The job DAG data structure.

Design notes
------------
The paper manipulates small-to-moderate DAGs (tens to hundreds of tasks) but
a simulation run schedules *thousands* of job instances, so the structure is
optimised for cheap repeated traversal: predecessor/successor adjacency is
stored as tuples (immutable, cache-friendly), and derived quantities such as
the topological order are computed once and memoised.

A :class:`Dag` is immutable after construction; workload generators build
fresh instances. Mutability would buy nothing here (jobs never change shape
after arrival) and immutability lets sites share one DAG object safely in the
simulator without copying. It also lets jobs of one fixed shape share one
validated structure: :meth:`Dag.with_weights` re-weights a graph without
re-deriving its adjacency, sorted edges or topological order.

A task costs its numbers: a ``Dag`` keeps no :class:`Task` objects. It keeps
an id -> position map (shared by every re-weighting of one graph), the
complexities as a tuple of floats in insertion order, and the data volumes
likewise — or ``None`` when every volume is zero. :meth:`Dag.task` and
:attr:`Dag.tasks` build ``Task`` values on demand; hot readers use
:meth:`Dag.complexity` and :meth:`Dag.data_volume`.

The constructor keeps every check but pays for them with whole-collection
tests (a dict of the ids, adjacency appends that fail on an unknown id, a set
of the edges, the topological sort); only when one fails does it walk the
edges in input order to name the first offender. The repr-sorted ``edges``
tuple is built on first read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from repro.errors import CycleError, DagError
from repro.types import TaskId


@dataclass(frozen=True)
class Task:
    """One task of a job DAG.

    Attributes
    ----------
    tid:
        Identifier, unique inside the DAG.
    complexity:
        Computational Complexity ``c(t)`` (execution time on a unit-speed,
        fully idle site). Must be positive.
    data_volume:
        Optional output-data volume used by the §13 "Communication Delays"
        generalization (delay += volume / throughput). Zero means the pure
        propagation-delay model of the main algorithm.
    """

    tid: TaskId
    complexity: float
    data_volume: float = 0.0

    def __post_init__(self) -> None:
        if self.complexity <= 0:
            raise DagError(f"task {self.tid!r}: complexity must be > 0, got {self.complexity}")
        if self.data_volume < 0:
            raise DagError(f"task {self.tid!r}: data_volume must be >= 0, got {self.data_volume}")


class Dag:
    """Immutable job precedence graph ``G = (T, E)``.

    Parameters
    ----------
    tasks:
        Iterable of :class:`Task`. Ids must be unique.
    edges:
        Iterable of ``(pred_id, succ_id)`` precedence arcs. Both endpoints
        must be task ids; duplicates are rejected; the relation must be
        acyclic.
    name:
        Optional human-readable label used by traces and reports.
    """

    __slots__ = (
        "_index", "_c", "_v", "_preds", "_succs", "_edges", "_order", "name", "_bl", "_topo_index"
    )

    def __init__(
        self,
        tasks: Iterable[Task],
        edges: Iterable[Tuple[TaskId, TaskId]] = (),
        name: str = "dag",
    ) -> None:
        # Every check is a whole-collection test on the happy path; only
        # when one fails does _raise_first_bad_edge walk the edges in order,
        # so the error names the first offender, as a per-edge scan would.
        task_list = list(tasks)
        task_map: Dict[TaskId, int] = {t.tid: i for i, t in enumerate(task_list)}
        if len(task_map) != len(task_list):
            _raise_duplicate_task(task_list)
        if not task_map:
            raise DagError("a DAG needs at least one task")

        edge_list = list(edges)
        preds: Dict[TaskId, list] = {tid: [] for tid in task_map}
        succs: Dict[TaskId, list] = {tid: [] for tid in task_map}
        try:
            for u, v in edge_list:
                succs[u].append(v)
                preds[v].append(u)
            # tuple() keeps a tuple and converts a JSON-style [u, v] pair
            clean = len(set(map(tuple, edge_list))) == len(edge_list)
        except (KeyError, TypeError, ValueError):
            clean = False
        if not clean:
            _raise_first_bad_edge(task_map, edge_list)

        self.name = name
        #: task id -> position in insertion order (the weight vectors' order)
        self._index: Dict[TaskId, int] = task_map
        self._c: Tuple[float, ...] = tuple(t.complexity for t in task_list)
        volumes = tuple(t.data_volume for t in task_list)
        #: data volumes in insertion order; ``None`` when all are zero
        self._v: Optional[Tuple[float, ...]] = volumes if any(volumes) else None
        self._preds: Dict[TaskId, Tuple[TaskId, ...]] = {k: tuple(v) for k, v in preds.items()}
        self._succs: Dict[TaskId, Tuple[TaskId, ...]] = {k: tuple(v) for k, v in succs.items()}
        # the validated edge list; ``edges`` sorts it on first read
        self._edges: Union[List, Tuple[Tuple[TaskId, TaskId], ...]] = edge_list
        try:
            self._order: Tuple[TaskId, ...] = self._toposort()
        except CycleError:
            # a self-loop is a one-edge cycle, reported as the edge it is
            _raise_first_bad_edge(task_map, edge_list)
            raise
        # lazy memos (the graph is immutable, so they never go stale):
        # bottom levels and the topo-order index are recomputed per mapper
        # run otherwise, and trace workloads re-admit the same Dag objects
        # thousands of times
        self._bl: Optional[Dict[TaskId, float]] = None
        self._topo_index: Optional[Dict[TaskId, int]] = None

    def with_weights(self, complexities: Sequence[float]) -> "Dag":
        """The same graph with new complexities (re-drawn weights), all data
        volumes zero.

        ``complexities`` is in this graph's insertion order. Shares this
        graph's id map, immutable adjacency, sorted edge tuple and
        topological order instead of re-deriving them, so the result equals
        ``Dag(<tasks with these weights>, <the edge sequence this graph was
        built from>)``. The vector is checked as one collection, with the
        message :class:`Task` gives its first bad weight.
        """
        c = tuple(complexities)
        if len(c) != len(self._c):
            raise DagError(f"{self.name}: with_weights needs {len(self._c)} complexities, got {len(c)}")
        bad = next((i for i, x in enumerate(c) if x <= 0), None)
        if bad is not None:
            tid = list(self._index)[bad]
            raise DagError(f"task {tid!r}: complexity must be > 0, got {c[bad]}")
        new = object.__new__(Dag)
        new.name = self.name
        new._index, new._c, new._v = self._index, c, None
        new._preds, new._succs = self._preds, self._succs
        # the sorted tuple, not the raw list: every copy would sort it again
        new._edges, new._order = self.edges, self._order
        new._bl = None
        new._topo_index = self.topo_index()
        return new

    # -- basic accessors ---------------------------------------------------

    def __len__(self) -> int:
        return len(self._c)

    def __contains__(self, tid: TaskId) -> bool:
        return tid in self._index

    def __iter__(self) -> Iterator[TaskId]:
        return iter(self._order)

    def task(self, tid: TaskId) -> Task:
        """The :class:`Task` with id ``tid``, built on demand."""
        try:
            i = self._index[tid]
        except KeyError:
            raise DagError(f"unknown task id {tid!r}") from None
        v = self._v
        return Task(tid, self._c[i], 0.0 if v is None else v[i])

    def complexity(self, tid: TaskId) -> float:
        """``self.task(tid).complexity`` without building the task (hot path)."""
        return self._c[self._index[tid]]

    def data_volume(self, tid: TaskId) -> float:
        """``self.task(tid).data_volume`` without building the task (hot path)."""
        i = self._index[tid]
        v = self._v
        return 0.0 if v is None else v[i]

    @property
    def tasks(self) -> Mapping[TaskId, Task]:
        """A fresh id → :class:`Task` mapping in insertion order (not a hot
        path: every read builds the tasks)."""
        return {tid: self.task(tid) for tid in self._index}

    @property
    def edges(self) -> Tuple[Tuple[TaskId, TaskId], ...]:
        """All precedence arcs as ``(pred, succ)`` pairs (sorted, stable)."""
        edges = self._edges
        if isinstance(edges, list):
            # the set, not the list: its order breaks ties between equal reprs
            edges = tuple(sorted(set(map(tuple, edges)), key=repr))
            self._edges = edges
        return edges

    def predecessors(self, tid: TaskId) -> Tuple[TaskId, ...]:
        """Immediate predecessors Γ⁻(t)."""
        return self._preds[tid]

    def successors(self, tid: TaskId) -> Tuple[TaskId, ...]:
        """Immediate successors Γ⁺(t)."""
        return self._succs[tid]

    def sources(self) -> Tuple[TaskId, ...]:
        """Tasks with no predecessor (entry tasks)."""
        return tuple(t for t in self._order if not self._preds[t])

    def sinks(self) -> Tuple[TaskId, ...]:
        """Tasks with no successor (exit tasks)."""
        return tuple(t for t in self._order if not self._succs[t])

    def topological_order(self) -> Tuple[TaskId, ...]:
        """A fixed topological order (Kahn, ties broken by insertion order)."""
        return self._order

    def topo_index(self) -> Dict[TaskId, int]:
        """Memoised ``task -> position in topological_order()`` map.

        Shared and read-only by convention — list-scheduling tie-breaks
        look positions up, they never write.
        """
        idx = self._topo_index
        if idx is None:
            idx = {t: i for i, t in enumerate(self._order)}
            self._topo_index = idx
        return idx

    def bottom_levels(self) -> Dict[TaskId, float]:
        """Memoised node-weighted longest path to a sink, inclusive (§12).

        ``bl(t) = c(t) + max(bl(s) for s in Γ⁺(t))``. The graph is
        immutable, so the map is computed once; callers treat it as
        read-only (:func:`repro.graphs.analysis.bottom_levels` is the
        public face).
        """
        bl = self._bl
        if bl is None:
            bl = {}
            index, c = self._index, self._c
            succs = self._succs
            for t in reversed(self._order):
                succ = succs[t]
                best = max([bl[s] for s in succ]) if succ else 0.0
                bl[t] = c[index[t]] + best
            self._bl = bl
        return bl

    def total_complexity(self) -> float:
        """Sum of all task complexities (sequential work of the job), summed
        in insertion order."""
        return sum(self._c)

    def edge_count(self) -> int:
        return len(self._edges)

    # -- internals ---------------------------------------------------------

    def _toposort(self) -> Tuple[TaskId, ...]:
        indeg = {tid: len(p) for tid, p in self._preds.items()}
        # Insertion order of the task map makes the sort deterministic.
        ready = [tid for tid in self._index if indeg[tid] == 0]
        order: list = []
        head = 0
        while head < len(ready):
            u = ready[head]
            head += 1
            order.append(u)
            for v in self._succs[u]:
                indeg[v] -= 1
                if indeg[v] == 0:
                    ready.append(v)
        if len(order) != len(self._index):
            stuck = sorted((tid for tid, d in indeg.items() if d > 0), key=repr)
            raise CycleError(f"precedence relation has a cycle through {stuck}")
        return tuple(order)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Dag({self.name!r}, |T|={len(self)}, |E|={len(self._edges)})"


def _raise_duplicate_task(tasks: List[Task]) -> None:
    seen = set()
    for t in tasks:
        if t.tid in seen:
            raise DagError(f"duplicate task id {t.tid!r}")
        seen.add(t.tid)


def _raise_first_bad_edge(task_map: Mapping[TaskId, int], edges: List) -> None:
    """Raise the error of the first malformed edge, in input order (if any)."""
    seen = set()
    for u, v in edges:
        if u not in task_map:
            raise DagError(f"edge ({u!r}, {v!r}): unknown predecessor {u!r}")
        if v not in task_map:
            raise DagError(f"edge ({u!r}, {v!r}): unknown successor {v!r}")
        if u == v:
            raise CycleError(f"self-loop on task {u!r}")
        if (u, v) in seen:
            raise DagError(f"duplicate edge ({u!r}, {v!r})")
        seen.add((u, v))


def descendants(dag: Dag, tid: TaskId) -> frozenset:
    """All transitive successors of ``tid`` (excluding itself)."""
    seen = set()
    stack = list(dag.successors(tid))
    while stack:
        u = stack.pop()
        if u not in seen:
            seen.add(u)
            stack.extend(dag.successors(u))
    return frozenset(seen)
