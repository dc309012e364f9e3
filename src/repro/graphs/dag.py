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

One core builds every graph: :meth:`Dag.from_weights` takes a weight vector
and an edge sequence over ids ``0..n-1`` (or over the ids it is given), and
``Dag(tasks, edges)`` unpacks its tasks into it. A generated job costs its
draws: the generators hand the core the floats they drew, and no
:class:`Task` is built.

A task costs its numbers: a ``Dag`` keeps no ``Task`` objects. It keeps an
id -> position map — for ids ``0..n-1`` one shared, read-only map per size
``n`` — the complexities as a tuple of floats in insertion order, and the
data volumes likewise, or ``None`` when every volume is zero. :meth:`Dag.task`
and :attr:`Dag.tasks` build ``Task`` values on demand; hot readers use
:meth:`Dag.complexity` and :meth:`Dag.data_volume`.

Beyond that a job keeps only what a reader asks for. The repr-sorted
``edges`` tuple is built from the adjacency on first read; the critical-path
length (deadline assignment, the deferred-job check) is memoised as one
float. The bottom-level map (the mapper's priorities) and the topo-order
index are built afresh on each call and kept by no one: a mapping reads
each once, and a job holds no per-task map after it.

The core keeps every check but pays for them with whole-collection tests
(the smallest weight, a dict of the ids, adjacency appends that fail on an
unknown id, a set of the edges, the topological sort); only when one fails
does it walk the input in order to name the first offender.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

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


@lru_cache(maxsize=256)
def _range_index(n: int) -> Dict[int, int]:
    """The ``i -> i`` id map every graph over ids ``0..n-1`` shares (read-only)."""
    return {i: i for i in range(n)}


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

    ``Dag(tasks, edges, name)`` equals ``Dag.from_weights`` over the tasks'
    complexities, ids and data volumes.
    """

    __slots__ = (
        "_index", "_c", "_v", "_preds", "_succs", "_edges", "_order", "name", "_cp",
    )

    def __init__(
        self,
        tasks: Iterable[Task],
        edges: Iterable[Tuple[TaskId, TaskId]] = (),
        name: str = "dag",
    ) -> None:
        task_list = list(tasks)
        self._build(
            [t.complexity for t in task_list],
            edges,
            name,
            [t.tid for t in task_list],
            [t.data_volume for t in task_list],
        )

    @classmethod
    def from_weights(
        cls,
        complexities: Sequence[float],
        edges: Iterable[Tuple[TaskId, TaskId]] = (),
        name: str = "dag",
        *,
        ids: Optional[Sequence[TaskId]] = None,
        volumes: Optional[Sequence[float]] = None,
    ) -> "Dag":
        """The graph whose task ``ids[i]`` has complexity ``complexities[i]``
        (and data volume ``volumes[i]``, zero by default).

        ``ids`` defaults to ``0..n-1``. Makes every check ``Dag(tasks,
        edges)`` makes, with the same error for the same first offender: a
        complexity must be > 0 and a volume >= 0 (:class:`Task`'s messages),
        ids are unique and non-empty, and unknown endpoints, self-loops,
        duplicate edges and cycles are rejected.
        """
        dag = object.__new__(cls)
        dag._build(complexities, edges, name, ids, volumes)
        return dag

    def _build(
        self,
        complexities: Sequence[float],
        edges: Iterable[Tuple[TaskId, TaskId]],
        name: str,
        ids: Optional[Sequence[TaskId]],
        volumes: Optional[Sequence[float]],
    ) -> None:
        """The construction core: every ``Dag`` but a re-weighting is built here."""
        # Every check is a whole-collection test on the happy path; only
        # when one fails is the input walked in order, so the error names
        # the first offender, as a per-item scan would.
        c = tuple(complexities)
        n = len(c)
        v = None if volumes is None else tuple(volumes)
        if ids is None:
            index = _range_index(n)
        else:
            ids = list(ids)
            index = {tid: i for i, tid in enumerate(ids)}
        if (ids is not None and len(ids) != n) or (v is not None and len(v) != n):
            raise DagError(f"{name}: ids, complexities and volumes differ in length")
        if n and (not min(c) > 0 or (v is not None and not min(v) >= 0)):
            _raise_first_bad_weight(ids or range(n), c, v)
        if len(index) != n:
            _raise_duplicate_task(ids)
        if not n:
            raise DagError("a DAG needs at least one task")

        edge_list = edges if isinstance(edges, list) else list(edges)
        preds: Dict[TaskId, list] = {tid: [] for tid in index}
        succs: Dict[TaskId, list] = {tid: [] for tid in index}
        try:
            for a, b in edge_list:
                succs[a].append(b)
                preds[b].append(a)
            # tuple() keeps a tuple and converts a JSON-style [u, v] pair
            clean = len(set(map(tuple, edge_list))) == len(edge_list)
        except (KeyError, TypeError, ValueError):
            clean = False
        if not clean:
            _raise_first_bad_edge(index, edge_list)

        self.name = name
        #: task id -> position in insertion order (the weight vectors' order)
        self._index: Dict[TaskId, int] = index
        self._c: Tuple[float, ...] = c
        #: data volumes in insertion order; ``None`` when all are zero
        self._v: Optional[Tuple[float, ...]] = v if v is not None and any(v) else None
        self._preds: Dict[TaskId, Tuple[TaskId, ...]] = {k: tuple(x) for k, x in preds.items()}
        self._succs: Dict[TaskId, Tuple[TaskId, ...]] = {k: tuple(x) for k, x in succs.items()}
        # lazy memos (the graph is immutable, so they never go stale): the
        # sorted edge tuple and the critical-path length
        self._edges: Optional[Tuple[Tuple[TaskId, TaskId], ...]] = None
        self._cp: Optional[float] = None
        try:
            self._order: Tuple[TaskId, ...] = self._toposort()
        except CycleError:
            # a self-loop is a one-edge cycle, reported as the edge it is
            _raise_first_bad_edge(index, edge_list)
            raise

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
        if not min(c) > 0:
            _raise_first_bad_weight(list(self._index), c, None)
        new = object.__new__(Dag)
        new.name = self.name
        new._index, new._c, new._v = self._index, c, None
        new._preds, new._succs = self._preds, self._succs
        # the sorted tuple itself: every copy would sort it again
        new._edges, new._order = self.edges, self._order
        new._cp = None
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
        if edges is None:
            edges = tuple(
                sorted([(u, v) for u, succ in self._succs.items() for v in succ], key=repr)
            )
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
        """A fresh ``task -> position in topological_order()`` map, O(|T|).

        Not memoised: a job keeps no per-task map once its mapping is
        done (list-scheduling tie-breaks build it once per mapping).
        """
        return {t: i for i, t in enumerate(self._order)}

    def bottom_levels(self) -> Dict[TaskId, float]:
        """Node-weighted longest path to a sink, inclusive (§12), as a fresh
        map: ``bl(t) = c(t) + max(bl(s) for s in Γ⁺(t))``, O(|T| + |E|).

        Not memoised, for the same reason as :meth:`topo_index`: the mapper
        reads it once per mapping, next to its own O(|T|·|U|) work.
        """
        return self._bottom_levels()

    def critical_path_length(self) -> float:
        """Memoised length (sum of complexities) of the longest path: the
        largest bottom level of a source. Keeps the one float, not the
        bottom-level map it is read off."""
        cp = self._cp
        if cp is None:
            bl = self._bottom_levels()
            preds = self._preds
            cp = self._cp = max([bl[t] for t in self._order if not preds[t]])
        return cp

    def total_complexity(self) -> float:
        """Sum of all task complexities (sequential work of the job), summed
        in insertion order."""
        return sum(self._c)

    def edge_count(self) -> int:
        return sum(map(len, self._succs.values()))

    # -- internals ---------------------------------------------------------

    def _bottom_levels(self) -> Dict[TaskId, float]:
        bl: Dict[TaskId, float] = {}
        level = bl.__getitem__
        index, c, succs = self._index, self._c, self._succs
        for t in reversed(self._order):
            succ = succs[t]
            bl[t] = c[index[t]] + (max(map(level, succ)) if succ else 0.0)
        return bl

    def _toposort(self) -> Tuple[TaskId, ...]:
        succs = self._succs
        # The adjacency dicts follow the task map's insertion order, which
        # makes the sort deterministic. ``ready`` is the FIFO queue and,
        # once drained, the order.
        indeg = {tid: len(p) for tid, p in self._preds.items()}
        ready = [tid for tid, d in indeg.items() if not d]
        for u in ready:
            for v in succs[u]:
                indeg[v] -= 1
                if not indeg[v]:
                    ready.append(v)
        if len(ready) != len(indeg):
            stuck = sorted((tid for tid, d in indeg.items() if d > 0), key=repr)
            raise CycleError(f"precedence relation has a cycle through {stuck}")
        return tuple(ready)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Dag({self.name!r}, |T|={len(self)}, |E|={self.edge_count()})"


def _raise_first_bad_weight(
    ids: Sequence[TaskId], c: Sequence[float], v: Optional[Sequence[float]]
) -> None:
    """Raise :class:`Task`'s error for the first bad weight, in task order (if any)."""
    for i, tid in enumerate(ids):
        if c[i] <= 0:
            raise DagError(f"task {tid!r}: complexity must be > 0, got {c[i]}")
        if v is not None and v[i] < 0:
            raise DagError(f"task {tid!r}: data_volume must be >= 0, got {v[i]}")


def _raise_duplicate_task(ids: List[TaskId]) -> None:
    seen = set()
    for tid in ids:
        if tid in seen:
            raise DagError(f"duplicate task id {tid!r}")
        seen.add(tid)


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
