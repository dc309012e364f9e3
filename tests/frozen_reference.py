"""Frozen reference oracles: pre-rewrite code the live kernels must match.

Verbatim copies of

* ``repro.simnet.topology.random_geometric`` and
  ``repro.routing.vectorized.phased_tables`` (with its two helpers and the
  dense ``SharedTables`` it returned) as they stood before the pair scan
  and the dense temporaries were removed
  (``tests/simnet/test_standup_differential.py`` and
  ``tests/routing/test_row_tables_differential.py`` compare against them);
* ``repro.sched.executor`` and ``repro.core.hosting.HostSide`` as they stood
  before host-side state got a lifetime (PR 23;
  ``tests/sched/test_executor_differential.py``);
* ``repro.graphs.dag.Dag``, the job generators the workload mixes draw from
  (``repro.graphs.generators``, ``repro.graphs.workflows``), the mixed DAG
  factory and the trace factories with their ``_retyped`` / ``_shape``
  helpers as they stood before fixed-shape families reused one validated
  structure per shape (``tests/graphs/test_generation_differential.py``).

They are the versions the rewritten code must reproduce bit for bit.
Do not optimise or "fix" this file.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from repro.errors import (
    CycleError,
    DagError,
    RoutingError,
    SchedulingError,
    TopologyError,
    WorkloadError,
)
from repro.graphs.dag import Task
from repro.routing.vectorized import NO_ROUTE
from repro.sched.intervals import Reservation
from repro.sched.plan import SchedulingPlan
from repro.simnet.engine import Simulator
from repro.simnet.message import Message
from repro.simnet.topology import Topology
from repro.types import EPS, JobId, SiteId, TaskId, Time


def random_geometric_reference(
    n: int,
    radius: float,
    rng: Optional[np.random.Generator] = None,
    delay_scale: float = 10.0,
) -> Topology:
    """``random_geometric`` as of PR 20: dense ``(n, n)`` distances and a
    Python scan of every site pair per connectivity repair."""
    if n < 2:
        raise TopologyError("random_geometric needs n >= 2")
    if radius <= 0:
        raise TopologyError("radius must be > 0")
    rng = rng or np.random.default_rng(0)
    pts = rng.random((n, 2))
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt((diff**2).sum(axis=2))
    iu, ju = np.triu_indices(n, k=1)
    mask = dist[iu, ju] <= radius
    edges = {(int(a), int(b)): float(dist[a, b]) for a, b in zip(iu[mask], ju[mask])}

    # Component repair: greedily connect closest cross-component pair.
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        parent[find(a)] = find(b)
    while True:
        roots = {find(i) for i in range(n)}
        if len(roots) == 1:
            break
        best = None
        for a, b in zip(iu, ju):
            if find(int(a)) != find(int(b)):
                d = float(dist[a, b])
                if best is None or d < best[0]:
                    best = (d, int(a), int(b))
        assert best is not None
        d, a, b = best
        edges[(min(a, b), max(a, b))] = d
        parent[find(a)] = find(b)

    topo_edges = tuple(
        (u, v, delay_scale * d) for (u, v), d in sorted(edges.items())
    )
    topo = Topology(n, topo_edges, f"geo-{n}-r{radius}")
    if not topo.is_connected():
        raise TopologyError("random_geometric repair failed (internal error)")
    return topo


@dataclass(frozen=True)
class SharedTablesReference:
    """All-site routing tables as four dense ``n x n`` arrays."""

    n: int
    phases: int
    dist: np.ndarray
    next_hop: np.ndarray
    hops: np.ndarray
    disc: np.ndarray


def _neighbor_lists(W: np.ndarray) -> List[np.ndarray]:
    """``lists[u]`` = row indices of the sites adjacent to ``u``."""
    finite = np.isfinite(W)
    return [np.flatnonzero(finite[:, u]) for u in range(W.shape[0])]


def _phase1_state(W: np.ndarray):
    """Phase-1 knowledge matrices: self plus adjacent links."""
    n = W.shape[0]
    ids = np.arange(n)
    finite = np.isfinite(W)
    dist = W.copy()
    np.fill_diagonal(dist, 0.0)
    next_hop = np.where(finite, ids[None, :], NO_ROUTE).astype(np.int64)
    np.fill_diagonal(next_hop, ids)
    hops = np.where(finite, 1, NO_ROUTE).astype(np.int64)
    np.fill_diagonal(hops, 0)
    disc = np.where(finite, 1, NO_ROUTE).astype(np.int64)
    np.fill_diagonal(disc, 0)
    return dist, next_hop, hops, disc


def phased_tables_reference(W: np.ndarray, total_phases: int) -> SharedTablesReference:
    """``phased_tables`` as of PR 20: int64 tables, two whole-matrix copies
    per phase, phase-1 state from ``np.where`` passes over ``W``."""
    if total_phases < 1:
        raise RoutingError(f"total_phases must be >= 1, got {total_phases}")
    n = W.shape[0]
    dist, next_hop, hops, disc = _phase1_state(W)
    neighbors_of = _neighbor_lists(W)
    link_col = [W[neighbors_of[u], u][:, None] for u in range(n)]
    for phase in range(2, total_phases + 1):
        dist_prev = dist.copy()
        hops_prev = hops.copy()
        changed = False
        for u in range(n):
            rows = neighbors_of[u]
            if rows.size == 0:
                continue
            # u's knowledge after the previous phase = the delta+history
            # the protocol has sent; only these columns can carry offers
            cols_u = np.flatnonzero(np.isfinite(dist_prev[u]))
            # candidate delay accumulates exactly like the protocol: my
            # link delay to u, plus u's previous-phase accumulated delay
            cand = link_col[u] + dist_prev[u, cols_u][None, :]
            ix = (rows[:, None], cols_u[None, :])
            cur = dist[ix]
            repl = (cand < cur - EPS) | ((np.abs(cand - cur) <= EPS) & (u < next_hop[ix]))
            # a site never replaces its own self-entry
            repl &= rows[:, None] != cols_u[None, :]
            if not repl.any():
                continue
            changed = True
            rr, cc = np.nonzero(repl)
            ri = rows[rr]
            cj = cols_u[cc]
            dist[ri, cj] = cand[rr, cc]
            next_hop[ri, cj] = u
            hops[ri, cj] = hops_prev[u, cj] + 1
            fresh = disc[ri, cj] < 0
            disc[ri[fresh], cj[fresh]] = phase
        if not changed:
            # Fixpoint: remaining phases are no-ops (the protocol would
            # keep exchanging empty deltas; the tables cannot change).
            break
    return SharedTablesReference(
        n=n, phases=total_phases, dist=dist, next_hop=next_hop, hops=hops, disc=disc
    )


# -- host-side state (PR 23) ---------------------------------------------------
#
# ``repro.sched.executor`` (``ExecutionRecord`` + ``PlanExecutor``) and
# ``repro.core.hosting.HostSide`` exactly as they stood before host-side
# state got a lifetime: per-wake candidate list + sort, a gate set / tiebreak
# string / early token kept per finished task, a successor map over the whole
# job per hosting site. Only the class names carry a ``Reference`` suffix.
# ``tests/sched/test_executor_differential.py`` drives these and the live
# classes with one random schedule.

Key = Tuple[JobId, TaskId]
Token = Tuple[str, JobId, TaskId]
CompletionCallback = Callable[[JobId, TaskId, Time], None]


@dataclass
class ExecutionRecordReference:
    """Reserved vs actual execution of one task (possibly chunked)."""

    chunks: List[Reservation]
    #: (actual_start, actual_end) per executed chunk, in execution order
    actual: List[Tuple[Time, Time]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.chunks:
            raise SchedulingError("execution record needs at least one chunk")
        self.chunks = sorted(self.chunks, key=lambda r: r.start)

    @property
    def done(self) -> bool:
        return len(self.actual) == len(self.chunks)

    @property
    def started(self) -> bool:
        return bool(self.actual)

    @property
    def next_chunk(self) -> Reservation:
        return self.chunks[len(self.actual)]

    @property
    def actual_start(self) -> Optional[Time]:
        return self.actual[0][0] if self.actual else None

    @property
    def actual_end(self) -> Optional[Time]:
        if not self.done:
            return None
        return self.actual[-1][1]

    @property
    def reservation(self) -> Reservation:
        """The first (for single-chunk tasks: the only) reservation."""
        return self.chunks[0]

    @property
    def lateness(self) -> Time:
        """actual end - reserved end of the final chunk (positive = slipped)."""
        if not self.done:
            raise SchedulingError("task not finished yet")
        return self.actual[-1][1] - self.chunks[-1].end


class PlanExecutorReference:
    """Executes one site's plan on the simulator.

    Parameters
    ----------
    sim:
        The event loop.
    plan:
        The site's plan; the executor learns about newly committed
        reservations via :meth:`notify_committed`.
    """

    def __init__(self, sim: Simulator, plan: SchedulingPlan) -> None:
        self.sim = sim
        self.plan = plan
        self.on_complete: List[CompletionCallback] = []
        self._records: Dict[Key, ExecutionRecordReference] = {}
        #: the not-yet-done subset of ``_records`` — the only records the
        #: wake-up scan looks at, so a long run's pile of finished records
        #: costs nothing per wake
        self._unfinished: Dict[Key, ExecutionRecordReference] = {}
        #: key -> cached ``repr(key)`` sort tiebreak (stable per record)
        self._tiebreak: Dict[Key, str] = {}
        #: key -> outstanding prerequisite tokens (first chunk only)
        self._gates: Dict[Key, Set[Token]] = {}
        #: token -> keys whose gate still awaits it (reverse index so
        #: delivery doesn't scan every gate on the site)
        self._token_waiters: Dict[Token, Set[Key]] = {}
        #: tokens delivered before their gate was registered
        self._early_tokens: Set[Token] = set()
        self._running: Optional[Key] = None
        self._timer_version = 0

    # -- commit-time API (called by protocol layers) -------------------------

    def notify_committed(
        self,
        reservations: List[Reservation],
        gates: Optional[Dict[Key, Set[Token]]] = None,
    ) -> None:
        """Register freshly committed reservations and their gates.

        Reservations sharing a (job, task) key are the chunks of one
        preemptively-split task. ``gates[key]`` is the token set that must
        arrive before the task may start; missing keys mean "no
        prerequisites". Tokens that already arrived (early results) are
        discounted immediately.
        """
        by_key: Dict[Key, List[Reservation]] = {}
        for r in reservations:
            by_key.setdefault(r.key(), []).append(r)
        for key, chunks in by_key.items():
            if key in self._records:
                raise SchedulingError(
                    f"site {self.plan.site}: duplicate execution record {key}"
                )
            rec = ExecutionRecordReference(chunks)
            self._records[key] = rec
            self._unfinished[key] = rec
            self._tiebreak[key] = repr(key)
            pending = set(gates.get(key, ())) if gates else set()
            pending -= self._early_tokens
            self._gates[key] = pending
            for token in pending:
                self._token_waiters.setdefault(token, set()).add(key)
        self._wake()

    def deliver_token(self, token: Token) -> None:
        """Deliver a prerequisite token (e.g. a remote result arrived)."""
        hit = False
        waiters = self._token_waiters.pop(token, None)
        if waiters:
            for key in waiters:
                pending = self._gates.get(key)
                if pending is not None and token in pending:
                    pending.discard(token)
                    hit = True
        if not hit:
            # Remember for gates registered later (message raced the commit).
            self._early_tokens.add(token)
        self._wake()

    # -- queries ---------------------------------------------------------------

    def record(self, job: JobId, task: TaskId) -> ExecutionRecordReference:
        try:
            return self._records[(job, task)]
        except KeyError:
            raise SchedulingError(
                f"site {self.plan.site}: no execution record for job {job} task {task!r}"
            ) from None

    def records(self) -> Dict[Key, ExecutionRecordReference]:
        return dict(self._records)

    def busy(self) -> bool:
        return self._running is not None

    def n_unfinished(self) -> int:
        """Committed-but-unfinished records — the soak leak audit's probe.

        After a full drain (every accepted job past its deadline plus
        margin) this must read 0 on every site; a nonzero value means a
        committed reservation never executed, i.e. leaked plan state.
        """
        return len(self._unfinished)

    # -- engine ------------------------------------------------------------------

    def _candidates(self) -> List[Tuple[Time, str, Key]]:
        """(next chunk start, tiebreak, key) of unfinished tasks, slot order."""
        tiebreak = self._tiebreak
        out = [
            (rec.chunks[len(rec.actual)].start, tiebreak[k], k)
            for k, rec in self._unfinished.items()
        ]
        out.sort()
        return out

    def _gate_open(self, key: Key) -> bool:
        # Gates guard only the first chunk: once a task started, its inputs
        # were available.
        if self._records[key].started:
            return True
        return not self._gates.get(key)

    def _wake(self) -> None:
        if self._running is not None:
            return
        if not self._unfinished:
            return
        now = self.sim.now
        if len(self._unfinished) == 1:
            # Single-task fast path (the common state on lightly loaded
            # sites): no candidate list, no tiebreak lookups, no sort.
            # Identical decisions — with one candidate, slot order and
            # "earliest ready fallback" collapse to the same check.
            (k, rec), = self._unfinished.items()
            start = rec.chunks[len(rec.actual)].start
            if start <= now + EPS:
                if self._gate_open(k):
                    self._start(k)
                return
            self._timer_version += 1
            self.sim.schedule_call_at(start, self._on_timer, self._timer_version)
            return
        cands = self._candidates()
        # Prefer slot order; fall back to earliest ready whose start passed.
        runnable: Optional[Key] = None
        head_start, _, head = cands[0]
        if head_start <= now + EPS and self._gate_open(head):
            runnable = head
        else:
            for start, _, k in cands[1:]:
                if start <= now + EPS and self._gate_open(k):
                    runnable = k
                    break
        if runnable is not None:
            self._start(runnable)
            return
        # Nothing ready now: arm a timer for the next slot start in the
        # future (gate deliveries re-wake us independently).
        future_starts = [start for start, _, _ in cands if start > now + EPS]
        if future_starts:
            self._timer_version += 1
            self.sim.schedule_call_at(min(future_starts), self._on_timer, self._timer_version)

    def _on_timer(self, version: int) -> None:
        if version == self._timer_version and self._running is None:
            self._wake()

    def _start(self, key: Key) -> None:
        rec = self._records[key]
        chunk = rec.next_chunk
        start = self.sim.now
        self._running = key
        # closure-free: the (key, started_at) pair rides as the callback arg
        self.sim.schedule_call(chunk.duration, self._finish_call, (key, start))

    def _finish_call(self, key_start: Tuple[Key, Time]) -> None:
        self._finish(key_start[0], key_start[1])

    def _finish(self, key: Key, started_at: Time) -> None:
        rec = self._records[key]
        rec.actual.append((started_at, self.sim.now))
        self._running = None
        if rec.done:
            del self._unfinished[key]
            job, task = key
            # Completion of a local task satisfies local "done" gates.
            self.deliver_token(("done", job, task))
            for cb in self.on_complete:
                cb(job, task, self.sim.now)
        self._wake()

    # -- maintenance ----------------------------------------------------------

    def reap_abandoned(self, before: Time) -> int:
        """Drop never-started records whose gate still blocks although
        their last reserved slot ended at or before ``before``.

        Under fault plans a prerequisite's result message can be lost for
        good (retries exhausted, site down past the retry budget); the
        gated record then never opens and would otherwise sit in
        ``_unfinished`` for the lifetime of the service — leaked plan
        state and leaked memory. Only gate-*blocked*, never-started
        records qualify: an open-gated record whose slot passed is merely
        queued behind the work-conserving processor and will still run.
        """
        dead = [
            k
            for k, rec in self._unfinished.items()
            if not rec.started
            and self._gates.get(k)
            and rec.chunks[-1].end <= before
            and k != self._running
        ]
        dead_jobs = {k[0] for k in dead}
        dead_set = set(dead)
        for k in dead:
            del self._unfinished[k]
            del self._records[k]
            self._gates.pop(k, None)
            self._tiebreak.pop(k, None)
        self._early_tokens = {
            t for t in self._early_tokens if t[1] not in dead_jobs
        }
        for token in list(self._token_waiters):
            keys = self._token_waiters[token]
            keys -= dead_set
            if not keys:
                del self._token_waiters[token]
        return len(dead)

    def prune_done_before(self, time: Time) -> int:
        """Forget finished records (and their tokens) older than ``time``."""
        old = [
            k
            for k, rec in self._records.items()
            if rec.done and rec.actual_end is not None and rec.actual_end <= time
        ]
        pruned_jobs = {k[0] for k in old}
        old_set = set(old)
        for k in old:
            del self._records[k]
            self._gates.pop(k, None)
            self._tiebreak.pop(k, None)
        # Tokens belonging to pruned jobs can no longer gate anything:
        # all of a job's gates are registered atomically at commit time.
        self._early_tokens = {
            t for t in self._early_tokens if t[1] not in pruned_jobs
        }
        for token in list(self._token_waiters):
            keys = self._token_waiters[token]
            keys -= old_set
            if not keys:
                del self._token_waiters[token]
        return len(old)


class HostSideReference:
    """The §11 host side of one site (which owns ``plan`` and ``executor``)."""

    def __init__(self, site, result_mtype: str, result_forwarding: bool = True) -> None:
        self.site = site
        self.result_mtype = result_mtype
        self.result_forwarding = result_forwarding
        #: job -> (host, succs, volumes) for RESULT forwarding
        self.exec_info: Dict[JobId, Tuple[Dict, Dict, Dict]] = {}
        site.executor.on_complete.append(self._on_task_complete)
        site.on(result_mtype, self._h_result)

    def commit(
        self,
        job: JobId,
        slots: List[Reservation],
        host: Dict[TaskId, SiteId],
        preds: Dict[TaskId, List[TaskId]],
        volumes: Dict[TaskId, float],
    ) -> None:
        """Commit this site's ``slots`` of ``job``, gated on its predecessors."""
        site = self.site
        gates: Dict[Tuple[JobId, TaskId], Set[Tuple[str, JobId, TaskId]]] = {}
        for t in {r.task for r in slots}:
            deps = set()
            for p in preds[t]:
                if host[p] == site.sid:
                    deps.add(("done", job, p))
                elif self.result_forwarding:
                    deps.add(("result", job, p))
            if deps:
                gates[(job, t)] = deps
        site.plan.commit(slots)
        site.executor.notify_committed(slots, gates)
        # Remember topology of the job for result forwarding.
        succs: Dict[TaskId, List[TaskId]] = {t: [] for t in host}
        for t, ps in preds.items():
            for p in ps:
                succs[p].append(t)
        self.exec_info[job] = (host, succs, volumes)

    def _h_result(self, msg: Message) -> None:
        self.site.executor.deliver_token(("result", msg.payload["job"], msg.payload["task"]))

    def _on_task_complete(self, job: JobId, task: TaskId, time: Time) -> None:
        info = self.exec_info.get(job)
        if info is None or not self.result_forwarding:
            return
        host, succs, volumes = info
        site = self.site
        notified: Set[SiteId] = set()
        for succ in succs.get(task, ()):
            dest = host[succ]
            if dest != site.sid and dest not in notified:
                notified.add(dest)
                site.send_to(
                    dest,
                    self.result_mtype,
                    {"job": job, "task": task},
                    size=max(1.0, volumes.get(task, 0.0)),
                )

    def prune(self, live_jobs: Set[JobId]) -> None:
        """Forget forwarding info of jobs with no local task left."""
        for job in list(self.exec_info):
            if job not in live_jobs:
                del self.exec_info[job]


# -- job generation ------------------------------------------------------------
#
# ``repro.graphs.dag.Dag`` (constructor, ``with_tasks`` and the accessors the
# differential reads), the generators behind ``mixed_dag_factory`` and the
# workflow traces, and ``repro.workloads.traces`` exactly as they stood before
# fixed-shape families reused one validated structure per shape. Every
# generator builds a ``DagReference``; ``_retyped`` samples with the
# ``RuntimeModel.sample`` body of the time.


class DagReference:
    """Immutable job precedence graph ``G = (T, E)``."""

    __slots__ = ("_tasks", "_preds", "_succs", "_edges", "_order", "name", "_bl", "_topo_index")

    def __init__(
        self,
        tasks: Iterable[Task],
        edges: Iterable[Tuple[TaskId, TaskId]] = (),
        name: str = "dag",
    ) -> None:
        task_map: Dict[TaskId, Task] = {}
        for t in tasks:
            if t.tid in task_map:
                raise DagError(f"duplicate task id {t.tid!r}")
            task_map[t.tid] = t
        if not task_map:
            raise DagError("a DAG needs at least one task")

        preds: Dict[TaskId, list] = {tid: [] for tid in task_map}
        succs: Dict[TaskId, list] = {tid: [] for tid in task_map}
        edge_set = set()
        for u, v in edges:
            if u not in task_map:
                raise DagError(f"edge ({u!r}, {v!r}): unknown predecessor {u!r}")
            if v not in task_map:
                raise DagError(f"edge ({u!r}, {v!r}): unknown successor {v!r}")
            if u == v:
                raise CycleError(f"self-loop on task {u!r}")
            if (u, v) in edge_set:
                raise DagError(f"duplicate edge ({u!r}, {v!r})")
            edge_set.add((u, v))
            succs[u].append(v)
            preds[v].append(u)

        self.name = name
        self._tasks: Dict[TaskId, Task] = task_map
        self._preds: Dict[TaskId, Tuple[TaskId, ...]] = {k: tuple(v) for k, v in preds.items()}
        self._succs: Dict[TaskId, Tuple[TaskId, ...]] = {k: tuple(v) for k, v in succs.items()}
        self._edges: Tuple[Tuple[TaskId, TaskId], ...] = tuple(sorted(edge_set, key=repr))
        self._order: Tuple[TaskId, ...] = self._toposort()
        self._bl: Optional[Dict[TaskId, float]] = None
        self._topo_index: Optional[Dict[TaskId, int]] = None

    def with_tasks(self, tasks: Iterable[Task]) -> "DagReference":
        tasks = list(tasks)
        if [t.tid for t in tasks] != list(self._tasks):
            raise DagError(f"{self.name}: with_tasks needs the same task ids in the same order")
        new = object.__new__(DagReference)
        new.name = self.name
        new._tasks = {t.tid: t for t in tasks}
        new._preds, new._succs = self._preds, self._succs
        new._edges, new._order = self._edges, self._order
        new._bl = None
        new._topo_index = self.topo_index()
        return new

    def __len__(self) -> int:
        return len(self._tasks)

    def __iter__(self) -> Iterator[TaskId]:
        return iter(self._order)

    def task(self, tid: TaskId) -> Task:
        try:
            return self._tasks[tid]
        except KeyError:
            raise DagError(f"unknown task id {tid!r}") from None

    @property
    def tasks(self) -> Mapping[TaskId, Task]:
        return self._tasks

    @property
    def edges(self) -> Tuple[Tuple[TaskId, TaskId], ...]:
        return self._edges

    def predecessors(self, tid: TaskId) -> Tuple[TaskId, ...]:
        return self._preds[tid]

    def successors(self, tid: TaskId) -> Tuple[TaskId, ...]:
        return self._succs[tid]

    def topological_order(self) -> Tuple[TaskId, ...]:
        return self._order

    def topo_index(self) -> Dict[TaskId, int]:
        idx = self._topo_index
        if idx is None:
            idx = {t: i for i, t in enumerate(self._order)}
            self._topo_index = idx
        return idx

    def total_complexity(self) -> float:
        return sum(t.complexity for t in self._tasks.values())

    def _toposort(self) -> Tuple[TaskId, ...]:
        indeg = {tid: len(p) for tid, p in self._preds.items()}
        # Insertion order of the task map makes the sort deterministic.
        ready = [tid for tid in self._tasks if indeg[tid] == 0]
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
        if len(order) != len(self._tasks):
            stuck = sorted((tid for tid, d in indeg.items() if d > 0), key=repr)
            raise CycleError(f"precedence relation has a cycle through {stuck}")
        return tuple(order)


def _complexities_reference(
    rng: np.random.Generator, n: int, c_range: Tuple[float, float]
) -> np.ndarray:
    lo, hi = c_range
    if lo <= 0 or hi < lo:
        raise DagError(f"invalid complexity range {c_range}")
    # Uniform draw, vectorised; values are strictly positive because lo > 0.
    return rng.uniform(lo, hi, size=n)


def _tasks_reference(cs: Sequence[float], data_volume: float = 0.0) -> list:
    return [Task(i, float(c), data_volume) for i, c in enumerate(cs)]


def linear_chain_dag_reference(
    n: int,
    rng: Optional[np.random.Generator] = None,
    c_range: Tuple[float, float] = (1.0, 10.0),
) -> DagReference:
    if n < 1:
        raise DagError("chain needs n >= 1")
    rng = rng or np.random.default_rng(0)
    cs = _complexities_reference(rng, n, c_range)
    edges = [(i, i + 1) for i in range(n - 1)]
    return DagReference(_tasks_reference(cs), edges, name=f"chain-{n}")


def fork_join_dag_reference(
    width: int,
    rng: Optional[np.random.Generator] = None,
    c_range: Tuple[float, float] = (1.0, 10.0),
) -> DagReference:
    if width < 1:
        raise DagError("fork-join needs width >= 1")
    rng = rng or np.random.default_rng(0)
    n = width + 2
    cs = _complexities_reference(rng, n, c_range)
    edges = [(0, i) for i in range(1, width + 1)]
    edges += [(i, width + 1) for i in range(1, width + 1)]
    return DagReference(_tasks_reference(cs), edges, name=f"forkjoin-{width}")


def gaussian_elimination_dag_reference(
    size: int,
    rng: Optional[np.random.Generator] = None,
    c_range: Tuple[float, float] = (1.0, 10.0),
) -> DagReference:
    if size < 2:
        raise DagError("gaussian elimination needs size >= 2")
    rng = rng or np.random.default_rng(0)
    ids = {}
    nid = 0
    for k in range(size - 1):
        ids[("P", k)] = nid
        nid += 1
        for j in range(k + 1, size):
            ids[("U", k, j)] = nid
            nid += 1
    cs = _complexities_reference(rng, nid, c_range)
    edges = []
    for k in range(size - 1):
        for j in range(k + 1, size):
            edges.append((ids[("P", k)], ids[("U", k, j)]))
            if k + 1 < size - 1:
                if j == k + 1:
                    edges.append((ids[("U", k, j)], ids[("P", k + 1)]))
                else:
                    edges.append((ids[("U", k, j)], ids[("U", k + 1, j)]))
    return DagReference(_tasks_reference(cs), edges, name=f"gauss-{size}")


def layered_dag_reference(
    layers: int,
    width: int,
    rng: Optional[np.random.Generator] = None,
    c_range: Tuple[float, float] = (1.0, 10.0),
    p_edge: float = 0.5,
    jitter: bool = True,
) -> DagReference:
    if layers < 1 or width < 1:
        raise DagError("layered DAG needs layers >= 1 and width >= 1")
    if not 0.0 <= p_edge <= 1.0:
        raise DagError(f"p_edge must be in [0,1], got {p_edge}")
    rng = rng or np.random.default_rng(0)
    layer_sizes = []
    for _ in range(layers):
        if jitter and width > 1:
            layer_sizes.append(int(rng.integers(max(1, width // 2), width + width // 2 + 1)))
        else:
            layer_sizes.append(width)
    ids_per_layer = []
    nid = 0
    for sz in layer_sizes:
        ids_per_layer.append(list(range(nid, nid + sz)))
        nid += sz
    cs = _complexities_reference(rng, nid, c_range)
    edges = []
    for li in range(1, layers):
        prev, cur = ids_per_layer[li - 1], ids_per_layer[li]
        for v in cur:
            # Guaranteed predecessor keeps the graph layered-connected.
            u = prev[int(rng.integers(len(prev)))]
            edges.append((u, v))
            for u2 in prev:
                if u2 != u and rng.random() < p_edge:
                    edges.append((u2, v))
    return DagReference(_tasks_reference(cs), edges, name=f"layered-{layers}x{width}")


def random_dag_reference(
    n: int,
    rng: Optional[np.random.Generator] = None,
    c_range: Tuple[float, float] = (1.0, 10.0),
    p_edge: float = 0.15,
) -> DagReference:
    if n < 1:
        raise DagError("random DAG needs n >= 1")
    if not 0.0 <= p_edge <= 1.0:
        raise DagError(f"p_edge must be in [0,1], got {p_edge}")
    rng = rng or np.random.default_rng(0)
    cs = _complexities_reference(rng, n, c_range)
    # Vectorised coin flips for the upper triangle.
    edges = []
    if n > 1:
        coins = rng.random((n, n))
        iu, ju = np.triu_indices(n, k=1)
        mask = coins[iu, ju] < p_edge
        edges = list(zip(iu[mask].tolist(), ju[mask].tolist()))
    return DagReference(_tasks_reference(cs), edges, name=f"er-{n}-p{p_edge}")


def mixed_dag_factory_reference(
    size: str = "small",
    c_range: Tuple[float, float] = (1.0, 8.0),
):
    if size not in ("small", "medium", "large"):
        raise WorkloadError(f"unknown size {size!r}")

    def factory(rng: np.random.Generator) -> DagReference:
        kind = rng.integers(5)
        if size == "small":
            layers, width, n = int(rng.integers(2, 4)), int(rng.integers(2, 4)), int(rng.integers(5, 14))
            ge = 3
        elif size == "medium":
            layers, width, n = int(rng.integers(3, 6)), int(rng.integers(3, 6)), int(rng.integers(15, 40))
            ge = 5
        else:
            layers, width, n = int(rng.integers(5, 9)), int(rng.integers(5, 9)), int(rng.integers(40, 90))
            ge = 8
        if kind == 0:
            return layered_dag_reference(layers, width, rng, c_range, p_edge=0.35)
        if kind == 1:
            return fork_join_dag_reference(max(2, n // 3), rng, c_range)
        if kind == 2:
            return linear_chain_dag_reference(max(2, n // 2), rng, c_range)
        if kind == 3:
            return random_dag_reference(n, rng, c_range, p_edge=0.2)
        return gaussian_elimination_dag_reference(ge, rng, c_range)

    return factory


def _draw_reference(rng: np.random.Generator, n: int, c_range: Tuple[float, float]) -> np.ndarray:
    lo, hi = c_range
    if lo <= 0 or hi < lo:
        raise DagError(f"invalid complexity range {c_range}")
    return rng.uniform(lo, hi, size=n)


def montage_dag_reference(
    tiles: int,
    rng: Optional[np.random.Generator] = None,
    c_range: Tuple[float, float] = (1.0, 8.0),
) -> DagReference:
    if tiles < 2:
        raise DagError("montage needs tiles >= 2")
    rng = rng or np.random.default_rng(0)
    n_diff = tiles if tiles > 2 else 1
    n = tiles + n_diff + 1 + tiles + 1
    cs = _draw_reference(rng, n, c_range)
    tasks = [Task(i, float(c)) for i, c in enumerate(cs)]
    proj = list(range(tiles))
    diff = list(range(tiles, tiles + n_diff))
    bgmodel = tiles + n_diff
    bgcorr = list(range(bgmodel + 1, bgmodel + 1 + tiles))
    coadd = n - 1
    edges = []
    for k in range(n_diff):
        a, b = proj[k], proj[(k + 1) % tiles]
        edges.append((a, diff[k]))
        if b != a:
            edges.append((b, diff[k]))
    edges += [(d, bgmodel) for d in diff]
    for i in range(tiles):
        edges.append((proj[i], bgcorr[i]))
        edges.append((bgmodel, bgcorr[i]))
    edges += [(c, coadd) for c in bgcorr]
    return DagReference(tasks, edges, name=f"montage-{tiles}")


def epigenomics_dag_reference(
    lanes: int,
    stages: int = 4,
    rng: Optional[np.random.Generator] = None,
    c_range: Tuple[float, float] = (1.0, 8.0),
) -> DagReference:
    if lanes < 1 or stages < 1:
        raise DagError("epigenomics needs lanes >= 1 and stages >= 1")
    rng = rng or np.random.default_rng(0)
    n = 1 + lanes * stages + 2
    cs = _draw_reference(rng, n, c_range)
    tasks = [Task(i, float(c)) for i, c in enumerate(cs)]
    split, merge, final = 0, n - 2, n - 1
    edges = []
    for lane in range(lanes):
        first = 1 + lane * stages
        edges.append((split, first))
        for s in range(stages - 1):
            edges.append((first + s, first + s + 1))
        edges.append((first + stages - 1, merge))
    edges.append((merge, final))
    return DagReference(tasks, edges, name=f"epigenomics-{lanes}x{stages}")


_MIN_RUNTIME_REFERENCE = 0.05


def _sample_reference(model, rng: np.random.Generator, size: int) -> np.ndarray:
    """``RuntimeModel.sample`` (``model`` carries ``mean`` and ``cv``)."""
    sigma2 = float(np.log1p(model.cv * model.cv))
    mu = float(np.log(model.mean)) - sigma2 / 2.0
    draws = rng.lognormal(mean=mu, sigma=float(np.sqrt(sigma2)), size=size)
    return np.maximum(draws, _MIN_RUNTIME_REFERENCE)


def _montage_task_types_reference(tiles: int) -> List[str]:
    n_diff = tiles if tiles > 2 else 1
    return (
        ["project"] * tiles
        + ["diff"] * n_diff
        + ["bgmodel"]
        + ["bgcorrect"] * tiles
        + ["coadd"]
    )


def _epigenomics_task_types_reference(lanes: int, stages: Sequence[str]) -> List[str]:
    return ["split"] + list(stages) * lanes + ["merge", "final"]


def _retyped_reference(dag: DagReference, types: List[str], runtimes, rng) -> DagReference:
    """Rebuild ``dag`` with per-type empirical runtimes (same structure)."""
    order = sorted(dag, key=lambda t: t)
    if len(order) != len(types):
        raise WorkloadError(
            f"trace layout mismatch for {dag.name}: {len(order)} tasks, {len(types)} types"
        )
    # One vectorized draw per type keeps the RNG stream compact and stable.
    by_type: Dict[str, List[int]] = {}
    for tid, ttype in zip(order, types):
        by_type.setdefault(ttype, []).append(tid)
    runtime: Dict[int, float] = {}
    for ttype in sorted(by_type):
        tids = by_type[ttype]
        draws = _sample_reference(runtimes[ttype], rng, len(tids))
        for tid, c in zip(tids, draws):
            runtime[tid] = float(c)
    tasks = [Task(t, runtime[t], dag.task(t).data_volume) for t in order]
    return _shape_reference(dag.name, tuple(order), dag.edges).with_tasks(tasks)


@lru_cache(maxsize=64)
def _shape_reference(
    name: str, order: Tuple[int, ...], edges: Tuple[Tuple[int, int], ...]
) -> DagReference:
    return DagReference([Task(t, 1.0) for t in order], edges, name=name)


def montage_trace_dag_reference(
    rng: np.random.Generator, tiles: Tuple[int, int] = (4, 10)
) -> DagReference:
    from repro.workloads.traces import MONTAGE_RUNTIMES

    t = int(rng.integers(tiles[0], tiles[1] + 1))
    dag = montage_dag_reference(t, rng)
    return _retyped_reference(dag, _montage_task_types_reference(t), MONTAGE_RUNTIMES, rng)


def epigenomics_trace_dag_reference(
    rng: np.random.Generator, lanes: Tuple[int, int] = (3, 8)
) -> DagReference:
    from repro.workloads.traces import EPIGENOMICS_RUNTIMES, EPIGENOMICS_STAGES

    n_lanes = int(rng.integers(lanes[0], lanes[1] + 1))
    dag = epigenomics_dag_reference(n_lanes, stages=len(EPIGENOMICS_STAGES), rng=rng)
    types = _epigenomics_task_types_reference(n_lanes, EPIGENOMICS_STAGES)
    return _retyped_reference(dag, types, EPIGENOMICS_RUNTIMES, rng)


def grid_mix_reference(rng: np.random.Generator) -> DagReference:
    if int(rng.integers(2)) == 0:
        return montage_trace_dag_reference(rng)
    return epigenomics_trace_dag_reference(rng)


TRACES_REFERENCE = {
    "montage": montage_trace_dag_reference,
    "epigenomics": epigenomics_trace_dag_reference,
    "grid-mix": grid_mix_reference,
}
