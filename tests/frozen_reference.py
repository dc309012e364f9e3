"""Frozen reference oracles: pre-rewrite code the live kernels must match.

Verbatim copies of

* ``repro.simnet.topology.random_geometric`` and
  ``repro.routing.vectorized.phased_tables`` (with its two helpers) as they
  stood before the pair scan and the dense temporaries were removed (PR 22;
  ``tests/simnet/test_standup_differential.py`` compares against them);
* ``repro.sched.executor`` and ``repro.core.hosting.HostSide`` as they stood
  before host-side state got a lifetime (PR 23;
  ``tests/sched/test_executor_differential.py``).

They are the versions the rewritten code must reproduce bit for bit.
Do not optimise or "fix" this file.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.errors import RoutingError, SchedulingError, TopologyError
from repro.routing.vectorized import NO_ROUTE, SharedTables
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


def phased_tables_reference(W: np.ndarray, total_phases: int) -> SharedTables:
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
    return SharedTables(
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
