"""The compute processor: executes committed reservations.

The paper separates each site's *management* processor (protocol) from its
*compute* processor (task execution). This module is the compute processor:
an event-driven executor that follows the site's scheduling plan.

Execution model
---------------
* A task owns one or more reservation *chunks* (one in the non-preemptive
  scheduler; several when the §13 preemptive scheduler split it across idle
  windows). Chunks of one task execute in start order; the task completes
  at the end of its last chunk.
* Chunks are preferred in slot (start-time) order. A chunk may begin only
  when (a) the processor is free, (b) its slot start has been reached, and
  (c) — for the task's *first* chunk — the task's *gate* is open: every
  prerequisite token has been delivered.
* Tokens model data availability: ``("done", job, task)`` for completion of
  a local predecessor and ``("result", job, task)`` for the arrival of a
  remote predecessor's result message. The protocol layer registers gates at
  commit time and delivers result tokens on message arrival.
* If the slot-order head is not ready, the executor is **work-conserving**:
  it runs the earliest *ready* chunk whose slot start has passed instead of
  idling. Combined with jobs being mutually independent DAGs this rules out
  cross-site execution deadlocks.
* A chunk runs non-preemptively for exactly its reserved duration. Actual
  start/end are recorded next to the reserved ones; ``lateness > 0`` means
  the ACS-diameter over-estimate was too optimistic for this instance.
* A finished task is reported once, through the completion callbacks, with
  this site and its actual chunk spans:
  :meth:`repro.metrics.collector.MetricsCollector.on_task_complete` keeps
  the run's one per-task execution history, which the post-run audit
  (:mod:`repro.experiments.verify`) reads. The executor itself remembers
  finished work for one surplus window only.

State and its lifetime
----------------------
Everything the executor holds lives only as long as the commitment it
serves, except a finished task's few facts:

* an :class:`ExecutionRecord` per **unfinished** task (``_unfinished``),
  made at commit and dropped when the task's last chunk ends;
* the **run queue** — one list of ``(next chunk start, repr(key), key)``
  kept sorted: an entry is inserted at commit (and again after a non-final
  chunk), removed when its chunk starts. A wake walks it in order and stops
  at the first open-gate entry whose start has passed, or arms the timer at
  the first future start — no per-wake candidate list, no sort;
* a **gate** (and its reverse index) exists only while it is closed: the
  last token deletes it, so "gate open" is "key not in ``_gates``";
* a ``("result", …)`` token that beat its commit is parked with its arrival
  time, consumed by that commit, and aged out by :meth:`reap_abandoned` if
  the commit never comes. ``("done", …)`` tokens are never parked: a job's
  gates on a site are registered in the one commit that also registers the
  tasks they name, so a local completion cannot precede its gate;
* a finished task leaves one entry on a completion-ordered log
  (:class:`_FinishedLog`, made at the first completion): its
  :class:`~repro.sched.intervals.Reservation` — the plan's own object, so
  nothing new is kept — or, for a task the §13 preemptive scheduler split,
  its record as it finished; its actual start and end go into a flat
  ``array('d')``. No per-task key outlives the task: the duplicate-commit
  check filters on a per-job count and only then scans the log.
  :meth:`record` and :meth:`records` rebuild :class:`ExecutionRecord`
  values from the log on demand;
* **one surplus window of history.** Each completion drops the prefix of
  the log (:meth:`prune_done_before`) and of the plan's timeline
  (:meth:`~repro.sched.plan.SchedulingPlan.prune_before`) that ended at or
  before ``now - plan.surplus_window`` — the cutoff of the hygiene pass,
  decision-neutral for the same reason: every admission probe and the
  surplus look at ``[now, ...)`` only. Both are end-ordered, so a
  completion whose oldest entry is still live costs a comparison each, an
  entry is found and dropped once, and the shift of what stays is bounded
  by one window's work, not by the length of the run. The drop schedules
  no event and needs no setting.
"""

from __future__ import annotations

from array import array
from bisect import insort
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple, Union

from repro.errors import SchedulingError
from repro.sched.intervals import Reservation
from repro.sched.plan import SchedulingPlan
from repro.simnet.engine import Simulator
from repro.types import DATACLASS_SLOTS, EPS, JobId, SiteId, TaskId, Time

Key = Tuple[JobId, TaskId]
Token = Tuple[str, JobId, TaskId]
#: ``(job, task, completion time, site, actual (start, end) chunk spans)``
CompletionCallback = Callable[
    [JobId, TaskId, Time, SiteId, Sequence[Tuple[Time, Time]]], None
]


@dataclass(**DATACLASS_SLOTS)
class ExecutionRecord:
    """Reserved vs actual execution of one task (possibly chunked)."""

    chunks: List[Reservation]
    #: (actual_start, actual_end) per executed chunk, in execution order
    actual: List[Tuple[Time, Time]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.chunks:
            raise SchedulingError("execution record needs at least one chunk")
        self.chunks = sorted(self.chunks, key=lambda r: r.start)

    def key(self) -> Key:
        return self.chunks[0].key()

    @property
    def done(self) -> bool:
        return len(self.actual) == len(self.chunks)

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
    def lateness(self) -> Time:
        """actual end - reserved end of the final chunk (positive = slipped)."""
        if not self.done:
            raise SchedulingError("task not finished yet")
        return self.actual[-1][1] - self.chunks[-1].end


class _FinishedLog:
    """Finished tasks in completion order, as the facts they need."""

    __slots__ = ("entries", "spans", "per_job")

    def __init__(self) -> None:
        #: a single-chunk task's reservation, or a split task's record
        self.entries: List[Union[Reservation, ExecutionRecord]] = []
        #: actual start and end of ``entries[i]`` at ``2i`` and ``2i + 1``
        self.spans = array("d")
        #: job -> how many of its tasks are logged
        self.per_job: Dict[JobId, int] = {}

    def __len__(self) -> int:
        return len(self.entries)

    def append(self, rec: ExecutionRecord) -> None:
        self.entries.append(rec.chunks[0] if len(rec.chunks) == 1 else rec)
        self.spans.append(rec.actual[0][0])
        self.spans.append(rec.actual[-1][1])
        job = rec.chunks[0].job
        self.per_job[job] = self.per_job.get(job, 0) + 1

    def holds(self, key: Key) -> bool:
        """Whether ``key`` is logged — a scan, behind an O(1) job filter."""
        if key[0] not in self.per_job:
            return False
        return any(e.key() == key for e in self.entries)

    def items(self) -> Iterator[Tuple[Key, ExecutionRecord]]:
        """``(key, rebuilt record)`` in completion order."""
        spans = self.spans
        for i, entry in enumerate(self.entries):
            if isinstance(entry, ExecutionRecord):
                yield entry.key(), ExecutionRecord(entry.chunks, list(entry.actual))
            else:
                yield entry.key(), ExecutionRecord([entry], [(spans[2 * i], spans[2 * i + 1])])

    def drop_ended_by(self, time: Time) -> int:
        """Forget the prefix that ended at or before ``time``."""
        spans, n = self.spans, 0
        while n < len(self.entries) and spans[2 * n + 1] <= time:
            n += 1
        if n:
            per_job = self.per_job
            for entry in self.entries[:n]:
                job = entry.key()[0]
                left = per_job[job] - 1
                if left:
                    per_job[job] = left
                else:
                    del per_job[job]
            del self.entries[:n]
            del spans[: 2 * n]
        return n


class PlanExecutor:
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
        #: committed tasks whose last chunk has not ended, in commit order
        self._unfinished: Dict[Key, ExecutionRecord] = {}
        #: finished tasks in completion order (finish times never decrease),
        #: so pruning drops a prefix instead of scanning; an empty tuple
        #: until the first completion
        self._done: Union[_FinishedLog, Tuple[()]] = ()
        #: (next chunk start, repr(key), key) of every unfinished task that
        #: is not running, kept sorted — slot order, ``repr`` breaks ties
        self._queue: List[Tuple[Time, str, Key]] = []
        #: key -> outstanding prerequisite tokens (first chunk only); a key
        #: is here only while its gate is closed
        self._gates: Dict[Key, Set[Token]] = {}
        #: token -> keys whose gate still awaits it (reverse index so
        #: delivery doesn't scan every gate on the site)
        self._token_waiters: Dict[Token, Set[Key]] = {}
        #: result token delivered before its gate was registered -> arrival
        #: time; consumed by the commit it raced, aged out if none comes
        self._early_tokens: Dict[Token, Time] = {}
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
        prerequisites". Result tokens that already arrived (the message
        raced the commit) are discounted and consumed. All of a job's gates
        on a site come in one commit, so a ``("done", …)`` token must name
        a task that is still unfinished here.
        """
        by_key: Dict[Key, List[Reservation]] = {}
        for r in reservations:
            by_key.setdefault(r.key(), []).append(r)
        done = self._done
        for key, chunks in by_key.items():
            if key in self._unfinished or (done and done.holds(key)):
                raise SchedulingError(
                    f"site {self.plan.site}: duplicate execution record {key}"
                )
            rec = ExecutionRecord(chunks)
            self._unfinished[key] = rec
            insort(self._queue, (rec.chunks[0].start, repr(key), key))
        if gates:
            early = self._early_tokens
            raced: Set[Token] = set()
            for key in by_key:
                pending: Set[Token] = set()
                for token in gates.get(key, ()):
                    if token in early:
                        raced.add(token)
                        continue
                    assert token[0] != "done" or token[1:] in self._unfinished, (
                        f"site {self.plan.site}: gate of {key} awaits {token}, "
                        "which no unfinished local task will deliver"
                    )
                    pending.add(token)
                    self._token_waiters.setdefault(token, set()).add(key)
                if pending:
                    self._gates[key] = pending
            for token in raced:
                del early[token]
        self._wake()

    def deliver_token(self, token: Token) -> None:
        """Deliver a prerequisite token (e.g. a remote result arrived)."""
        waiters = self._token_waiters.pop(token, None)
        if waiters:
            gates = self._gates
            for key in waiters:
                pending = gates[key]
                pending.discard(token)
                if not pending:
                    del gates[key]
        elif token[0] != "done":
            # Remember for the gate registered later (message raced the
            # commit); a local completion nobody waits for is just dropped.
            self._early_tokens[token] = self.sim.now
        self._wake()

    # -- queries ---------------------------------------------------------------

    def records(self) -> Dict[Key, ExecutionRecord]:
        """Copies of every record still known: the finished ones of the last
        surplus window in completion order, then the unfinished ones in
        commit order. Rebuilt from the log on each call — views and tests
        read them, the run itself never does; the whole run's history is
        the metrics collector's."""
        out = dict(self._done.items()) if self._done else {}
        for key, rec in self._unfinished.items():
            out[key] = ExecutionRecord(rec.chunks, list(rec.actual))
        return out

    def n_unfinished(self) -> int:
        """Committed-but-unfinished records — the soak leak audit's probe.

        After a full drain (every accepted job past its deadline plus
        margin) this must read 0 on every site; a nonzero value means a
        committed reservation never executed, i.e. leaked plan state.
        """
        return len(self._unfinished)

    def is_unfinished(self, job: JobId, task: TaskId) -> bool:
        """Whether ``task`` of ``job`` is committed here and not finished."""
        return (job, task) in self._unfinished

    def live_jobs(self) -> Set[JobId]:
        """Jobs with at least one unfinished task on this site."""
        return {key[0] for key in self._unfinished}

    def leaks(self) -> List[str]:
        """Per-task state that outlived its task, by name — empty once the
        site has drained (see :meth:`repro.core.rtds.RTDSSite.leaks`)."""
        found = [
            f"gate of {key} closed, waiting for {len(pending)} token(s)"
            for key, pending in self._gates.items()
        ]
        found += [
            f"token {token} awaited by unknown {key}"
            for token, keys in self._token_waiters.items()
            for key in keys
            if key not in self._gates
        ]
        found += [
            f"run-queue entry for finished {key}"
            for _, _, key in self._queue
            if key not in self._unfinished
        ]
        return found

    # -- engine ------------------------------------------------------------------

    def _wake(self) -> None:
        if self._running is not None:
            return
        horizon = self.sim.now + EPS
        gates = self._gates
        # Slot order; the first ready entry whose start has passed runs
        # (work-conserving: closed gates ahead of it are skipped).
        for i, (start, _, key) in enumerate(self._queue):
            if start > horizon:
                # Nothing ready now: arm a timer for the next slot start in
                # the future (gate deliveries re-wake us independently).
                self._timer_version += 1
                self.sim.schedule_call_at(start, self._on_timer, self._timer_version)
                return
            if key not in gates:
                del self._queue[i]
                self._start(key)
                return

    def _on_timer(self, version: int) -> None:
        if version == self._timer_version and self._running is None:
            self._wake()

    def _start(self, key: Key) -> None:
        rec = self._unfinished[key]
        chunk = rec.next_chunk
        start = self.sim.now
        self._running = key
        # closure-free: the (key, started_at) pair rides as the callback arg
        self.sim.schedule_call(chunk.duration, self._finish_call, (key, start))

    def _finish_call(self, key_start: Tuple[Key, Time]) -> None:
        self._finish(key_start[0], key_start[1])

    def _finish(self, key: Key, started_at: Time) -> None:
        rec = self._unfinished[key]
        now = self.sim.now
        rec.actual.append((started_at, now))
        self._running = None
        if rec.done:
            del self._unfinished[key]
            if not self._done:
                self._done = _FinishedLog()
            self._done.append(rec)
            job, task = key
            # Completion of a local task satisfies local "done" gates. The
            # delivery wakes the processor *before* the callbacks run, and
            # the wake below runs after them: when nothing is ready both arm
            # a timer, and the event count (pinned by the identity goldens)
            # includes the superseded one.
            self.deliver_token(("done", job, task))
            site = self.plan.site
            for cb in self.on_complete:
                cb(job, task, now, site, rec.actual)
            # keep one surplus window of finished work (see the module notes)
            cutoff = now - self.plan.surplus_window
            if cutoff > 0:
                if self._done.spans[1] <= cutoff:
                    self.prune_done_before(cutoff)
                self.plan.prune_before(cutoff)
        else:
            insort(self._queue, (rec.next_chunk.start, repr(key), key))
        self._wake()

    # -- maintenance ----------------------------------------------------------

    def reap_abandoned(self, before: Time) -> int:
        """Drop never-started records whose gate still blocks although
        their last reserved slot ended at or before ``before``, and parked
        tokens that arrived at or before ``before``.

        Under fault plans a prerequisite's result message can be lost for
        good (retries exhausted, site down past the retry budget); the
        gated record then never opens and would otherwise sit in
        ``_unfinished`` for the lifetime of the service — leaked plan
        state and leaked memory. Only gate-*blocked* records qualify (and
        a closed gate means never started): an open-gated record whose slot
        passed is merely queued behind the work-conserving processor and
        will still run. The mirror case is a result whose EXECUTE was lost:
        the parked token is waiting for a commit that will never come.
        """
        dead = {
            k for k in self._gates if self._unfinished[k].chunks[-1].end <= before
        }
        for k in dead:
            del self._unfinished[k]
            for token in self._gates.pop(k):
                keys = self._token_waiters[token]
                keys.discard(k)
                if not keys:
                    del self._token_waiters[token]
        if dead:
            self._queue = [entry for entry in self._queue if entry[2] not in dead]
        early = self._early_tokens
        for token in [t for t, arrived in early.items() if arrived <= before]:
            del early[token]
        return len(dead)

    def prune_done_before(self, time: Time) -> int:
        """Forget finished records that ended at or before ``time``."""
        return self._done.drop_ended_by(time) if self._done else 0
