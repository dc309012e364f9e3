"""The compute processor against its frozen pre-lifetime version.

One random schedule drives two worlds — the live ``PlanExecutor`` +
``HostSide`` and their verbatim pre-PR-23 copies in
``tests/frozen_reference.py`` — each on its own simulator. Everything a
run can observe must agree: which chunk ran when, every event the
executor put on the simulator (so every timer it armed, in order), the
completion callbacks, the RESULT messages sent, and what the maintenance
calls returned. The live world additionally has to keep its own
structures consistent after every step.

The schedule honours the two preconditions the protocol gives the
executor: a job is committed to a site once (its ``("done", …)`` gates
name tasks of that commit), and no commit arrives for a result token
that hygiene has already aged out.
"""

from types import SimpleNamespace

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.core.hosting import HostSide
from repro.sched.executor import PlanExecutor
from repro.sched.intervals import Reservation
from repro.simnet.engine import Simulator
from tests.frozen_reference import HostSideReference, PlanExecutorReference

ME = 0
RESULT = "RESULT"


class _LoggingSimulator(Simulator):
    """Records every event put on the heap: (now, fire time, callback, arg)."""

    def __init__(self):
        super().__init__()
        self.scheduled = []

    def schedule_call_at(self, time, callback, arg, priority=0):
        self.scheduled.append((self.now, time, callback.__name__, arg))
        return super().schedule_call_at(time, callback, arg, priority)


class _Plan:
    """The executor reads ``plan.site`` and ``plan.surplus_window`` only;
    slots may overlap here (the work-conserving processor then runs them
    late), so nothing is booked. The frozen executor never forgets finished
    work on its own, so the live one keeps an infinite window here."""

    site = ME
    surplus_window = float("inf")

    def commit(self, slots):
        pass


class _Site:
    """As much of a site as ``HostSide`` touches."""

    sid = ME

    def __init__(self, sim, executor_cls):
        self.sim = sim
        self.plan = _Plan()
        self.executor = executor_cls(sim, self.plan)
        self.handlers = {}
        self.sent = []

    def on(self, mtype, handler):
        self.handlers[mtype] = handler

    def send_to(self, dest, mtype, payload, size):
        self.sent.append((self.sim.now, dest, mtype, payload["job"], payload["task"], size))


class _World:
    def __init__(self, executor_cls, hosting_cls):
        self.sim = _LoggingSimulator()
        self.site = _Site(self.sim, executor_cls)
        self.executor = self.site.executor
        self.hosting = hosting_cls(self.site, RESULT)
        self.completed = []
        self.executor.on_complete.append(lambda j, t, at, *_: self.completed.append((j, t, at)))
        self.returned = []

    def result_arrives(self, job, task):
        self.site.handlers[RESULT](SimpleNamespace(payload={"job": job, "task": task}))

    def observed(self):
        return {
            "ran": {k: list(r.actual) for k, r in self.executor.records().items()},
            "scheduled": self.sim.scheduled,
            "completed": self.completed,
            "sent": self.site.sent,
            "returned": self.returned,
            "unfinished": self.executor.n_unfinished(),
            "busy": self.executor._running is not None,
            "now": self.sim.now,
        }


#: times on a coarse grid, so equal starts (the ``repr`` tiebreak) and
#: starts exactly at "now" are common
_GRID = st.integers(0, 24).map(lambda i: i * 0.5)

_TASK = st.fixed_dictionaries(
    {
        "host": st.sampled_from([ME, ME, ME, 1, 2, 3]),
        "chunks": st.lists(
            st.tuples(_GRID, st.sampled_from([0.5, 1.0, 2.5])), min_size=1, max_size=3
        ),
        "preds": st.sets(st.integers(0, 5), max_size=3),
        "volume": st.sampled_from([0.0, 1.0, 3.5]),
    }
)
_JOB = st.lists(_TASK, min_size=1, max_size=6).filter(
    lambda tasks: any(t["host"] == ME for t in tasks)
)


class ExecutorDifferential(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.live = _World(PlanExecutor, HostSide)
        self.frozen = _World(PlanExecutorReference, HostSideReference)
        # ids straddle 9 -> 10, where repr order and numeric order part ways
        self.next_job = 8
        #: jobs drawn but not committed yet -> arrival of their first early token
        self.planned = {}
        #: every ("result", job, task) some committed or planned gate names
        self.known_tokens = []

    def both(self, fn):
        fn(self.live)
        fn(self.frozen)

    # -- the schedule ----------------------------------------------------------

    @rule(tasks=_JOB)
    def plan_job(self, tasks):
        """Draw a job; it is committed by a later step, so its remote
        predecessors' results can arrive first."""
        job = self.next_job
        self.next_job += 1
        names = [f"t{i}" for i in range(len(tasks))]
        host = {n: t["host"] for n, t in zip(names, tasks)}
        # predecessors are earlier tasks only: a DAG
        preds = {
            n: [names[p] for p in sorted(t["preds"]) if p < i]
            for i, (n, t) in enumerate(zip(names, tasks))
        }
        volumes = {n: t["volume"] for n, t in zip(names, tasks) if t["volume"]}
        self.planned[job] = SimpleNamespace(
            tasks=tasks, names=names, host=host, preds=preds, volumes=volumes, parked_at=None
        )
        for n in names:
            if host[n] == ME:
                self.known_tokens += [(job, p) for p in preds[n] if host[p] != ME]

    @precondition(lambda self: self.planned)
    @rule(pick=st.integers(0, 99))
    def commit(self, pick):
        job = sorted(self.planned)[pick % len(self.planned)]
        spec = self.planned.pop(job)
        now = self.live.sim.now

        def slots():
            out = []
            for n, t in zip(spec.names, spec.tasks):
                if t["host"] != ME:
                    continue
                at = now
                for offset, length in t["chunks"]:
                    at += offset
                    out.append(Reservation(at, at + length, job, n))
                    at += length
            return out

        self.both(lambda w: w.hosting.commit(job, slots(), spec.host, spec.preds, spec.volumes))

    @precondition(lambda self: self.known_tokens)
    @rule(pick=st.integers(0, 999))
    def result_arrives(self, pick):
        """A RESULT some gate names: on time, early (job still planned) or
        a duplicate — the list is never consumed."""
        job, task = self.known_tokens[pick % len(self.known_tokens)]
        spec = self.planned.get(job)
        if spec is not None and spec.parked_at is None:
            spec.parked_at = self.live.sim.now
        self.both(lambda w: w.result_arrives(job, task))

    @rule(job=st.integers(900, 905), task=st.sampled_from(["t0", "zz"]))
    def stray_result_arrives(self, job, task):
        """A RESULT for a job whose EXECUTE never comes."""
        self.both(lambda w: w.result_arrives(job, task))

    @rule(dt=st.sampled_from([0.0, 0.25, 0.5, 1.0, 3.0, 10.0]))
    def advance(self, dt):
        self.both(lambda w: w.sim.run(until=w.sim.now + dt))

    @rule(margin=st.sampled_from([0.0, 2.0, 20.0]))
    def reap_abandoned(self, margin):
        before = self.live.sim.now - margin
        # hygiene never ages out a token whose commit is still on its way
        parked = [s.parked_at for s in self.planned.values() if s.parked_at is not None]
        if parked:
            before = min(before, min(parked) - 0.25)
        self.both(lambda w: w.returned.append(("reap", w.executor.reap_abandoned(before))))
        self.both(lambda w: w.hosting.prune(*_prune_args(w)))

    @rule(margin=st.sampled_from([0.0, 2.0, 20.0]))
    def prune_done_before(self, margin):
        before = self.live.sim.now - margin
        self.both(lambda w: w.returned.append(("prune", w.executor.prune_done_before(before))))
        self.both(lambda w: w.hosting.prune(*_prune_args(w)))

    # -- what must hold --------------------------------------------------------

    @invariant()
    def worlds_agree(self):
        assert self.live.observed() == self.frozen.observed()

    @invariant()
    def live_state_is_consistent(self):
        ex = self.live.executor
        assert all(leak.startswith("gate of") for leak in ex.leaks())
        queue = ex._queue
        assert queue == sorted(queue)
        waiting = set(ex._unfinished) - {ex._running}
        assert {key for _, _, key in queue} == waiting and len(queue) == len(waiting)
        for start, tiebreak, key in queue:
            assert start == ex._unfinished[key].next_chunk.start and tiebreak == repr(key)
        for key, pending in ex._gates.items():
            assert pending and not ex._unfinished[key].actual
            assert all(key in ex._token_waiters[token] for token in pending)
        for token, keys in ex._token_waiters.items():
            assert keys and all(token in ex._gates[key] for key in keys)
        assert all(token[0] == "result" for token in ex._early_tokens)
        assert not ex._done or (len(ex._done.spans) == 2 * len(ex._done) and not dict(ex._done.items()).keys() & ex._unfinished.keys())
        assert set(self.live.hosting.exec_info) <= ex.live_jobs()
        assert all(self.live.hosting.exec_info.values())
        assert self.live.hosting.leaks() == []

    def teardown(self):
        """Drain: deliver everything still awaited, run both to the end."""
        for job in sorted(self.planned):
            self.planned.pop(job)
        for job, task in self.known_tokens:
            self.both(lambda w: w.result_arrives(job, task))
        self.both(lambda w: w.sim.run())
        self.worlds_agree()
        self.live_state_is_consistent()


def _prune_args(world):
    """The frozen ``HostSide.prune`` was handed the jobs that still have a
    record; the live one asks the executor itself."""
    if isinstance(world.hosting, HostSideReference):
        return ({key[0] for key in world.executor.records()},)
    return ()


TestExecutorDifferential = ExecutorDifferential.TestCase
TestExecutorDifferential.settings = settings(
    max_examples=120, stateful_step_count=40, deadline=None
)


def test_reaped_task_takes_its_forwarding_entry_with_it():
    """A schedule the machine above once shrank to: ``t1`` waits on ``t0``
    and is reaped while ``t0`` still runs, then ``t0`` completes. What
    ``t1`` owed a remote successor goes at the prune that follows the
    reap, not when its whole job is gone (which never comes)."""
    w = _World(PlanExecutor, HostSide)
    host = {"t0": ME, "t1": ME, "t2": 1}
    preds = {"t0": [], "t1": ["t0"], "t2": ["t0", "t1"]}
    slots = [
        Reservation(0.0, 0.5, 8, "t0"),
        Reservation(0.5, 1.0, 8, "t0"),
        Reservation(0.0, 0.5, 8, "t1"),
    ]
    w.hosting.commit(8, slots, host, preds, {})
    w.sim.run(until=0.5)
    assert w.executor.reap_abandoned(0.5) == 1
    w.hosting.prune()
    w.sim.run()
    assert w.completed == [(8, "t0", 1.0)]
    assert w.hosting.exec_info == {} and w.hosting.leaks() == []
