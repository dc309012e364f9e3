"""Property-based tests (hypothesis) for the scheduling substrate."""

from contextlib import contextmanager
from unittest import mock

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.graphs.generators import random_dag
from repro.sched.edf import demand_bound_satisfied
from repro.core.validation import endorse_mapping
from repro.sched.feasibility import WindowTask, try_schedule_dag_locally
from repro.sched.intervals import BusyTimeline, Reservation
from repro.sched.matching import hopcroft_karp, maximum_matching_bruteforce
from repro.sched.preemptive import preemptive_chunks
from repro.types import EPS
from tests.sched.window_probe import endorse_one


@st.composite
def timelines(draw):
    tl = BusyTimeline()
    t = 0.0
    for i in range(draw(st.integers(min_value=0, max_value=5))):
        gap = draw(st.floats(min_value=0.1, max_value=5.0))
        dur = draw(st.floats(min_value=0.1, max_value=5.0))
        t += gap
        tl.reserve(Reservation(t, t + dur, 99, f"bg{i}"))
        t += dur
    return tl


@st.composite
def window_task_sets(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    tasks = []
    for i in range(n):
        r = draw(st.floats(min_value=0.0, max_value=10.0))
        dur = draw(st.floats(min_value=0.1, max_value=4.0))
        slack = draw(st.floats(min_value=0.0, max_value=8.0))
        tasks.append(WindowTask(1, f"t{i}", dur, r, r + dur + slack))
    return tasks


@given(timelines(), window_task_sets())
@settings(max_examples=120, deadline=None)
def test_nonpreemptive_slots_are_sound(tl, tasks):
    """Any produced schedule must be conflict-free and inside windows."""
    slots = endorse_one(tl, tasks, 0.0)
    if slots is None:
        return
    by_task = {t.task: t for t in tasks}
    check = tl.copy()
    for s in slots:
        w = by_task[s.task]
        assert s.start >= w.release - 1e-9
        assert s.end <= w.deadline + 1e-9
        assert abs(s.duration - w.duration) <= 1e-9
        check.reserve(s)  # raises on conflict
    check.check_invariants()


@given(timelines(), window_task_sets())
@settings(max_examples=120, deadline=None)
def test_preemptive_dominates_nonpreemptive(tl, tasks):
    if endorse_one(tl, tasks, 0.0) is not None:
        assert preemptive_chunks(tl, tasks, 0.0) is not None


@given(timelines(), window_task_sets())
@settings(max_examples=120, deadline=None)
def test_feasible_implies_demand_bound(tl, tasks):
    """Constructive feasibility implies the processor-demand condition."""
    if preemptive_chunks(tl, tasks, 0.0) is not None:
        assert demand_bound_satisfied(tl, tasks, 0.0)


@given(timelines(), window_task_sets())
@settings(max_examples=100, deadline=None)
def test_preemptive_chunks_sound(tl, tasks):
    chunks = preemptive_chunks(tl, tasks, 0.0)
    if chunks is None:
        return
    by_task = {t.task: t for t in tasks}
    total = {}
    check = tl.copy()
    for c in chunks:
        w = by_task[c.task]
        assert c.start >= w.release - 1e-9
        assert c.end <= w.deadline + 1e-9
        total[c.task] = total.get(c.task, 0.0) + c.duration
        check.reserve(c)
    for t in tasks:
        assert abs(total[t.task] - t.duration) <= 1e-6


@st.composite
def bipartite(draw):
    nl = draw(st.integers(min_value=0, max_value=6))
    nr = draw(st.integers(min_value=0, max_value=6))
    adj = {}
    for l in range(nl):
        edges = draw(st.lists(st.integers(min_value=0, max_value=max(0, nr - 1)),
                              max_size=nr, unique=True)) if nr else []
        adj[l] = edges
    return adj


@given(bipartite())
@settings(max_examples=150, deadline=None)
def test_hopcroft_karp_optimal(adj):
    m = hopcroft_karp(adj)
    used = set()
    for l, r in m.items():
        assert r in adj[l]
        assert r not in used
        used.add(r)
    assert len(m) == maximum_matching_bruteforce(adj)


# -- tail probes: the live tail answers every probe like the full timeline ----

#: where the cutoff sits around the end of the boundary interval, in EPS
CUT_OFFSETS = (-3.0, -2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0)


@st.composite
def history_and_live(draw):
    """A timeline with a finished history, a boundary interval and a live
    part, and a cutoff on the boundary interval's end or a few EPS off it
    (gaps of 0 make intervals adjacent, so ends also meet starts)."""
    tl = BusyTimeline()
    n_hist = draw(st.integers(min_value=0, max_value=6))
    n_live = draw(st.integers(min_value=0, max_value=4))
    gaps = st.sampled_from([0.0, 0.5]) | st.floats(min_value=0.1, max_value=4.0)
    t, cutoff = 0.0, None
    for i in range(n_hist + 1 + n_live):
        t += draw(gaps)
        dur = draw(st.floats(min_value=0.1, max_value=4.0))
        tl.reserve(Reservation(t, t + dur, 99, f"bg{i}"))
        t += dur
        if i == n_hist:
            cutoff = t + draw(st.sampled_from(CUT_OFFSETS)) * EPS
    return tl, cutoff


#: (duration, release offset from the cutoff, slack) of one probed task
probe_specs = st.lists(
    st.tuples(
        st.floats(min_value=0.1, max_value=4.0),
        st.sampled_from([-1.0, 0.0]) | st.floats(min_value=0.0, max_value=8.0),
        st.floats(min_value=0.0, max_value=10.0),
    ),
    min_size=1,
    max_size=5,
)


@contextmanager
def full_arrays():
    """Probes inside see the whole timeline: the tail cut is ignored."""
    scratch, copy = BusyTimeline.scratch_arrays, BusyTimeline.copy
    with mock.patch.object(
        BusyTimeline, "scratch_arrays", lambda self, after=None: scratch(self)
    ), mock.patch.object(BusyTimeline, "copy", lambda self, after=None: copy(self)):
        yield


@given(history_and_live(), probe_specs, st.sampled_from(["edf", "llf"]))
@settings(max_examples=150, deadline=None)
def test_window_probes_same_on_tail_and_full(case, specs, order):
    """§10 validation places every task where the full timeline would."""
    tl, cutoff = case
    entries = [
        (f"t{i}", dur, cutoff + off, cutoff + off + dur + slack)
        for i, (dur, off, slack) in enumerate(specs)
    ]

    def probe():
        return endorse_mapping(tl, 1, {0: entries}, cutoff, order=order)

    tail = probe()
    with full_arrays():
        assert probe() == tail


@given(
    history_and_live(),
    st.integers(min_value=0, max_value=2**16),
    st.booleans(),
    st.floats(min_value=0.0, max_value=3.0),
    st.floats(min_value=2.0, max_value=30.0),
)
@settings(max_examples=150, deadline=None)
def test_local_test_same_on_tail_and_full(case, dag_seed, floor_is_release, below, window):
    """The §5 local test cuts at ``max(release, not_before)``; either may be it."""
    tl, cutoff = case
    dag = random_dag(5, np.random.default_rng(dag_seed), c_range=(0.1, 3.0), p_edge=0.4)
    release, not_before = (cutoff, cutoff - below) if floor_is_release else (cutoff - below, cutoff)

    def probe():
        return try_schedule_dag_locally(tl, dag, 1, release, cutoff + window, not_before)

    tail = probe()
    with full_arrays():
        assert probe() == tail


@given(history_and_live(), probe_specs)
@settings(max_examples=150, deadline=None)
def test_tail_copy_fits_like_full_copy(case, specs):
    """The mapper's scratch copy: probe, reserve, probe again — every start
    matches a full copy's."""
    tl, cutoff = case
    starts = []
    for scratch in (tl.copy(cutoff), tl.copy()):
        placed = []
        for i, (dur, off, slack) in enumerate(specs):
            lo = cutoff + max(off, 0.0)
            s = scratch.earliest_fit(dur, lo, lo + dur + slack)
            placed.append(s)
            if s is not None:
                scratch.reserve(Reservation(s, s + dur, 1, i))
        starts.append(placed)
    assert starts[0] == starts[1]


@given(timelines(), st.floats(min_value=0, max_value=20), st.floats(min_value=0.1, max_value=30))
@settings(max_examples=100, deadline=None)
def test_earliest_fit_is_earliest_and_fits(tl, release, dur):
    deadline = release + dur + 50.0
    s = tl.earliest_fit(dur, release, deadline)
    assume(s is not None)
    assert s >= release - 1e-12
    assert tl.is_free(s, s + dur)
    # minimality on a coarse grid: no earlier feasible start
    step = dur / 4
    probe = release
    while probe < s - 1e-9:
        assert not tl.is_free(probe, probe + dur)
        probe += max(step, 0.05)
