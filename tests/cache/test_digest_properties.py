"""Property tests for the plan state digest the admission cache keys on.

The cache's safety argument has two legs, each pinned here by Hypothesis:

1. **staleness is impossible** — every mutation that could change an
   admission answer (commit, prune) changes
   ``SchedulingPlan.state_digest()``, in both its value form (short
   timelines) and its ``(site, version)`` fallback form;
2. **tail sharing is sound** — two timelines with equal *tail*
   signatures past a cutoff answer every feasibility probe whose release
   is at or past that cutoff identically, whatever finished history they
   carry. This is what lets sites with different pasts share one cached
   endorsement.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sched.intervals import BusyTimeline, Reservation
from repro.sched.plan import SchedulingPlan


def _fill(timeline: BusyTimeline, job: int, durations) -> None:
    """Pack ``durations`` back to back from t=0 (earliest-fit committed)."""
    for i, dur in enumerate(durations):
        s = timeline.earliest_fit(dur, 0.0, float("inf"))
        timeline.reserve(Reservation(s, s + dur, job, f"t{i}"))


durations = st.lists(
    st.floats(min_value=0.25, max_value=8.0, allow_nan=False), min_size=1, max_size=8
)


@settings(max_examples=60, deadline=None)
@given(durations, st.floats(min_value=0.25, max_value=4.0))
def test_commit_changes_digest(durs, extra):
    plan = SchedulingPlan(site=0)
    _fill(plan.timeline, 1, durs)
    plan.version += len(durs)  # as commit() would have
    before = plan.state_digest()
    s = plan.timeline.earliest_fit(extra, 0.0, float("inf"))
    plan.commit([Reservation(s, s + extra, 2, "x")])
    assert plan.state_digest() != before


@settings(max_examples=60, deadline=None)
@given(durations)
def test_prune_changes_digest_when_it_drops_anything(durs):
    plan = SchedulingPlan(site=0)
    _fill(plan.timeline, 1, durs)
    plan.version += 1
    before = plan.state_digest()
    n = plan.prune_before(durs[0] + 0.05)
    if n:
        assert plan.state_digest() != before
    else:
        assert plan.state_digest() == before


@settings(max_examples=60, deadline=None)
@given(durations)
def test_version_fallback_tracks_every_mutation(durs):
    """Long timelines digest as (site, version); version must never lag."""
    plan = SchedulingPlan(site=7)
    plan.DIGEST_VALUE_MAX  # sanity: class attr exists
    seen = set()
    for i, dur in enumerate(durs):
        s = plan.timeline.earliest_fit(dur, 0.0, float("inf"))
        plan.commit([Reservation(s, s + dur, i, "t")])
        key = (plan.site, plan.version)
        assert key not in seen, "two distinct states share a fallback digest"
        seen.add(key)
    for r in list(plan.timeline):
        plan.prune_before(r.end)
        key = (plan.site, plan.version)
        assert key not in seen
        seen.add(key)


@settings(max_examples=80, deadline=None)
@given(
    durations,
    durations,
    st.floats(min_value=0.0, max_value=40.0),
    st.floats(min_value=0.25, max_value=6.0),
    st.floats(min_value=0.0, max_value=10.0),
    st.floats(min_value=6.0, max_value=60.0),
)
def test_equal_tails_answer_probes_identically(hist_a, hist_b, cutoff, dur, rel_off, window):
    """Different histories + equal visible tails → identical probes.

    Build two timelines with *different* packed histories, truncate both
    views at ``cutoff``: whenever their tail signatures agree, any
    earliest-fit probe released at or past ``cutoff`` must return the
    same slot on both.
    """
    a, b = BusyTimeline(), BusyTimeline()
    _fill(a, 1, hist_a)
    _fill(b, 1, hist_b)
    if a.tail_signature(cutoff) != b.tail_signature(cutoff):
        return  # sharing would not trigger; nothing to assert
    release = cutoff + rel_off
    assert a.earliest_fit(dur, release, release + window) == b.earliest_fit(
        dur, release, release + window
    )
