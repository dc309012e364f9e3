"""Property-based tests of the §13 speed model (E11 satellite).

Hypothesis drives speed vectors, DAGs and busy timelines through the
admission stack and asserts the invariants the heterogeneity threading
must preserve whatever the draw:

* scaled durations are always strictly positive and strictly monotone in
  speed (``c/s2 < c/s1`` whenever ``s2 > s1``);
* a site that is *sped up* never lowers its own local acceptance: if the
  local guarantee test admits a DAG at speed ``s`` against a fixed
  timeline, it admits it at any ``k·s, k ≥ 1`` too;
* no site ever endorses (§10) a logical processor holding a task whose
  adjusted window is shorter than its speed-scaled WCET ``c(ti)/speed``
  — the guarantee the protocol relies on;
* the adjustment (§9) never *produces* such a window. Dividing the slack by
  η alone did, on the pinned example: S*'s critical path was one task, so
  η = 1, while a three-task DAG chain spent three laxities against one
  slack. The divisor is now at least the most tasks on any DAG path.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.adjustment import adjust_trial_mapping
from repro.core.local_test import blazewicz_windows, local_guarantee_test
from repro.core.mapper import build_trial_mapping
from repro.core.trial_mapping import LogicalProcSpec
from repro.core.validation import endorse_mapping
from repro.graphs.generators import random_dag
from repro.sched.intervals import BusyTimeline, Reservation

speeds = st.floats(min_value=0.1, max_value=8.0, allow_nan=False, allow_infinity=False)
speedups = st.floats(min_value=1.0, max_value=8.0, allow_nan=False, allow_infinity=False)
dag_seeds = st.integers(min_value=0, max_value=10_000)


def _dag(seed: int, n_lo: int = 3, n_hi: int = 12):
    rng = np.random.default_rng(seed)
    return random_dag(n_lo + seed % (n_hi - n_lo), rng, p_edge=0.3)


def _busy_timeline(seed: int) -> BusyTimeline:
    """A timeline with a few random foreign reservations."""
    rng = np.random.default_rng(seed + 99)
    tl = BusyTimeline()
    t = float(rng.uniform(0.0, 5.0))
    for i in range(int(rng.integers(0, 6))):
        dur = float(rng.uniform(0.5, 6.0))
        tl.reserve(Reservation(t, t + dur, -1, f"busy{i}"))
        t += dur + float(rng.uniform(0.5, 8.0))
    return tl


@given(dag_seeds, speeds, speedups)
@settings(max_examples=80, deadline=None)
def test_scaled_durations_positive_and_monotone(dag_seed, speed, k):
    """Blazewicz window durations: > 0 and strictly decreasing in speed."""
    dag = _dag(dag_seed)
    slow = blazewicz_windows(dag, job=0, release=0.0, deadline=1e9, speed=speed)
    fast = blazewicz_windows(dag, job=0, release=0.0, deadline=1e9, speed=speed * k)
    for ws, wf in zip(slow, fast):
        assert ws.duration > 0.0
        assert wf.duration > 0.0
        # monotone: never longer at higher speed; strictly shorter once
        # the speedup exceeds float rounding (an ulp-scale k can tie)
        assert wf.duration <= ws.duration
        if k > 1.0 + 1e-9:
            assert wf.duration < ws.duration
        assert np.isclose(ws.duration, dag.complexity(ws.task) / speed)


@given(dag_seeds, speeds, speedups, st.booleans())
@settings(max_examples=60, deadline=None)
def test_speedup_never_lowers_local_acceptance(dag_seed, speed, k, preemptive):
    """If the local test admits at speed s, it admits at k*s (k >= 1)."""
    dag = _dag(dag_seed)
    deadline = 1.2 * sum(dag.complexity(t) for t in dag) / speed

    def admit(s: float):
        return local_guarantee_test(
            _busy_timeline(dag_seed),
            dag,
            job=1,
            release=0.0,
            deadline=deadline,
            now=0.0,
            preemptive=preemptive,
            speed=s,
        )

    if admit(speed) is not None:
        assert admit(speed * k) is not None, (
            f"speed {speed} admitted but {speed * k} rejected"
        )


mapping_draws = (
    dag_seeds,
    st.lists(speeds, min_size=1, max_size=5),
    st.floats(min_value=1.2, max_value=8.0),
)


def _adjusted_mapping(dag_seed, proc_speeds, laxity):
    """An adjusted Trial-Mapping over logical processors of the given
    speeds, or ``None`` when the adjustment rejects it."""
    dag = _dag(dag_seed)
    rng = np.random.default_rng(dag_seed + 7)
    cands = sorted(
        ((float(rng.uniform(0.2, 1.0)), s) for s in proc_speeds),
        key=lambda x: -x[0],
    )
    specs = [
        LogicalProcSpec(index=i, surplus=surplus, speed=s)
        for i, (surplus, s) in enumerate(cands)
    ]
    tm = build_trial_mapping(job=0, dag=dag, procs=specs, omega=1.0, job_release=0.0)
    # deadline scaled off the optimistic makespan so all three adjustment
    # cases (reject/stretch/laxity) are exercised across draws
    adj = adjust_trial_mapping(tm, job_deadline=laxity * tm.makespan / 2.0)
    return (dag, tm, adj) if adj.accepted else None


@given(*mapping_draws)
@example(dag_seed=199, proc_speeds=[1.0, 3.0, 1.0, 6.0], laxity=1.5)
@settings(max_examples=60, deadline=None)
def test_mapper_never_breaks_scaled_wcet_windows(dag_seed, proc_speeds, laxity):
    """A window the adjustment left shorter than ``c/speed`` is never
    endorsed: validation on an idle site of that speed refuses the whole
    logical processor, so the job cannot be accepted onto it."""
    mapped = _adjusted_mapping(dag_seed, proc_speeds, laxity)
    if mapped is None:
        return
    dag, tm, _adj = mapped
    procs = {}
    for t in dag:
        procs.setdefault(tm.assignment[t], []).append(
            (t, dag.complexity(t), tm.release[t], tm.deadline[t])
        )
    for speed in set(proc_speeds):
        endorsed, _slots = endorse_mapping(BusyTimeline(), 0, procs, now=0.0, speed=speed)
        for proc in endorsed:
            for (t, c, r, d) in procs[proc]:
                assert d - r + 1e-6 >= c / speed, (
                    f"proc {proc} endorsed at speed {speed} although task {t!r} "
                    f"has window {d - r} < scaled WCET {c / speed}"
                )


@given(*mapping_draws)
@example(dag_seed=199, proc_speeds=[1.0, 3.0, 1.0, 6.0], laxity=1.5)
@settings(max_examples=250, derandomize=True, deadline=None)
def test_adjustment_leaves_every_window_its_scaled_wcet(dag_seed, proc_speeds, laxity):
    """Accepted adjusted mappings leave every task a window >= c/speed
    (with η alone as the divisor, the pinned example gave task 0 a window of
    0.497 < 1.178)."""
    _assert_windows_hold_scaled_wcet(dag_seed, proc_speeds, laxity)


@pytest.mark.nightly
@given(*mapping_draws)
@example(dag_seed=199, proc_speeds=[1.0, 3.0, 1.0, 6.0], laxity=1.5)
@settings(max_examples=4000, deadline=None)
def test_adjustment_windows_hold_over_4000_random_draws(dag_seed, proc_speeds, laxity):
    """The window property above on 4000 fresh random draws a night."""
    _assert_windows_hold_scaled_wcet(dag_seed, proc_speeds, laxity)


def _assert_windows_hold_scaled_wcet(dag_seed, proc_speeds, laxity):
    mapped = _adjusted_mapping(dag_seed, proc_speeds, laxity)
    if mapped is None:
        return
    dag, tm, adj = mapped
    if adj.case == "laxity":  # uniform weights: W is at least η, the paper's count
        assert adj.wmax >= adj.eta
    for t in dag:
        spec = tm.procs[tm.assignment[t]]
        window = tm.deadline[t] - tm.release[t]
        assert window + 1e-9 >= spec.optimistic_duration(dag.complexity(t)), (
            f"task {t!r}: window {window} < scaled WCET "
            f"{spec.optimistic_duration(dag.complexity(t))} (case {adj.case})"
        )


@given(st.integers(min_value=1, max_value=64), st.integers(min_value=0, max_value=500),
       st.sampled_from(["skew:2", "skew:4", "lognormal:0.5", "tiers:1,2,4"]))
@settings(max_examples=60, deadline=None)
def test_resolved_profiles_positive_and_mean_normalised(n, seed, spec):
    """Every string profile yields n positive speeds with mean ~1.0."""
    from repro.simnet.speeds import resolve_site_speeds

    vec = resolve_site_speeds(spec, n, seed)
    assert len(vec) == n
    assert all(s > 0 for s in vec)
    if not spec.startswith("tiers"):
        assert np.isclose(float(np.mean(vec)), 1.0)


def test_bad_profile_arguments_raise_config_error():
    """Malformed numeric arguments surface as ConfigError, never a raw
    ValueError traceback (the CLI catches ConfigError)."""
    from repro.errors import ConfigError
    from repro.experiments.runner import ExperimentConfig
    from repro.simnet.speeds import resolve_site_speeds

    for bad in ("skew:fast", "uniform:x", "lognormal:?", "tiers:1,x", "warp:2",
                # numbers that resolve to non-finite or zero speeds
                "uniform:nan", "uniform:inf", "skew:inf", "skew:nan",
                "lognormal:nan", "lognormal:1000"):
        with pytest.raises(ConfigError):
            resolve_site_speeds(bad, 8, 0)
    with pytest.raises(ConfigError):
        ExperimentConfig(site_speeds="uniform:nan")


def test_split_speed_specs_keeps_tiers_commas():
    """The CLI's --speeds split must not break 'tiers:a,b,...' apart."""
    from repro.errors import ConfigError
    from repro.simnet.speeds import resolve_site_speeds, split_speed_specs

    assert split_speed_specs("uniform,tiers:1,2,4,skew:2") == (
        "uniform", "tiers:1,2,4", "skew:2",
    )
    assert split_speed_specs("skew:4") == ("skew:4",)
    assert split_speed_specs("tiers:1,0.5, lognormal:0.3") == (
        "tiers:1,0.5", "lognormal:0.3",
    )
    for spec in split_speed_specs("uniform,tiers:1,2,4,skew:2"):
        if spec != "uniform":
            assert resolve_site_speeds(spec, 6, 0) is not None
    with pytest.raises(ConfigError):
        split_speed_specs(",,")
