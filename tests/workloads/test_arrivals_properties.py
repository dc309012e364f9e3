"""Hypothesis property suite for the open-loop arrival processes (E12).

Pins the statistical and determinism contracts the soak leans on:
Poisson inter-arrival means, MMPP phase-schedule determinism, the
diurnal curve's exact daily-volume integral, picklability across pool
workers, and spec-grammar round trips.
"""

import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import WorkloadError
from repro.workloads.arrivals import (
    DiurnalProcess,
    MMPPProcess,
    PoissonProcess,
    parse_arrival_spec,
)

rates = st.floats(min_value=0.5, max_value=20.0, allow_nan=False)
seeds = st.integers(min_value=0, max_value=10_000)


@given(rate=rates, seed=seeds)
@settings(max_examples=30, deadline=None)
def test_poisson_interarrival_mean(rate, seed):
    """Mean inter-arrival time ≈ 1/λ (law of large numbers tolerance)."""
    rng = np.random.default_rng(seed)
    horizon = max(200.0, 4000.0 / rate)  # >= ~4000 expected arrivals
    times = PoissonProcess(rate).times(rng, 0.0, horizon)
    gaps = np.diff(times)
    assert gaps.size > 1000
    # sample mean of n exponentials has stddev (1/λ)/sqrt(n); 6 sigma
    assert np.mean(gaps) == pytest.approx(1.0 / rate, rel=6.0 / np.sqrt(gaps.size))


@given(seed=seeds, r1=rates, r2=rates)
@settings(max_examples=30, deadline=None)
def test_mmpp_phase_schedule_deterministic(seed, r1, r2):
    """The phase schedule is a pure function of (seed, window) — it must
    not shift when arrival draws consume differently, which is exactly
    what happens when the rates change."""
    a = MMPPProcess(rates=(r1, r2), sojourns=(20.0, 5.0))
    b = MMPPProcess(rates=(r2 / 2.0, r1 + 1.0), sojourns=(20.0, 5.0))
    sched_a = a.phase_schedule(np.random.default_rng(seed), 0.0, 300.0)
    sched_b = b.phase_schedule(np.random.default_rng(seed), 0.0, 300.0)
    assert sched_a == sched_b
    # and the same process twice is bit-identical, times included
    t1 = a.times(np.random.default_rng(seed), 0.0, 300.0)
    t2 = a.times(np.random.default_rng(seed), 0.0, 300.0)
    assert np.array_equal(t1, t2)


@given(
    volume=st.floats(min_value=50.0, max_value=2000.0),
    day=st.floats(min_value=10.0, max_value=200.0),
    amplitude=st.floats(min_value=0.0, max_value=0.95),
    seed=seeds,
)
@settings(max_examples=30, deadline=None)
def test_diurnal_integrates_to_daily_volume(volume, day, amplitude, seed):
    """Arrivals per whole day ≈ daily_volume: the sine integrates out."""
    proc = DiurnalProcess(daily_volume=volume, day_length=day, amplitude=amplitude)
    rng = np.random.default_rng(seed)
    days = max(3, int(np.ceil(3000.0 / volume)))  # >= ~3000 expected arrivals
    times = proc.times(rng, 0.0, days * day)
    expected = volume * days
    # Poisson count: stddev sqrt(expected); 6 sigma
    assert times.size == pytest.approx(expected, abs=6.0 * np.sqrt(expected))
    assert np.all(np.diff(times) >= 0.0)


@given(seed=seeds)
@example(seed=8435)  # 5994 arrivals: 3.7 sigma low, outside the old rel=0.25
@settings(max_examples=20, deadline=None)
def test_mean_rate_matches_long_run_count(seed):
    """MMPP's sojourn-weighted mean_rate predicts the long-run count."""
    rates, sojourns = (0.5, 8.0), (20.0, 5.0)
    proc = MMPPProcess(rates=rates, sojourns=sojourns)
    rng = np.random.default_rng(seed)
    horizon = 4000.0
    times = proc.times(rng, 0.0, horizon)
    expected = proc.mean_rate() * horizon
    # Phase-sojourn randomness widens the spread beyond pure Poisson. For
    # two phases with exponential sojourns (leave rates q_i = 1/sojourn_i,
    # stationary shares pi_i = q_j / (q_1 + q_2)) the long-run count variance
    # is Var N(T) ~= T * (mean_rate + 2 pi_1 pi_2 (l_1 - l_2)^2 / (q_1 + q_2)):
    # sigma ~= 544 here, against sqrt(8000) ~= 89 for Poisson. 6 sigma.
    q1, q2 = 1.0 / sojourns[0], 1.0 / sojourns[1]
    pi1, pi2 = q2 / (q1 + q2), q1 / (q1 + q2)
    burst = 2.0 * pi1 * pi2 * (rates[0] - rates[1]) ** 2 / (q1 + q2)
    sigma = np.sqrt(horizon * (proc.mean_rate() + burst))
    assert times.size == pytest.approx(expected, abs=6.0 * sigma)


@pytest.mark.parametrize(
    "proc",
    [
        PoissonProcess(rate=2.5),
        MMPPProcess(rates=(0.5, 8.0), sojourns=(20.0, 5.0)),
        DiurnalProcess(daily_volume=500.0, day_length=100.0, amplitude=0.8),
    ],
)
def test_processes_picklable_and_stable(proc):
    """Pool workers receive processes by pickle; the copy must generate
    the identical stream."""
    clone = pickle.loads(pickle.dumps(proc))
    assert clone == proc
    t1 = proc.times(np.random.default_rng(7), 0.0, 100.0)
    t2 = clone.times(np.random.default_rng(7), 0.0, 100.0)
    assert np.array_equal(t1, t2)


@pytest.mark.parametrize(
    "spec, kind",
    [
        ("poisson:2.5", PoissonProcess),
        ("mmpp:0.5,8@20,5", MMPPProcess),
        ("diurnal:500@100@0.6", DiurnalProcess),
        ("diurnal:500@100", DiurnalProcess),
    ],
)
def test_parse_arrival_spec_roundtrip(spec, kind):
    proc = parse_arrival_spec(spec)
    assert isinstance(proc, kind)
    assert proc.mean_rate() > 0


@pytest.mark.parametrize(
    "bad",
    [
        "nope",
        "poisson:",
        "poisson:-1",
        "poisson:abc",
        "mmpp:1,2",
        "mmpp:1@2",  # single phase
        "mmpp:0,0@5,5",  # all-zero rates
        "mmpp:1,2@0,5",  # nonpositive sojourn
        "diurnal:500",
        "diurnal:500@100@1.5",  # amplitude out of range
        "gamma:3",
    ],
)
def test_parse_arrival_spec_rejects(bad):
    with pytest.raises(WorkloadError):
        parse_arrival_spec(bad)
