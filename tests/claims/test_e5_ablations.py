"""E5 — ablations of the §13 generalizations.

Each extension the paper's discussion sketches — preemptive local
scheduling, busyness-weighted laxity, local knowledge of k, a bounded
ACS, queue-mode enrollment, uniform machines and the data-volume
communication model — works and keeps the guarantee honest.
"""

import math
from dataclasses import replace

import pytest

from repro.core.config import RTDSConfig
from repro.experiments.evaluation import sweep_ablations, sweep_uniform_machines
from repro.experiments.runner import ExperimentConfig, run_experiment
from repro.experiments.verify import verify_execution

BASE = ExperimentConfig(
    topology_kwargs={"n": 16, "p": 0.25, "delay_range": (0.2, 1.0)},
    rho=0.9,
    duration=250.0,
    laxity_factor=2.5,
    seed=31,
)


def test_e5_variant_ablations():
    by = {r["variant"]: r for r in sweep_ablations(BASE)}
    # preemptive dominates the non-preemptive feasibility tests
    assert by["preemptive"]["GR"] >= by["base"]["GR"] - 0.02
    # every variant still works (not degenerate) and honours guarantees
    for r in by.values():
        assert r["GR"] > 0.3, r
        assert not math.isnan(r["effGR"])
        assert r["effGR"] >= r["GR"] - 0.1, r


@pytest.fixture(scope="module")
def volume_runs():
    """E5c: the volume-aware and the naive-ω run of one data-volume cell."""
    common = replace(
        BASE,
        algorithm="rtds",
        link_throughput=4.0,
        data_volume_range=(2.0, 12.0),
        rho=0.7,
        laxity_factor=3.0,
    )
    aware = run_experiment(replace(common, rtds=RTDSConfig(h=2), label="volume-aware"))
    naive = run_experiment(
        replace(common, rtds=RTDSConfig(h=2, volume_aware_omega=False), label="naive-omega")
    )
    return aware, naive


def test_e5_data_volume_model(volume_runs):
    """§13 "Communication Delays": with finite link throughput and real
    data volumes, the ω/release augmentation keeps guarantees honest; the
    pure propagation model (volume_aware_omega=False) under-budgets
    transfers and guarantees start slipping (lateness/misses appear)."""
    aware, naive = (r.summary for r in volume_runs)
    # the volume-aware budget keeps the guarantee honest...
    assert aware.n_missed == 0
    # ...and delivers at least as many *honoured* guarantees as the naive
    # model, which both misses deadlines and wastes lock time on doomed
    # protocol runs.
    assert naive.n_missed >= aware.n_missed
    assert aware.effective_ratio >= naive.effective_ratio - 0.02


def test_e5_audit_names_every_missed_deadline(volume_runs):
    """The execution audit's deadline check sees exactly the misses the
    summary counts: one violation per late accepted job of the naive
    cell, none on the volume-aware cell."""
    aware, naive = volume_runs
    assert verify_execution(aware) == []
    issues = verify_execution(naive)
    assert naive.summary.n_missed > 0
    assert len(issues) == naive.summary.n_missed, issues
    assert all("missed its deadline" in i for i in issues), issues


def test_e5_uniform_machines():
    speed_sets = {
        "identical_1x": [1.0],
        "related_0.5-2x": [0.5, 1.0, 2.0],
        "extreme_0.25-4x": [0.25, 1.0, 4.0],
    }
    for r in sweep_uniform_machines(BASE, speed_sets):
        assert r["GR"] > 0.3
        assert r["effGR"] >= r["GR"] - 0.1
