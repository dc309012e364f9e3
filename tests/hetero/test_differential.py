"""Differential test layer: uniform speeds must be invisible (E11).

The heterogeneity tentpole threads ``speed`` through admission, mapping,
validation and execution. Its safety contract is *differential*: a
fixed-seed run with an explicitly uniform speed vector must be
bit-for-bit identical — every trace event, every scalar metric — to the
same run on the homogeneous code path (``site_speeds=None``), because
``c / 1.0`` must take the exact branches ``c`` always took.

The comparison reuses the canonical-trace machinery of
``tests/identity`` (uid-renumbered trace serialization + exact scalar
comparison), so a divergence pinpoints the first differing event.
"""

from dataclasses import replace

import pytest

from repro.experiments.hetero import hetero_config
from repro.experiments.runner import ExperimentConfig, run_experiment
from repro.metrics.summary import scalars_equal
from tests.identity.scenarios import snapshot


def _base_config(**overrides) -> ExperimentConfig:
    cfg = dict(
        topology="erdos_renyi",
        topology_kwargs={"n": 16, "p": 0.25, "delay_range": (0.2, 1.0)},
        duration=120.0,
        rho=0.7,
        seed=5,
        trace=True,
    )
    cfg.update(overrides)
    return ExperimentConfig(**cfg)


def _assert_snapshots_identical(a, b, label):
    sa, sb = snapshot(a), snapshot(b)
    for key in ("events_processed", "final_time", "setup_messages",
                "message_counts", "total_volume", "n_trace_events"):
        assert sa[key] == sb[key], f"{label}: {key} diverged"
    # NaN-aware exact comparison (repro.metrics.summary.scalars_equal):
    # an absent-mean metric is NaN on both sides and must compare equal
    assert scalars_equal(sa["scalar_metrics"], sb["scalar_metrics"]), (
        f"{label}: scalar_metrics diverged: {sa['scalar_metrics']} != {sb['scalar_metrics']}"
    )
    for i, (ga, gb) in enumerate(zip(sa["trace"], sb["trace"])):
        assert ga == gb, f"{label}: trace diverges at event {i}: {ga!r} != {gb!r}"
    assert sa["trace_sha256"] == sb["trace_sha256"]


def _e11_anchor(**overrides) -> ExperimentConfig:
    """E11's uniform anchor cell (24 sites, synthetic mix, seed 0), traced."""
    return replace(hetero_config("uniform", "synthetic"), trace=True, **overrides)


@pytest.mark.parametrize(
    "base, uniform_spec",
    [
        (_base_config, "uniform:1.0"),
        (_base_config, "uniform"),
        (_base_config, [1.0]),
        (_e11_anchor, "uniform:1.0"),
    ],
    ids=["uniform:1.0", "uniform", "uniform_spec2", "e11-anchor"],
)
def test_uniform_site_speeds_bit_identical(base, uniform_spec):
    """Explicit all-1.0 speeds replay the homogeneous run exactly."""
    default = run_experiment(base())
    explicit = run_experiment(base(site_speeds=uniform_spec))
    _assert_snapshots_identical(default, explicit, f"site_speeds={uniform_spec!r}")


def test_uniform_speeds_identical_per_algorithm():
    """The differential contract holds for every baseline, not just RTDS."""
    for algorithm in ("local", "focused", "centralized", "random"):
        default = run_experiment(_base_config(algorithm=algorithm, duration=80.0))
        explicit = run_experiment(
            _base_config(algorithm=algorithm, duration=80.0, site_speeds="uniform:1.0")
        )
        _assert_snapshots_identical(default, explicit, algorithm)


def test_trace_workload_differential():
    """Uniform speeds are invisible under trace-driven workloads too."""
    default = run_experiment(_base_config(workload="trace:epigenomics"))
    explicit = run_experiment(
        _base_config(workload="trace:epigenomics", site_speeds="uniform:1.0")
    )
    _assert_snapshots_identical(default, explicit, "trace:epigenomics")


def test_short_speed_vector_cycles_over_sites():
    """An explicit vector shorter than the network cycles over the sites
    (``speeds[sid % len]``): it must run exactly like the written-out one."""
    short = run_experiment(_base_config(site_speeds=[1.0, 2.0]))
    full = run_experiment(_base_config(site_speeds=[1.0, 2.0] * 8))
    _assert_snapshots_identical(short, full, "cycled-vs-full site_speeds")


def test_heterogeneous_run_is_deterministic():
    """Same seed, same skew profile -> the same run, twice."""
    cfg = _base_config(site_speeds="skew:4", workload="trace:montage")
    _assert_snapshots_identical(
        run_experiment(cfg), run_experiment(replace(cfg)), "skew:4 determinism"
    )


def test_heterogeneity_actually_changes_the_run():
    """Sanity: a genuine skew must NOT be invisible (the differential
    layer would be vacuous if the speed vector never reached the sites)."""
    default = snapshot(run_experiment(_base_config()))
    skewed = snapshot(run_experiment(_base_config(site_speeds="skew:4")))
    assert default["trace_sha256"] != skewed["trace_sha256"]
