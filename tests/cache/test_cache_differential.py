"""Admission-cache differential suite: cache on ≡ cache off, bit for bit.

The plan cache (:mod:`repro.core.admission_cache`) may only ever change
*when* an endorsement is computed, never *what* it says. This suite holds
it to that across the workload matrix — synthetic and trace DAG shapes,
heterogeneous speeds, fault plans, oracle routing — by comparing full
run snapshots (trace stream + scalar metrics) between ``admission_cache=
True`` and ``False`` runs of the same config. The trace scenarios are
also where the cache actually pays (a handful of DAG shapes re-admitted
thousands of times), so the hit-rate floor lives here too.
"""

import pytest

from repro.experiments.runner import ExperimentConfig, run_experiment
from repro.experiments.parallel import config_fingerprint
from repro.metrics.summary import scalars_equal
from repro.core.config import RTDSConfig
from repro.faults.plan import hardened
from tests.identity.scenarios import churn_plan, snapshot


def _config(**overrides) -> ExperimentConfig:
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


def _assert_cache_invisible(label: str, **overrides) -> None:
    on = run_experiment(_config(admission_cache=True, **overrides))
    off = run_experiment(_config(admission_cache=False, **overrides))
    son, soff = snapshot(on), snapshot(off)
    for key in ("events_processed", "final_time", "setup_messages",
                "message_counts", "total_volume", "n_trace_events"):
        assert son[key] == soff[key], f"{label}: {key} diverged"
    assert scalars_equal(son["scalar_metrics"], soff["scalar_metrics"]), (
        f"{label}: scalar_metrics diverged"
    )
    for i, (ga, gb) in enumerate(zip(son["trace"], soff["trace"])):
        assert ga == gb, f"{label}: trace diverges at event {i}: {ga!r} != {gb!r}"
    assert son["trace_sha256"] == soff["trace_sha256"], f"{label}: trace hash diverged"


def test_cache_invisible_synthetic():
    _assert_cache_invisible("synthetic")


@pytest.mark.parametrize("trace_name", ["trace:montage", "trace:epigenomics"])
def test_cache_invisible_trace_workloads(trace_name):
    _assert_cache_invisible(trace_name, workload=trace_name)


def test_cache_invisible_heterogeneous_speeds():
    _assert_cache_invisible("hetero", site_speeds="skew:4", workload="trace:montage")


def test_cache_invisible_under_faults():
    _assert_cache_invisible(
        "faults",
        faults=churn_plan("moderate", 120.0, seed=3),
        duration=100.0,
        rtds=hardened(RTDSConfig()),
    )


def test_cache_invisible_oracle_routing():
    _assert_cache_invisible("oracle", routing_mode="oracle")


def test_cache_flag_excluded_from_fingerprint():
    """Cache on/off cannot change a campaign cell key (result-invisible)."""
    on = config_fingerprint(_config(admission_cache=True))
    off = config_fingerprint(_config(admission_cache=False))
    assert on == off


def test_trace_scenario_hit_rate_floor():
    """The cache must actually work where it is meant to: trace shapes.

    Montage at rho 0.7 measured ~17% on the seed machine; 10% is the
    regression floor (the E9 bench gates the macro scenario in CI).
    """
    res = run_experiment(_config(workload="trace:montage", trace=False))
    cache = res.network.admission_cache
    assert cache.hits + cache.misses > 100, "too few cacheable lookups to judge"
    assert cache.hit_rate() >= 0.10, (
        f"hit rate collapsed: {cache.hit_rate():.3f} "
        f"({cache.hits} hits / {cache.misses} misses / {cache.uncacheable} uncacheable)"
    )
    assert cache.invalidations > 0, "sessions ended but nothing was invalidated"


def test_cache_off_is_pure_passthrough():
    """Disabled cache keeps no state and counts nothing."""
    res = run_experiment(_config(admission_cache=False, trace=False))
    cache = res.network.admission_cache
    assert cache.stats() == {
        "hits": 0, "misses": 0, "uncacheable": 0,
        "invalidations": 0, "live_entries": 0,
    }
