"""The E11 heterogeneity sweep driver: functional checks and the GR gate."""

from dataclasses import replace

import pytest

from repro.errors import ConfigError
from repro.experiments.hetero import (
    E11_SITES,
    E11_WORKLOAD,
    hetero_config,
    sweep_hetero,
)
from repro.experiments.parallel import cell_key
from repro.experiments.runner import ExperimentConfig


def test_hetero_config_applies_presets():
    cfg = hetero_config("skew:4", "trace:montage", seed=3)
    assert cfg.site_speeds == "skew:4"
    assert cfg.workload == "trace:montage"
    assert cfg.seed == 3
    assert cfg.label == "skew:4|trace:montage"
    assert cfg.topology_kwargs["n"] == E11_SITES
    assert cfg.rho == E11_WORKLOAD["rho"]
    assert cfg.duration == E11_WORKLOAD["duration"]


def test_uniform_profile_is_the_homogeneous_default_path():
    cfg = hetero_config("uniform", "synthetic")
    assert cfg.site_speeds is None
    assert cfg.workload == "synthetic"


def test_base_workload_knobs_are_honoured():
    """The CLI's --rho/--duration/--laxity land in ``base`` and must win."""
    base = ExperimentConfig(rho=0.9, duration=55.0, laxity_factor=2.0)
    cfg = hetero_config("skew:2", "synthetic", base=base)
    assert cfg.rho == 0.9
    assert cfg.duration == 55.0
    assert cfg.laxity_factor == 2.0


def test_n_sites_scales_the_cell_topology():
    """--sites reshapes the cells (constant mean degree, like E2/E10)."""
    small = hetero_config("uniform", "synthetic", n_sites=12)
    large = hetero_config("uniform", "synthetic", n_sites=48)
    assert small.topology_kwargs["n"] == 12
    assert large.topology_kwargs["n"] == 48
    assert large.topology_kwargs["p"] < small.topology_kwargs["p"]
    with pytest.raises(ConfigError):
        hetero_config("uniform", "synthetic", n_sites=2)


def test_hetero_config_rejects_bad_axes():
    with pytest.raises(ConfigError):
        hetero_config("skew:4", "trace:nope")
    with pytest.raises(ConfigError):
        hetero_config("warp:9", "synthetic")


def test_cell_matrix_is_content_addressed_and_distinct():
    keys = {
        cell_key(hetero_config(spec, workload, seed=seed))
        for spec in ("uniform", "skew:2")
        for workload in ("synthetic", "trace:montage")
        for seed in (0, 1)
    }
    assert len(keys) == 8


def test_sweep_hetero_aggregates_across_seeds():
    base = replace(ExperimentConfig(**E11_WORKLOAD), duration=60.0)
    rows = sweep_hetero(
        base=base,
        speed_specs=("uniform", "skew:4"),
        workloads=("trace:epigenomics",),
        seeds=(0, 1),
        n_sites=10,
    )
    assert [(r["speeds"], r["workload"]) for r in rows] == [
        ("uniform", "trace:epigenomics"),
        ("skew:4", "trace:epigenomics"),
    ]
    for row in rows:
        assert row["runs"] == 2
        assert "±" in row["GR"]
        assert row["jobs"] > 0


#: E11's guarantee ratio per (speed profile, workload) cell at the
#: defaults (24 sites, seed 0, ``E11_WORKLOAD``). The runs are seeded, so
#: a drift past ``GR_TOLERANCE`` is a behaviour change, not noise.
E11_GR = {
    ("uniform", "synthetic"): 0.9692307692307692,
    ("uniform", "trace:montage"): 0.8043478260869565,
    ("uniform", "trace:epigenomics"): 0.9375,
    ("skew:2", "synthetic"): 0.9461538461538461,
    ("skew:2", "trace:montage"): 0.8043478260869565,
    ("skew:2", "trace:epigenomics"): 0.9375,
    ("skew:4", "synthetic"): 0.8384615384615385,
    ("skew:4", "trace:montage"): 0.6956521739130435,
    ("skew:4", "trace:epigenomics"): 0.875,
}
GR_TOLERANCE = 0.02


def test_e11_default_matrix_holds_its_guarantee_ratios():
    """The E11 gate: every default cell is measured, each GR within 0.02."""
    rows = {(r["speeds"], r["workload"]): r for r in sweep_hetero()}
    # every pinned cell must be measured, or a changed axis passes vacuously
    assert set(rows) == set(E11_GR)
    for cell, pinned in E11_GR.items():
        assert abs(float(rows[cell]["GR"]) - pinned) <= GR_TOLERANCE, (cell, rows[cell]["GR"])
