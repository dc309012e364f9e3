"""The E10 wide-network sweep driver (small-scale functional checks)."""

import pytest

from repro.errors import ConfigError
from repro.experiments.parallel import cell_key
from repro.experiments.widenet import sweep_widenet, widenet_config


def test_widenet_config_applies_presets():
    cfg = widenet_config("geometric", 64, seed=5)
    assert cfg.topology == "geometric"
    assert cfg.topology_kwargs["n"] == 64
    assert cfg.routing_mode == "oracle"
    assert cfg.seed == 5
    assert cfg.label == "geometric-64"
    assert cfg.rho == pytest.approx(0.35)

    proto = widenet_config("barabasi_albert", 64, routing_mode="protocol")
    assert proto.routing_mode == "protocol"
    assert proto.topology == "barabasi_albert"


def test_widenet_config_rejects_unknown_kind():
    with pytest.raises(ConfigError):
        widenet_config("hypertorus", 64)


def test_cell_matrix_is_content_addressed_and_distinct():
    keys = {
        cell_key(widenet_config(kind, n, seed=seed))
        for kind in ("geometric", "barabasi_albert")
        for n in (16, 32)
        for seed in (0, 1)
    }
    assert len(keys) == 8  # every (kind, n, seed) resolves to a distinct key


def test_sweep_widenet_aggregates_across_seeds():
    rows = sweep_widenet(kinds=("geometric",), sizes=(16, 24), seeds=(0, 1))
    assert [(r["topology"], r["sites"]) for r in rows] == [
        ("geometric", 16),
        ("geometric", 24),
    ]
    for row in rows:
        assert row["runs"] == 2
        assert "±" in row["GR"]  # replicated cells report a CI
        assert row["jobs"] > 0
