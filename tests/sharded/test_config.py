"""Config validation and cell-key addressing for the sharded engine."""

from dataclasses import replace

import pytest

from repro.errors import ConfigError
from repro.experiments.parallel import cell_key, config_fingerprint
from repro.experiments.runner import ExperimentConfig, run_experiment
from repro.faults import FaultPlan, SiteJoinEvent

BASE = ExperimentConfig(
    topology="grid",
    topology_kwargs={"rows": 4, "cols": 4, "delay_range": (0.5, 1.0)},
    seed=0,
    duration=30.0,
    routing_mode="oracle",
)

SHARDED = replace(BASE, shards=2)


class TestValidation:
    def test_shards_alone_select_the_sharded_engine(self):
        # no second knob to agree with: the count is the engine choice,
        # and the sharded restrictions hang off it
        assert replace(BASE, shards=4).shards == 4
        with pytest.raises(ConfigError, match="shards=4"):
            replace(BASE, shards=4, routing_mode="protocol")

    def test_sharded_needs_at_least_two_shards(self):
        for bad in (1, -2):
            with pytest.raises(ConfigError, match="shards"):
                replace(BASE, shards=bad)

    def test_sharded_requires_oracle_routing(self):
        with pytest.raises(ConfigError, match="oracle"):
            replace(SHARDED, routing_mode="protocol")

    def test_sharded_rejects_centralized_baseline(self):
        with pytest.raises(ConfigError, match="algorithm"):
            replace(SHARDED, algorithm="centralized")

    def test_sharded_rejects_perturbing_fault_plans(self):
        plan = FaultPlan.from_spec("loss=0.05")
        with pytest.raises(ConfigError, match="fault"):
            replace(SHARDED, faults=plan)

    def test_sharded_rejects_membership_joins(self):
        plan = FaultPlan(join_events=(SiteJoinEvent(time=5.0, links=((0, 0.5),)),))
        with pytest.raises(ConfigError, match="fault"):
            replace(SHARDED, faults=plan)

    def test_sharded_accepts_the_zero_plan(self):
        # a zero plan is a no-op by contract, so it is not rejected
        replace(SHARDED, faults=FaultPlan())

    def test_sharded_rejects_tracing(self):
        with pytest.raises(ConfigError, match="trace"):
            replace(SHARDED, trace=True)

    def test_sharded_rejects_workload_replay(self):
        wl = run_experiment(BASE).workload
        assert wl is not None
        with pytest.raises(ConfigError, match="workload"):
            run_experiment(SHARDED, workload=wl)


class TestAddressing:
    def test_single_fingerprint_has_no_engine_keys(self):
        # pre-E14 cell keys must not shift: single-engine fingerprints
        # carry no engine coordinate at all
        fp = config_fingerprint(BASE)
        assert "engine_mode" not in fp and "shards" not in fp

    def test_sharded_fingerprint_keeps_shards(self):
        assert config_fingerprint(SHARDED)["shards"] == 2

    def test_cell_keys_distinguish_engines_and_shard_counts(self):
        keys = {
            cell_key(BASE),
            cell_key(SHARDED),
            cell_key(replace(SHARDED, shards=4)),
        }
        assert len(keys) == 3

    def test_label_still_excluded_from_sharded_fingerprint(self):
        assert config_fingerprint(SHARDED) == config_fingerprint(
            replace(SHARDED, label="renamed")
        )
