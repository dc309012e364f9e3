"""Tests for the parallel campaign runtime (repro.experiments.parallel)."""

import json
import math
from dataclasses import replace
from unittest import mock

import pytest

from repro.core.config import RTDSConfig
from repro.errors import CampaignCellError, ConfigError
from repro.experiments import campaign, evaluation
from repro import api
from repro.experiments.campaign import sweep_fault_plans
from repro.experiments.parallel import (
    CampaignStore,
    CellResult,
    PoolExecutor,
    ResultStore,
    SerialExecutor,
    cell_key,
    config_fingerprint,
    make_executor,
    raise_on_failures,
    run_cell,
    run_cells,
    same_metrics,
)
from repro.experiments.runner import ExperimentConfig
from repro.experiments.widenet import widenet_config
from repro.faults import FaultPlan, hardened

SMALL = ExperimentConfig(
    topology_kwargs={"n": 6, "p": 0.5, "delay_range": (0.2, 0.8)},
    rho=0.7,
    duration=50.0,
    algorithm="local",
)


def boom_factory(rng):
    """Module-level crashing dag factory (must pickle for pool tests)."""
    raise RuntimeError("boom")


def _sweep_cells(sweep, *args, module=evaluation, base=None):
    """The configs ``sweep`` runs over ``base`` (default: the default
    config), without running them."""
    cells = []

    def capture(rows, columns, **_):
        cells.extend(cfg for _, configs in rows for cfg in configs)

    with mock.patch.object(module, "sweep_table", capture):
        sweep(base or ExperimentConfig(), *args)
    return cells


#: Literal cell keys of the E1–E5 sweeps' cells, the E7 sweep's cells over
#: a hardened config at the ``rtds sweep-faults`` default losses, and one
#: E10 cell. A key is the address of a cached campaign cell in every
#: result store, so a config field that is added to or removed from
#: ``ExperimentConfig`` or ``RTDSConfig`` without changing behaviour must
#: leave all of them where they are.
PINNED_CELL_KEYS = {
    "E1 sweep_load": (
        lambda: _sweep_cells(evaluation.sweep_load, ["rtds", "local"], [0.3, 0.6, 0.9]),
        ["452b91a601522dd1", "6482c28cfdd5a5ab", "89f1b1996dd49b70",
         "79293ccf22448989", "ce247e458cc5ce18", "eec2116c7da6ad37"],
    ),
    "E2 sweep_network_size": (
        lambda: _sweep_cells(evaluation.sweep_network_size, ["rtds", "focused"], [16, 36, 64]),
        ["f98d8fffc3fdb638", "486672ade49e1fcf", "82f86a8bced07a5a",
         "32640a22621f9936", "747e03b33957f96a", "46ee566ba942f735"],
    ),
    "E3 sweep_sphere_radius": (
        lambda: _sweep_cells(evaluation.sweep_sphere_radius, [1, 2, 3]),
        ["571db45015f0d442", "6482c28cfdd5a5ab", "5451d73303ff1909"],
    ),
    "E5 sweep_ablations": (
        lambda: _sweep_cells(evaluation.sweep_ablations),
        ["6482c28cfdd5a5ab", "c3daacb2709f63b1", "390796253de6baae", "7e819ca70d371b73",
         "dd2943cce3ee9276", "14df2442f5628bbf", "4c0ae1bbbe2f94f4"],
    ),
    "E7 sweep_fault_plans": (
        lambda: _sweep_cells(
            sweep_fault_plans,
            [(f"loss={p:g}", FaultPlan().scaled(p)) for p in (0.0, 0.05, 0.15, 0.3)],
            module=campaign,
            base=replace(ExperimentConfig(), rtds=hardened(RTDSConfig())),
        ),
        ["7157ec5369b3e372", "9b2b98b19fdcc760", "35fe487e02474dcd", "8ebec44921c5f165"],
    ),
    "E10 geometric-1024": (
        lambda: [widenet_config("geometric", 1024)],
        ["53a454dbca034b86"],
    ),
}


class TestCellKey:
    def test_stable_across_calls(self):
        assert cell_key(SMALL) == cell_key(replace(SMALL))

    def test_label_is_display_only(self):
        for cfg in (SMALL, widenet_config("geometric", 1024)):
            assert cell_key(cfg) == cell_key(replace(cfg, label="renamed"))
            assert "label" not in config_fingerprint(cfg)

    @pytest.mark.parametrize("sweep", sorted(PINNED_CELL_KEYS))
    def test_cell_keys_are_pinned(self, sweep):
        cells, keys = PINNED_CELL_KEYS[sweep]
        assert [cell_key(cfg) for cfg in cells()] == keys

    @pytest.mark.parametrize(
        "change",
        [
            {"seed": 1},
            {"rho": 0.8},
            {"algorithm": "rtds"},
            {"rtds": RTDSConfig(h=3)},
            {"faults": FaultPlan(delay_jitter=0.1)},
            {"topology_kwargs": {"n": 7, "p": 0.5, "delay_range": (0.2, 0.8)}},
        ],
    )
    def test_sensitive_to_behaviour_fields(self, change):
        base = replace(SMALL, rtds=hardened(RTDSConfig(), ack_timeout=5.0))
        assert cell_key(base) != cell_key(replace(base, **change))

    def test_callable_factories_fingerprint_by_name(self):
        cfg = replace(SMALL, dag_factory=boom_factory)
        fp = json.dumps(config_fingerprint(cfg))
        assert "boom_factory" in fp
        assert cell_key(cfg) != cell_key(SMALL)

    def test_fingerprint_is_json_roundtrippable(self):
        fp = config_fingerprint(replace(SMALL, faults=FaultPlan(loss_prob=0.1)))
        assert json.loads(json.dumps(fp, sort_keys=True)) == fp

    def test_int_and_float_spellings_share_a_key(self):
        assert cell_key(replace(SMALL, duration=50)) == cell_key(
            replace(SMALL, duration=50.0)
        )

    def test_non_string_mapping_keys_rejected(self):
        cfg = replace(
            SMALL, topology_kwargs={**SMALL.topology_kwargs, 1: "collides"}
        )
        with pytest.raises(ConfigError, match="non-string keys"):
            cell_key(cfg)

    def test_numpy_values_normalize_to_python(self):
        import numpy as np

        as_list = replace(SMALL, site_speeds=[1.0, 2.0])
        as_array = replace(SMALL, site_speeds=np.array([1.0, 2.0]))
        assert cell_key(as_list) == cell_key(as_array)

    def test_lambda_factories_rejected(self):
        cfg = replace(SMALL, dag_factory=lambda rng: None)
        with pytest.raises(ConfigError, match="lambda"):
            cell_key(cfg)

    def test_unfingerprintable_values_rejected(self):
        class Opaque:
            pass

        cfg = replace(
            SMALL,
            topology_kwargs={**SMALL.topology_kwargs, "oracle": Opaque()},
        )
        with pytest.raises(ConfigError, match="fingerprint"):
            cell_key(cfg)


class TestCellResult:
    def test_run_cell_ok(self):
        res = run_cell(SMALL)
        assert res.ok and res.status == "ok"
        assert res.key == cell_key(SMALL)
        assert 0.0 <= res.metrics["guarantee_ratio"] <= 1.0
        assert res.faults["lost_messages"] == 0
        assert res.elapsed > 0.0

    def test_run_cell_failure_is_contained(self):
        res = run_cell(replace(SMALL, dag_factory=boom_factory))
        assert not res.ok
        assert "RuntimeError: boom" in res.error
        assert res.metrics == {}

    def test_json_roundtrip_preserves_nan(self):
        res = run_cell(SMALL)  # local runs have NaN mean_acs_size
        assert math.isnan(res.metrics["mean_acs_size"])
        back = CellResult.from_json(res.to_json())
        assert back.key == res.key and back.seed == res.seed
        assert same_metrics(back, res)

    def test_same_metrics_is_nan_aware(self):
        a = CellResult("k", "local", 0, "local", "ok", metrics={"x": float("nan")})
        b = CellResult("k", "local", 0, "local", "ok", metrics={"x": float("nan")})
        assert a.metrics != b.metrics  # plain dict equality fails on NaN
        assert same_metrics(a, b)


class TestStore:
    def test_append_load_last_wins(self, tmp_path):
        store = CampaignStore(tmp_path / "c.jsonl")
        store.append(CellResult("k1", "local", 0, "local", "failed", error="x"))
        store.append(CellResult("k1", "local", 0, "local", "ok", metrics={"GR": 1.0}))
        loaded = store.load()
        assert loaded["k1"].ok
        assert store.failed() == []

    def test_failed_cells_not_completed(self, tmp_path):
        store = CampaignStore(tmp_path / "c.jsonl")
        store.append(CellResult("k1", "local", 0, "local", "failed", error="x"))
        assert not store.load()["k1"].ok
        assert [r.key for r in store.failed()] == ["k1"]

    def test_torn_tail_tolerated(self, tmp_path):
        store = CampaignStore(tmp_path / "c.jsonl")
        store.append(CellResult("k1", "local", 0, "local", "ok"))
        with store.path.open("a") as f:
            f.write('{"key": "k2", "trunc')  # killed mid-write
        assert set(store.load()) == {"k1"}

    def test_append_after_torn_tail_starts_fresh_line(self, tmp_path):
        store = CampaignStore(tmp_path / "c.jsonl")
        with store.path.open("w") as f:
            f.write('{"key": "k1", "trunc')  # previous writer died mid-line
        store.append(CellResult("k2", "local", 0, "local", "ok"))
        assert set(store.load()) == {"k2"}  # not glued onto the fragment

    def test_result_store_layout(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        camp = store.campaign("e1")
        camp.append(CellResult("k", "local", 0, "local", "ok"))
        assert (tmp_path / "store" / "e1.jsonl").exists()
        assert store.campaigns() == ["e1"]

    def test_store_rejects_path_traversal_names(self, tmp_path):
        with pytest.raises(ConfigError):
            ResultStore(tmp_path).campaign("../evil")


class TestExecutors:
    def test_make_executor_specs(self):
        assert isinstance(make_executor(None), SerialExecutor)
        assert isinstance(make_executor("serial"), SerialExecutor)
        assert isinstance(make_executor(1), SerialExecutor)
        assert make_executor(4).jobs == 4
        assert make_executor("pool(3)").jobs == 3
        inst = PoolExecutor(2)
        assert make_executor(inst) is inst

    @pytest.mark.parametrize("bad", ["pool", "pool(x)", "fleet(2)", True, 2.5, 0, -4])
    def test_make_executor_rejects_bad_specs(self, bad):
        with pytest.raises(ConfigError):
            make_executor(bad)

    def test_pool_requires_two_jobs(self):
        with pytest.raises(ConfigError):
            PoolExecutor(1)

    def test_pool_rejects_unpicklable_cells(self):
        cfg = replace(SMALL, dag_factory=lambda rng: None)
        with pytest.raises(ConfigError, match="pickle"):
            PoolExecutor(2).run([("explicit-key", cfg)])

    def test_serial_pool_identity(self):
        cells = [(cell_key(c), c) for c in (replace(SMALL, seed=s) for s in (0, 1))]
        serial = run_cells(cells, executor="serial")
        pool = run_cells(cells, executor="pool(2)")
        assert all(same_metrics(serial[k], pool[k]) for k, _ in cells)


class TestRunCells:
    def test_duplicate_keys_run_once(self):
        key = cell_key(SMALL)
        executed = []
        out = run_cells(
            [(key, SMALL), (key, replace(SMALL, label="twin"))],
            progress=lambda r, done, total: executed.append(r.key),
        )
        assert executed == [key]
        assert set(out) == {key}

    def test_store_skips_completed(self, tmp_path):
        store = CampaignStore(tmp_path / "c.jsonl")
        cells = [(cell_key(c), c) for c in (replace(SMALL, seed=s) for s in range(3))]
        run_cells(cells[:2], store=store)
        executed = []
        out = run_cells(
            cells, store=store, progress=lambda r, done, total: executed.append(r.key)
        )
        assert executed == [cells[2][0]]
        assert len(out) == 3 and all(r.ok for r in out.values())

    def test_skip_completed_false_reexecutes(self, tmp_path):
        store = CampaignStore(tmp_path / "c.jsonl")
        cells = [(cell_key(SMALL), SMALL)]
        run_cells(cells, store=store)
        executed = []
        run_cells(
            cells, store=store, skip_completed=False,
            progress=lambda r, done, total: executed.append(r.key),
        )
        assert executed == [cells[0][0]]

    def test_failures_recorded_and_retried(self, tmp_path):
        store = CampaignStore(tmp_path / "c.jsonl")
        good = replace(SMALL, seed=0)
        bad = replace(SMALL, seed=1, dag_factory=boom_factory)
        cells = [(cell_key(good), good), (cell_key(bad), bad)]
        results = run_cells(cells, store=store)
        with pytest.raises(CampaignCellError) as err:
            raise_on_failures(results)
        assert cell_key(bad) in str(err.value) and "seed=1" in str(err.value)
        assert [r.key for r in store.failed()] == [cell_key(bad)]
        # resume retries only the failed cell
        executed = []
        run_cells(cells, store=store, progress=lambda r, d, t: executed.append(r.key))
        assert executed == [cell_key(bad)]


class TestCampaignRuntime:
    def test_campaign_pool_matches_serial(self):
        serial = api.campaign(SMALL, ["local"], seeds=[0, 1])
        pooled = api.campaign(SMALL, ["local"], seeds=[0, 1], executor="pool(2)")
        assert serial == pooled

    def test_campaign_resumes_from_store(self, tmp_path):
        store = ResultStore(tmp_path).campaign("camp")
        first = api.campaign(SMALL, ["local"], seeds=[0, 1], store=store)
        executed = []
        again = api.campaign(
            SMALL, ["local"], seeds=[0, 1], store=store,
            progress=lambda r, done, total: executed.append(r.key),
        )
        assert executed == []  # everything came from the store
        assert again == first and again[0]["runs"] == 2

    def test_campaign_failure_is_loud_and_resumable(self, tmp_path):
        store = ResultStore(tmp_path).campaign("camp")
        bad = replace(SMALL, dag_factory=boom_factory)
        with pytest.raises(CampaignCellError) as err:
            api.campaign(bad, ["local"], seeds=[0, 1], store=store)
        assert len(err.value.failures) == 2
        assert "seed=0" in str(err.value) and "seed=1" in str(err.value)
        assert len(store.failed()) == 2

    def test_sweep_fault_plans_parallel_identity(self):
        base = replace(
            SMALL, algorithm="rtds", rtds=hardened(RTDSConfig(), ack_timeout=5.0)
        )
        plans = [("zero", FaultPlan()), ("loss", FaultPlan(loss_prob=0.1, seed=1))]
        serial = sweep_fault_plans(base, plans, seeds=[0, 1])
        pooled = sweep_fault_plans(base, plans, seeds=[0, 1], executor="pool(2)")
        assert serial == pooled

    def test_sweep_fault_plans_resumes(self, tmp_path):
        store = ResultStore(tmp_path).campaign("sweep")
        base = replace(
            SMALL, algorithm="rtds", rtds=hardened(RTDSConfig(), ack_timeout=5.0)
        )
        plans = [("zero", FaultPlan())]
        first = sweep_fault_plans(base, plans, seeds=[0, 1], store=store)
        executed = []
        again = sweep_fault_plans(
            base, plans, seeds=[0, 1], store=store,
            progress=lambda r, done, total: executed.append(r.key),
        )
        assert executed == []
        assert first == again
