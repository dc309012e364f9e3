"""Sharded engine ≡ single-process engine, scalar-metric bit for bit.

The E14 exactness contract: on partition-friendly cells (continuous delay
ranges, oracle routing, no faults) the multi-process conservative-window
engine must reproduce the single-process ``scalar_metrics`` exactly —
same accepted set, same lateness, same message counts. These cells are the
same shapes the identity goldens pin for the single engine.
"""

from dataclasses import replace

import pytest

from repro.experiments.runner import ExperimentConfig, run_experiment
from repro.experiments.widenet import widenet_topology
from repro.metrics.summary import scalars_equal

GRID = ExperimentConfig(
    topology="grid",
    topology_kwargs={"rows": 6, "cols": 6, "delay_range": (0.5, 1.0)},
    seed=3,
    duration=120.0,
    routing_mode="oracle",
    label="e14-grid",
)

GEOMETRIC = ExperimentConfig(
    topology=widenet_topology("geometric", 48)[0],
    topology_kwargs=widenet_topology("geometric", 48)[1],
    seed=1,
    duration=100.0,
    routing_mode="oracle",
    label="e14-geometric",
)

LOCAL = ExperimentConfig(
    topology="erdos_renyi",
    topology_kwargs={"n": 32, "p": 0.2, "delay_range": (0.2, 1.0)},
    seed=4,
    duration=100.0,
    routing_mode="oracle",
    algorithm="local",
    label="e14-local",
)


def _pair(base, shards):
    single = run_experiment(base)
    sharded = run_experiment(replace(base, shards=shards))
    return single, sharded


@pytest.fixture(scope="module")
def grid_single():
    return run_experiment(GRID)


@pytest.mark.parametrize("shards", [2, 4])
def test_grid_rtds_bit_for_bit(grid_single, shards):
    sharded = run_experiment(replace(GRID, shards=shards))
    assert scalars_equal(grid_single.scalar_metrics(), sharded.scalar_metrics()), (
        grid_single.scalar_metrics(),
        sharded.scalar_metrics(),
    )
    # message accounting is part of the contract too
    assert grid_single.network.stats.total == sharded.network.stats.total
    assert grid_single.network.stats.count == sharded.network.stats.count
    assert grid_single.network.stats.total_volume == sharded.network.stats.total_volume


def test_geometric_rtds_bit_for_bit():
    single, sharded = _pair(GEOMETRIC, 3)
    assert scalars_equal(single.scalar_metrics(), sharded.scalar_metrics()), (
        single.scalar_metrics(),
        sharded.scalar_metrics(),
    )
    assert single.network.stats.total == sharded.network.stats.total


def test_local_baseline_bit_for_bit():
    single, sharded = _pair(LOCAL, 2)
    assert scalars_equal(single.scalar_metrics(), sharded.scalar_metrics()), (
        single.scalar_metrics(),
        sharded.scalar_metrics(),
    )


def test_sharded_with_telemetry_matches_and_reports(grid_single):
    cfg = replace(GRID, shards=2, telemetry=True)
    sharded = run_experiment(cfg)
    assert scalars_equal(grid_single.scalar_metrics(), sharded.scalar_metrics())
    obs = sharded.telemetry
    assert obs is not None
    # merged per-type counters add up to the exact transmission total
    msg_counters = sum(
        v for k, v in obs.counters.items() if k.startswith("net.msgs.")
    )
    assert msg_counters == sharded.network.stats.total
    # per-shard gauges are namespaced, run-level gauges are not
    assert any(k.startswith("shard0.") for k in obs.gauges)
    assert "run.sim_time" in obs.gauges
    assert "admission_cache.hit_rate" in obs.gauges


def test_sharded_run_reports_shard_info(grid_single):
    sharded = run_experiment(replace(GRID, shards=4))
    info = sharded.sharding
    assert info is not None
    assert info.n_shards == 4
    assert len(info.part_sizes) == 4 and sum(info.part_sizes) == 36
    assert info.n_cut_edges > 0
    assert len(info.wall_per_shard) == 4
    assert info.lookahead > 0
    assert info.barriers > 0
    assert sum(info.events_per_shard) == sharded.network.sim.events_processed
    # sharded runs do not ship the workload back; single runs do
    assert sharded.workload is None
    assert grid_single.workload is not None
    assert grid_single.sharding is None


def test_a_worker_killed_mid_run_is_reported_not_a_bare_eof(monkeypatch):
    """A shard process that dies without sending its traceback (killed, out
    of memory) must surface as a SimulationError naming the shard and the
    window it was last sent — not as an EOFError from the pipe."""
    import multiprocessing
    import os

    from repro.errors import SimulationError
    from repro.simnet.sharded import coordinator

    if multiprocessing.get_start_method() != "fork":
        pytest.skip("the dying worker is a closure: it needs a forking start method")

    class DiesOnFirstWindow:
        def __init__(self, conn):
            self._conn = conn

        def recv(self):
            msg = self._conn.recv()
            if msg[0] == "window":
                os._exit(1)
            return msg

        def __getattr__(self, name):
            return getattr(self._conn, name)

    real_main = coordinator.shard_worker_main

    def worker(conn, config, topo, plan, shard_id):
        real_main(DiesOnFirstWindow(conn) if shard_id == 1 else conn, config, topo, plan, shard_id)

    monkeypatch.setattr(coordinator, "shard_worker_main", worker)
    with pytest.raises(SimulationError, match=r"shard 1 worker died .*last window_end sent: \d"):
        run_experiment(replace(GRID, shards=2))
