"""Integration tests for the less-travelled RTDS configuration options."""

from dataclasses import replace

import pytest

from repro.experiments.runner import ExperimentConfig, run_experiment
from repro.experiments.verify import verify_execution

SMALL = ExperimentConfig(
    topology_kwargs={"n": 8, "p": 0.4, "delay_range": (0.2, 0.8)},
    rho=0.6,
    duration=150.0,
    seed=21,
)


class TestOtherTopologies:
    @pytest.mark.parametrize(
        "topo_kind,kwargs",
        [
            ("torus", {"rows": 3, "cols": 3, "delay_range": (0.2, 0.6)}),
            ("geometric", {"n": 12, "radius": 0.45, "delay_scale": 1.0}),
            ("line", {"n": 10, "delay_range": (0.2, 0.5)}),
            ("watts_strogatz", {"n": 12, "k": 4, "beta": 0.3, "delay_range": (0.2, 0.6)}),
        ],
    )
    def test_rtds_sound_on_topology(self, topo_kind, kwargs):
        cfg = replace(SMALL, topology=topo_kind, topology_kwargs=kwargs, algorithm="rtds")
        res = run_experiment(cfg)
        assert res.summary.n_jobs > 0
        assert verify_execution(res) == []
        for site in res.network.sites.values():
            assert site.leaks() == []


class TestHotSpotWorkload:
    def test_spheres_rescue_hot_sites(self):
        """Skewed arrivals are where cooperation matters most: the hot
        sites' spheres absorb the overflow."""
        base = replace(
            SMALL,
            duration=250.0,
            rho=0.7,
            hot_fraction=0.75,
            hot_sites=1,
        )
        rtds = run_experiment(replace(base, algorithm="rtds"))
        local = run_experiment(replace(base, algorithm="local"))
        assert rtds.summary.guarantee_ratio > local.summary.guarantee_ratio + 0.1
        assert rtds.summary.n_missed == 0


class TestExecutionViz:
    def test_render_execution(self):
        """The collector records what actually ran: every finished task
        has a positive extent, after its job was decided."""
        res = run_experiment(replace(SMALL, algorithm="rtds"))
        decided = {r.job: r.decided_at for r in res.collector.records()}
        done = [(job, spans) for job, _task, _sid, spans in res.collector.executions()]
        assert done, "no executions recorded?"
        for job, spans in done:
            assert decided[job] <= spans[0][0] < spans[-1][1]
