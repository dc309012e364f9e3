"""Integration tests for the less-travelled RTDS configuration options."""

from dataclasses import replace

import pytest

from repro.core.config import RTDSConfig
from repro.core.events import JobOutcome
from repro.core.rtds import RTDSSite
from repro.experiments.runner import ExperimentConfig, run_experiment
from repro.experiments.verify import assert_sound
from repro.graphs.generators import linear_chain_dag, paper_example_dag
from repro.metrics.collector import MetricsCollector
from repro.simnet.engine import Simulator
from repro.simnet.topology import build_network, complete, torus
from repro.simnet.trace import Tracer

SMALL = ExperimentConfig(
    topology_kwargs={"n": 8, "p": 0.4, "delay_range": (0.2, 0.8)},
    rho=0.6,
    duration=150.0,
    seed=21,
)


def distributed_scenario(cfg: RTDSConfig, metrics: MetricsCollector):
    """Saturated site 0 forces the Fig-1 style distributed path."""
    sim = Simulator()
    tracer = Tracer(enabled=True)
    net = build_network(
        complete(4, delay_range=(1.0, 1.0)),
        sim,
        lambda sid, n: RTDSSite(sid, n, cfg, metrics=metrics),
        tracer,
    )
    for sid in net.site_ids():
        net.site(sid).start()
    sim.run()
    s0 = net.site(0)
    sim.schedule(1.0, lambda: s0.submit_job(0, linear_chain_dag(4, c_range=(20.0, 20.0)), sim.now + 400.0))
    sim.schedule(2.0, lambda: s0.submit_job(1, paper_example_dag(), sim.now + 60.0))
    sim.run()
    return sim, net, tracer


class TestManagementOverhead:
    def test_overhead_delays_protocol(self):
        def run(overhead):
            m = MetricsCollector()
            cfg = RTDSConfig(h=1)
            sim = Simulator()
            net = build_network(
                complete(4, delay_range=(1.0, 1.0)),
                sim,
                lambda sid, n: RTDSSite(sid, n, cfg, metrics=m, mgmt_overhead=overhead),
            )
            for sid in net.site_ids():
                net.site(sid).start()
            sim.run()
            s0 = net.site(0)
            sim.schedule(1.0, lambda: s0.submit_job(0, linear_chain_dag(4, c_range=(20.0, 20.0)), sim.now + 400.0))
            sim.schedule(2.0, lambda: s0.submit_job(1, paper_example_dag(), sim.now + 80.0))
            sim.run()
            return m.jobs[1].decision_latency

        fast = run(0.0)
        slow = run(0.5)
        assert slow > fast


class TestProtocolMargin:
    def test_zero_margin_risks_lateness(self, metrics):
        """margin factor 0: windows start immediately; the EXECUTE message
        arrives after some slots begin -> lateness is recorded (and the
        guarantee may be violated) — the reason §13 demands the margin."""
        cfg = RTDSConfig(h=1, protocol_margin_factor=0.0)
        sim, net, tracer = distributed_scenario(cfg, metrics)
        rec = metrics.jobs[1]
        if rec.outcome is JobOutcome.ACCEPTED_DISTRIBUTED:
            lateness = []
            for sid in net.site_ids():
                for key, r in net.site(sid).executor.records().items():
                    if key[0] == 1 and r.done:
                        lateness.append(r.lateness)
            assert any(l > 1e-9 for l in lateness)


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
        assert_sound(res)
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
