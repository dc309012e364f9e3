"""Edge-path tests for baselines and the remaining CLI command."""

from dataclasses import replace

from repro.baselines.centralized import CentralizedSite
from repro.baselines.focused import FocusedSite
from repro.core.events import JobOutcome
from repro.experiments.runner import ExperimentConfig, run_experiment
from repro.faults import FaultPlan, SiteDownWindow
from repro.graphs.generators import linear_chain_dag, paper_example_dag
from repro.routing.reference import dijkstra, hop_diameter
from repro.simnet.engine import Simulator
from repro.simnet.topology import build_network, complete


def build(topo, factory, setup_until=None):
    sim = Simulator()
    net = build_network(topo, sim, factory)
    for sid in net.site_ids():
        net.site(sid).start()
    sim.run(until=setup_until)
    return sim, net


class TestFocusedBidPaths:
    def test_all_bids_arrive_before_timer(self, metrics):
        """With a long bid_wait, the bid-completion path (not the timer)
        ships the job — exercising _bids_done(focused=None)."""
        topo = complete(5, delay_range=(0.2, 0.2))
        sim, net = build(
            topo,
            lambda sid, n: FocusedSite(
                sid, n, routing_phases=1, bid_wait=500.0, metrics=metrics,
            ),
            setup_until=25.0,
        )
        s0 = net.site(0)
        sim.schedule(1.0, lambda: s0.submit_job(0, linear_chain_dag(3, c_range=(30.0, 30.0)), sim.now + 700.0))
        sim.schedule(2.0, lambda: s0.submit_job(1, paper_example_dag(), sim.now + 50.0))
        sim.run(until=sim.now + 200.0)
        rec = metrics.jobs[1]
        assert rec.outcome is JobOutcome.ACCEPTED_DISTRIBUTED
        # the decision came well before the 500-unit bid timer
        assert rec.decision_latency < 100.0

    def test_no_known_sites_rejects(self, metrics):
        """With an empty surplus table, focused addressing has no
        candidates and must reject outright (no hang, no crash)."""
        topo = complete(3, delay_range=(5.0, 5.0))
        sim, net = build(
            topo,
            lambda sid, n: FocusedSite(sid, n, routing_phases=1, metrics=metrics),
            setup_until=11.0,
        )
        s2 = net.site(2)
        sim.schedule(0.1, lambda: s2.submit_job(0, linear_chain_dag(3, c_range=(30.0, 30.0)), sim.now + 500.0))
        # forcibly blind the site right before the second arrival
        sim.schedule(0.15, lambda: s2.known_surplus.clear())
        sim.schedule(0.2, lambda: s2.submit_job(1, paper_example_dag(), sim.now + 40.0))
        sim.run(until=sim.now + 30.0)
        assert metrics.jobs[1].outcome is JobOutcome.REJECTED_NO_SPHERE


class TestCentralizedSpeeds:
    def test_heterogeneous_speeds_respected(self, metrics):
        topo = complete(3, delay_range=(0.2, 0.2))
        phases = hop_diameter(topo.adjacency())
        speeds = {0: 1.0, 1: 5.0, 2: 1.0}
        sim, net = build(
            topo,
            lambda sid, n: CentralizedSite(
                sid, n, routing_phases=phases, speed=speeds[sid], metrics=metrics
            ),
        )
        adj = topo.adjacency()
        net.site(0).install_coordinator(
            dict(net.sites), {s: dijkstra(adj, s) for s in adj}
        )
        s0 = net.site(0)
        # tight chain: only the 5x site can make it
        sim.schedule(1.0, lambda: s0.submit_job(0, linear_chain_dag(4, c_range=(10.0, 10.0)), sim.now + 12.0))
        sim.run()
        rec = metrics.jobs[0]
        assert rec.outcome is JobOutcome.ACCEPTED_DISTRIBUTED
        assert rec.hosts == [1]
        assert rec.met_deadline is True


class TestCentralizedCoordinatorLoss:
    def test_partitioned_coordinator_names_its_losses(self):
        """Coordinator churn yields LOST_COORDINATOR, not silence."""
        base = ExperimentConfig(
            topology="erdos_renyi",
            topology_kwargs={"n": 12, "p": 0.3, "delay_range": (0.2, 1.0)},
            duration=150.0,
            seed=5,
            algorithm="centralized",
        )
        coord = run_experiment(base).network.sites[0].coordinator_id
        plan = FaultPlan(site_windows=(SiteDownWindow(site=coord, start=10.0, end=220.0),))
        res = run_experiment(replace(base, faults=plan))
        outcomes = [r.outcome for r in res.collector.records()]
        assert JobOutcome.LOST_COORDINATOR in outcomes
        # the loss is named, so the denominator is intact: every arrival decided
        assert res.collector.n_arrived() == len(outcomes)


class TestCliAblations:
    def test_sweep_ablations_command(self, capsys):
        from repro.cli import main

        rc = main(
            ["sweep-ablations", "--sites", "6", "--duration", "40", "--rho", "0.5"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "E5" in out and "base" in out and "preemptive" in out
