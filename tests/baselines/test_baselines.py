"""Tests for the baseline schedulers."""


from repro.baselines.centralized import CentralizedSite
from repro.baselines.focused import FocusedSite
from repro.baselines.local_only import LocalOnlySite
from repro.baselines.random_offload import RandomOffloadSite
from repro.core.events import JobOutcome
from repro.graphs.generators import linear_chain_dag, paper_example_dag
from repro.metrics.collector import MetricsCollector
from repro.routing.reference import dijkstra, hop_diameter
from repro.simnet.engine import Simulator
from repro.simnet.topology import build_network, complete, line


def build(topo, factory, setup_until=None):
    """Build + start sites. ``setup_until`` bounds the setup run for sites
    with never-ending periodic events (focused addressing's broadcast)."""
    sim = Simulator()
    net = build_network(topo, sim, factory)
    for sid in net.site_ids():
        net.site(sid).start()
    sim.run(until=setup_until)
    return sim, net


class TestLocalOnly:
    def test_accepts_when_idle(self, metrics):
        topo = complete(3, delay_range=(1.0, 1.0))
        sim, net = build(topo, lambda sid, n: LocalOnlySite(sid, n, metrics=metrics))
        s = net.site(0)
        sim.schedule(1.0, lambda: s.submit_job(0, paper_example_dag(), sim.now + 100.0))
        sim.run()
        assert metrics.jobs[0].outcome is JobOutcome.ACCEPTED_LOCAL
        assert metrics.jobs[0].met_deadline is True

    def test_rejects_when_busy_never_offloads(self, metrics):
        topo = complete(3, delay_range=(1.0, 1.0))
        sim, net = build(topo, lambda sid, n: LocalOnlySite(sid, n, metrics=metrics))
        s = net.site(0)
        before_msgs = net.stats.total
        sim.schedule(1.0, lambda: s.submit_job(0, linear_chain_dag(3, c_range=(30.0, 30.0)), sim.now + 400.0))
        sim.schedule(2.0, lambda: s.submit_job(1, paper_example_dag(), sim.now + 50.0))
        sim.run()
        assert metrics.jobs[1].outcome is JobOutcome.REJECTED_NO_SPHERE
        assert net.stats.total == before_msgs  # zero communication, ever


class TestCentralized:
    def make(self, metrics, topo=None):
        topo = topo or complete(4, delay_range=(0.5, 0.5))
        phases = max(1, hop_diameter(topo.adjacency()))
        sim, net = build(
            topo,
            lambda sid, n: CentralizedSite(sid, n, routing_phases=phases, metrics=metrics),
        )
        adj = topo.adjacency()
        distances = {s: dijkstra(adj, s) for s in adj}
        net.site(0).install_coordinator(dict(net.sites), distances)
        return sim, net

    def test_remote_job_routed_to_coordinator(self, metrics):
        sim, net = self.make(metrics)
        s3 = net.site(3)
        sim.schedule(1.0, lambda: s3.submit_job(0, paper_example_dag(), sim.now + 100.0))
        sim.run()
        rec = metrics.jobs[0]
        assert rec.outcome is JobOutcome.ACCEPTED_DISTRIBUTED
        assert rec.met_deadline is True
        assert net.stats.count.get("C_JOB_SUBMIT", 0) >= 1

    def test_spreads_over_sites(self, metrics):
        sim, net = self.make(metrics)
        s0 = net.site(0)
        # wide fork-join: the oracle should parallelise it
        from repro.graphs.generators import fork_join_dag

        # 6 parallel tasks of 10 on 4 sites need two rounds: makespan ~41;
        # a single site would need 80 — deadline 50 forces spreading.
        sim.schedule(1.0, lambda: s0.submit_job(0, fork_join_dag(6, c_range=(10.0, 10.0)), sim.now + 50.0))
        sim.run()
        rec = metrics.jobs[0]
        assert rec.outcome is JobOutcome.ACCEPTED_DISTRIBUTED
        assert len(rec.hosts) >= 2
        assert rec.met_deadline is True

    def test_rejects_infeasible(self, metrics):
        sim, net = self.make(metrics)
        s1 = net.site(1)
        sim.schedule(1.0, lambda: s1.submit_job(0, linear_chain_dag(3, c_range=(20.0, 20.0)), sim.now + 30.0))
        sim.run()
        assert metrics.jobs[0].outcome is JobOutcome.REJECTED_MAPPER

    def test_no_double_booking_with_in_flight_assignments(self, metrics):
        """Two jobs decided back-to-back must not collide on remote sites."""
        sim, net = self.make(metrics)
        s2, s3 = net.site(2), net.site(3)
        dag = linear_chain_dag(2, c_range=(8.0, 8.0))
        sim.schedule(1.0, lambda: s2.submit_job(0, dag, sim.now + 60.0))
        sim.schedule(1.01, lambda: s3.submit_job(1, linear_chain_dag(2, c_range=(8.0, 8.0)), sim.now + 60.0))
        sim.run()  # plan.commit would raise on a double-book
        assert metrics.jobs[0].outcome.accepted
        assert metrics.jobs[1].outcome.accepted


class TestFocused:
    def make(self, metrics):
        topo = complete(4, delay_range=(0.5, 0.5))
        phases = max(1, hop_diameter(topo.adjacency()))
        sim, net = build(
            topo,
            lambda sid, n: FocusedSite(sid, n, routing_phases=phases, metrics=metrics),
            setup_until=45.0,  # a couple of broadcast rounds prime the tables
        )
        return sim, net

    def test_surplus_flooding_fills_tables(self, metrics):
        sim, net = self.make(metrics)
        for sid in net.site_ids():
            known = net.site(sid).known_surplus
            assert set(known) == set(net.site_ids()) - {sid}

    def test_offload_after_local_reject(self, metrics):
        sim, net = self.make(metrics)
        s0 = net.site(0)
        sim.schedule(1.0, lambda: s0.submit_job(0, linear_chain_dag(3, c_range=(30.0, 30.0)), sim.now + 400.0))
        # deadline 60: too tight for site 0 (busy until ~136) but easy remotely
        sim.schedule(25.0, lambda: s0.submit_job(1, paper_example_dag(), sim.now + 60.0))
        sim.run(until=200.0)
        rec = metrics.jobs[1]
        assert rec.outcome is JobOutcome.ACCEPTED_DISTRIBUTED
        assert rec.hosts and rec.hosts[0] != 0
        assert rec.met_deadline is True

    def test_broadcast_traffic_scales_with_network(self, metrics):
        """The E2 effect in miniature: flooding costs ~ sites x edges."""
        topo_small = complete(3, delay_range=(0.5, 0.5))
        topo_big = complete(6, delay_range=(0.5, 0.5))
        costs = []
        for topo in (topo_small, topo_big):
            m = MetricsCollector()
            phases = 1
            sim, net = build(
                topo,
                lambda sid, n: FocusedSite(sid, n, routing_phases=phases, metrics=m),
                setup_until=50.0,
            )
            costs.append(net.stats.count.get("F_SURPLUS", 0))
        assert costs[1] > 3 * costs[0]


class TestRandomOffload:
    def make(self, metrics):
        topo = line(4, delay_range=(0.5, 0.5))
        phases = 3
        sim, net = build(
            topo,
            lambda sid, n: RandomOffloadSite(
                sid, n, routing_phases=phases, seed=1, metrics=metrics
            ),
        )
        return sim, net

    def test_offload_chain(self, metrics):
        sim, net = self.make(metrics)
        s0 = net.site(0)
        sim.schedule(1.0, lambda: s0.submit_job(0, linear_chain_dag(3, c_range=(30.0, 30.0)), sim.now + 500.0))
        sim.schedule(2.0, lambda: s0.submit_job(1, paper_example_dag(), sim.now + 100.0))
        sim.run()
        rec = metrics.jobs[1]
        assert rec.outcome in (JobOutcome.ACCEPTED_DISTRIBUTED, JobOutcome.REJECTED_VALIDATION)
        if rec.outcome.accepted:
            assert rec.met_deadline is True

    def test_visited_not_revisited(self, metrics):
        sim, net = self.make(metrics)
        # saturate everyone, then offload must exhaust and reject
        for sid in net.site_ids():
            site = net.site(sid)
            sim.schedule(
                1.0, lambda s=site, sid=sid: s.submit_job(sid, linear_chain_dag(3, c_range=(30.0, 30.0)), sim.now + 1000.0)
            )
        sim.schedule(5.0, lambda: net.site(0).submit_job(99, paper_example_dag(), sim.now + 30.0))
        sim.run()
        assert metrics.jobs[99].outcome in (
            JobOutcome.REJECTED_VALIDATION,
            JobOutcome.REJECTED_NO_SPHERE,
        )
