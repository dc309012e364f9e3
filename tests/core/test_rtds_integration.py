"""End-to-end protocol tests for RTDSSite on live simulated networks."""


from repro.core.config import RTDSConfig
from repro.core.events import JobOutcome
from repro.core.rtds import RTDSSite
from repro.graphs.generators import (
    fork_join_dag,
    linear_chain_dag,
    paper_example_dag,
)
from repro.metrics.collector import MetricsCollector
from repro.simnet.engine import Simulator
from repro.simnet.topology import build_network, complete, line, ring
from repro.simnet.trace import Tracer


def make_rtds_network(topo, cfg, metrics, tracer=None, speeds=None):
    sim = Simulator()
    tracer = tracer or Tracer(enabled=True)

    def factory(sid, net):
        speed = speeds[sid] if speeds else 1.0
        return RTDSSite(sid, net, cfg, speed=speed, metrics=metrics)

    net = build_network(topo, sim, factory, tracer)
    for sid in net.site_ids():
        net.site(sid).start()
    sim.run()  # finish PCS construction
    return sim, net, tracer


def all_locks_free(net):
    """No lock, deferred thunk, session, round or tenancy left anywhere."""
    return all(net.site(s).leaks() == [] for s in net.site_ids())


class TestLocalPath:
    def test_easy_job_accepted_locally_no_traffic(self, metrics):
        cfg = RTDSConfig(h=1)
        sim, net, _ = make_rtds_network(complete(3, delay_range=(1.0, 1.0)), cfg, metrics)
        before = net.stats.total
        s0 = net.site(0)
        sim.schedule(1.0, lambda: s0.submit_job(0, paper_example_dag(), sim.now + 100.0))
        sim.run()
        rec = metrics.jobs[0]
        assert rec.outcome is JobOutcome.ACCEPTED_LOCAL
        assert rec.met_deadline is True
        # results stay local: only routing traffic existed
        assert net.stats.total == before
        assert all_locks_free(net)

    def test_pcs_built_with_radius(self, metrics):
        cfg = RTDSConfig(h=2)
        sim, net, _ = make_rtds_network(line(6, delay_range=(1.0, 1.0)), cfg, metrics)
        pcs0 = net.site(0).pcs
        assert pcs0 is not None
        assert list(pcs0.members) == [1, 2]  # within 2 hops of the line end
        pcs3 = net.site(3).pcs
        assert set(pcs3.members) == {1, 2, 4, 5}


class TestDistributedPath:
    def run_fig1(self, metrics, cfg=None):
        from repro.experiments.paper_example import run_fig1_scenario

        tracer, m, jid = run_fig1_scenario()
        return tracer, m, jid

    def test_distributed_job_completes_in_time(self, metrics):
        _, m, jid = self.run_fig1(metrics)
        rec = m.jobs[jid]
        assert rec.outcome is JobOutcome.ACCEPTED_DISTRIBUTED
        assert rec.met_deadline is True
        assert rec.acs_size == 4

    def test_enrollment_collects_all_members(self, metrics):
        tracer, _, jid = self.run_fig1(metrics)
        enrolled = [e for e in tracer.for_job(jid) if e.category == "acs.enrolled"]
        assert {e.site for e in enrolled} == {1, 2, 3}

    def test_results_forwarded_cross_site(self, metrics):
        """The fig1 permutation splits tasks over two hosts, so RESULT
        messages must flow between them."""
        from repro.experiments.paper_example import run_fig1_scenario

        tracer, m, jid = run_fig1_scenario()
        # completions exist for all 5 tasks of the distributed job
        assert len(m.jobs[jid].completions) == 5
        # precedence respected in actual execution times
        dag = paper_example_dag()
        comp = m.jobs[jid].completions
        for u, v in dag.edges:
            assert comp[v] > comp[u] - 1e-9


class TestRejections:
    def test_impossible_deadline_rejected_by_mapper(self, metrics):
        cfg = RTDSConfig(h=1)
        sim, net, tracer = make_rtds_network(
            complete(3, delay_range=(1.0, 1.0)), cfg, metrics
        )
        s0 = net.site(0)
        # saturate site 0 so the local test fails
        sim.schedule(1.0, lambda: s0.submit_job(0, linear_chain_dag(3, c_range=(30.0, 30.0)), sim.now + 400.0))
        # deadline below even the optimistic M*
        sim.schedule(2.0, lambda: s0.submit_job(1, paper_example_dag(), sim.now + 10.0))
        sim.run()
        assert metrics.jobs[1].outcome is JobOutcome.REJECTED_MAPPER
        assert all_locks_free(net)

    def test_unlock_broadcast_after_rejection(self, metrics):
        cfg = RTDSConfig(h=1)
        sim, net, tracer = make_rtds_network(
            complete(3, delay_range=(1.0, 1.0)), cfg, metrics
        )
        s0 = net.site(0)
        sim.schedule(1.0, lambda: s0.submit_job(0, linear_chain_dag(3, c_range=(30.0, 30.0)), sim.now + 400.0))
        sim.schedule(2.0, lambda: s0.submit_job(1, paper_example_dag(), sim.now + 10.0))
        sim.run()
        assert net.stats.count.get("UNLOCK", 0) + net.stats.count.get("SPHERE", 0) > 0
        assert all_locks_free(net)


class TestLockContention:
    def saturate(self, sim, site, job_id, work=25.0):
        dag = linear_chain_dag(3, c_range=(work, work))
        site.submit_job(job_id, dag, sim.now + 1000.0)

    def test_concurrent_initiators_no_deadlock(self, metrics):
        cfg = RTDSConfig(h=2)
        sim, net, tracer = make_rtds_network(line(5, delay_range=(0.5, 0.5)), cfg, metrics)
        s1, s3 = net.site(1), net.site(3)
        sim.schedule(1.0, lambda: self.saturate(sim, s1, 0))
        sim.schedule(1.0, lambda: self.saturate(sim, s3, 1))
        # both initiate concurrently; spheres overlap at site 2
        sim.schedule(2.0, lambda: s1.submit_job(2, fork_join_dag(3, c_range=(5.0, 5.0)), sim.now + 90.0))
        sim.schedule(2.0, lambda: s3.submit_job(3, fork_join_dag(3, c_range=(5.0, 5.0)), sim.now + 90.0))
        sim.run()
        assert metrics.jobs[2].outcome is not JobOutcome.PENDING
        assert metrics.jobs[3].outcome is not JobOutcome.PENDING
        assert all_locks_free(net)
        refusals = net.stats.count.get("ENROLL_REFUSE", 0)
        assert refusals >= 1  # the overlap really happened

    def test_queue_mode_completes(self, metrics):
        cfg = RTDSConfig(h=2, enroll_mode="queue")
        sim, net, tracer = make_rtds_network(line(5, delay_range=(0.5, 0.5)), cfg, metrics)
        s1, s3 = net.site(1), net.site(3)
        sim.schedule(1.0, lambda: self.saturate(sim, s1, 0))
        sim.schedule(1.0, lambda: self.saturate(sim, s3, 1))
        sim.schedule(2.0, lambda: s1.submit_job(2, fork_join_dag(3, c_range=(5.0, 5.0)), sim.now + 90.0))
        sim.schedule(2.0, lambda: s3.submit_job(3, fork_join_dag(3, c_range=(5.0, 5.0)), sim.now + 90.0))
        sim.run(until=sim.now + 500.0)
        assert metrics.jobs[2].outcome is not JobOutcome.PENDING
        assert metrics.jobs[3].outcome is not JobOutcome.PENDING
        assert all_locks_free(net)

    def test_deferred_local_arrival_processed_after_unlock(self, metrics):
        """A job arriving on a locked member site waits, then is decided."""
        cfg = RTDSConfig(h=1)
        sim, net, tracer = make_rtds_network(
            complete(3, delay_range=(1.0, 1.0)), cfg, metrics
        )
        s0, s1 = net.site(0), net.site(1)
        sim.schedule(1.0, lambda: self.saturate(sim, s0, 0, work=20.0))
        # job 1 forces site 0 to initiate (locks sites 1, 2)
        sim.schedule(2.0, lambda: s0.submit_job(1, fork_join_dag(4, c_range=(6.0, 6.0)), sim.now + 80.0))
        # while site 1 is enrolled/locked, a local job arrives there
        sim.schedule(3.5, lambda: s1.submit_job(2, linear_chain_dag(2, c_range=(2.0, 2.0)), sim.now + 60.0))
        sim.run()
        assert metrics.jobs[2].outcome is not JobOutcome.PENDING
        assert all_locks_free(net)

    def test_every_plan_change_asks_the_lock(self, metrics, monkeypatch):
        """Arrivals and foreign enrollments both ask ``may_change_plan``:
        when it answers no on an unlocked site, its own arrival is deferred
        and a foreign ENROLL is refused (refuse mode)."""
        cfg = RTDSConfig(h=1)
        sim, net, tracer = make_rtds_network(
            complete(3, delay_range=(1.0, 1.0)), cfg, metrics
        )
        s0, s1 = net.site(0), net.site(1)
        monkeypatch.setattr(s1.lock, "may_change_plan", lambda: False)
        assert not s1.lock.locked
        s1.submit_job(0, paper_example_dag(), sim.now + 100.0)
        assert metrics.jobs[0].outcome is JobOutcome.PENDING
        assert len(s1.lock.deferred) == 1
        # site 0 saturates, so job 2 enrolls sites 1 and 2
        sim.schedule(1.0, lambda: self.saturate(sim, s0, 1))
        sim.schedule(2.0, lambda: s0.submit_job(2, paper_example_dag(), sim.now + 60.0))
        sim.run()
        assert [e.site for e in tracer.of("acs.refuse")] == [1]
        assert [e.site for e in tracer.of("acs.enrolled")] == [2]
        assert s1.member.tenancy is None and not s1.lock.locked
        assert metrics.jobs[0].outcome is JobOutcome.PENDING


class TestAcsBounding:
    def test_max_acs_size_limits_enrollment(self, metrics):
        cfg = RTDSConfig(h=2, max_acs_size=1)
        sim, net, tracer = make_rtds_network(
            complete(5, delay_range=(1.0, 1.0)), cfg, metrics
        )
        s0 = net.site(0)
        sim.schedule(1.0, lambda: s0.submit_job(0, linear_chain_dag(3, c_range=(25.0, 25.0)), sim.now + 500.0))
        sim.schedule(2.0, lambda: s0.submit_job(1, paper_example_dag(), sim.now + 70.0))
        sim.run()
        enrolled = [e for e in tracer.for_job(1) if e.category == "acs.enrolled"]
        assert len(enrolled) <= 1


class TestHeterogeneousSpeeds:
    def test_fast_site_finishes_sooner(self, metrics):
        cfg = RTDSConfig(h=1)
        sim, net, tracer = make_rtds_network(
            complete(3, delay_range=(0.5, 0.5)), cfg, metrics, speeds={0: 1.0, 1: 4.0, 2: 4.0}
        )
        s0 = net.site(0)
        sim.schedule(1.0, lambda: s0.submit_job(0, linear_chain_dag(3, c_range=(20.0, 20.0)), sim.now + 500.0))
        sim.schedule(2.0, lambda: s0.submit_job(1, paper_example_dag(), sim.now + 40.0))
        sim.run()
        rec = metrics.jobs[1]
        assert rec.outcome is JobOutcome.ACCEPTED_DISTRIBUTED
        assert rec.met_deadline is True
        assert set(rec.hosts).issubset({1, 2})  # the 4x-speed sites


class TestDeterminism:
    def test_identical_runs_identical_outcomes(self):
        def one():
            m = MetricsCollector()
            cfg = RTDSConfig(h=2)
            sim, net, tracer = make_rtds_network(ring(6, delay_range=(0.5, 1.0)), cfg, m)
            for i, sid in enumerate([0, 2, 4, 0, 3]):
                site = net.site(sid)
                sim.schedule(
                    1.0 + i,
                    lambda s=site, i=i: s.submit_job(
                        i, fork_join_dag(3 + i, c_range=(4.0, 8.0)), sim.now + 60.0
                    ),
                )
            sim.run()
            return [(r.job, r.outcome, r.completion_time) for r in m.records()]

        assert one() == one()


class TestHostSideLeaksAreNamed:
    """``leaks()`` also names host-side state that outlived its task; a
    drained site has none, so each kind is planted by hand."""

    def drained_site(self, metrics):
        sim, net, _ = make_rtds_network(complete(3, delay_range=(1.0, 1.0)), RTDSConfig(h=1), metrics)
        s0 = net.site(0)
        sim.schedule(1.0, lambda: s0.submit_job(0, paper_example_dag(), sim.now + 100.0))
        sim.run()
        assert s0.leaks() == [] and s0.executor.records()
        return s0

    def test_closed_gate(self, metrics):
        s0 = self.drained_site(metrics)
        s0.executor._gates[(5, "t")] = {("result", 5, "p")}
        assert s0.leaks() == ["gate of (5, 't') closed, waiting for 1 token(s)"]

    def test_token_waiter_without_its_gate(self, metrics):
        s0 = self.drained_site(metrics)
        s0.executor._token_waiters[("result", 5, "p")] = {(5, "t")}
        assert s0.leaks() == ["token ('result', 5, 'p') awaited by unknown (5, 't')"]

    def test_run_queue_entry_of_a_finished_record(self, metrics):
        s0 = self.drained_site(metrics)
        key = next(iter(s0.executor.records()))
        s0.executor._queue.append((0.0, repr(key), key))
        assert s0.leaks() == [f"run-queue entry for finished {key}"]

    def test_forwarding_info_without_an_unfinished_local_task(self, metrics):
        s0 = self.drained_site(metrics)
        s0.hosting.exec_info[0] = {"t": (1.0, [1])}
        assert s0.leaks() == ["exec_info of job 0 task 't' with no unfinished local record"]
