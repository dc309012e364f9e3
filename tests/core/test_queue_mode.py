"""Directed tests for the queue-mode enrollment corner cases (§8 literal).

In queue mode a locked member *holds* an ENROLL until its own unlock. If
the initiator's collection timeout fires first, the member's late ACK hits
a finished session — the initiator must answer with UNLOCK or the member's
lock leaks forever. These tests pin that recovery path down.
"""


from repro.core.config import RTDSConfig
from repro.core.events import JobOutcome
from repro.core.rtds import RTDSSite
from repro.graphs.generators import fork_join_dag, linear_chain_dag
from repro.metrics.collector import MetricsCollector
from repro.simnet.engine import Simulator
from repro.simnet.topology import build_network, line
from repro.simnet.trace import Tracer


def build(n, cfg, metrics, tracer):
    sim = Simulator()
    net = build_network(
        line(n, delay_range=(0.5, 0.5)),
        sim,
        lambda sid, nn: RTDSSite(sid, nn, cfg, metrics=metrics),
        tracer,
    )
    for sid in net.site_ids():
        net.site(sid).start()
    sim.run()
    return sim, net


def test_stale_ack_gets_unlocked():
    """Member 2 is locked by initiator 1's long session while initiator 3
    enrolls it in queue mode with a short timeout. 3 proceeds without 2;
    2's late ACK (after 1 unlocks it) must be answered with UNLOCK."""
    metrics = MetricsCollector()
    tracer = Tracer(enabled=True)
    cfg = RTDSConfig(h=2, enroll_mode="queue", enroll_timeout=0.1)
    sim, net = build(5, cfg, metrics, tracer)
    s1, s3 = net.site(1), net.site(3)

    # saturate 1 and 3 so both become initiators
    sim.schedule(1.0, lambda: s1.submit_job(0, linear_chain_dag(3, c_range=(25.0, 25.0)), sim.now + 800.0))
    sim.schedule(1.0, lambda: s3.submit_job(1, linear_chain_dag(3, c_range=(25.0, 25.0)), sim.now + 800.0))
    # 1 initiates first (locks 2 among others), 3 shortly after
    sim.schedule(2.0, lambda: s1.submit_job(2, fork_join_dag(3, c_range=(4.0, 4.0)), sim.now + 120.0))
    sim.schedule(2.2, lambda: s3.submit_job(3, fork_join_dag(3, c_range=(4.0, 4.0)), sim.now + 120.0))
    sim.run(until=sim.now + 1000.0)

    # Everything decided, and crucially: no site remains locked.
    for rec in metrics.records():
        assert rec.outcome is not JobOutcome.PENDING
    for sid in net.site_ids():
        assert net.site(sid).leaks() == [], f"site {sid} leaked"


def test_queue_mode_timeout_proceeds_with_partial_acs():
    """With every member locked, the timeout fires and the initiator maps
    onto whatever enrolled (possibly nobody -> rejection), never hanging."""
    metrics = MetricsCollector()
    tracer = Tracer(enabled=True)
    cfg = RTDSConfig(h=1, enroll_mode="queue", enroll_timeout=0.1)
    sim, net = build(3, cfg, metrics, tracer)
    s0, s1, s2 = net.site(0), net.site(1), net.site(2)

    # saturate everyone
    for i, s in enumerate((s0, s1, s2)):
        sim.schedule(1.0, lambda s=s, i=i: s.submit_job(i, linear_chain_dag(3, c_range=(25.0, 25.0)), sim.now + 900.0))
    # site 1 initiates; neighbours are busy but *unlocked*, so they enroll
    # with terrible surplus; then a second job catches them locked.
    sim.schedule(3.0, lambda: s1.submit_job(10, fork_join_dag(2, c_range=(4.0, 4.0)), sim.now + 60.0))
    sim.schedule(3.1, lambda: s0.submit_job(11, fork_join_dag(2, c_range=(4.0, 4.0)), sim.now + 60.0))
    sim.run(until=sim.now + 1000.0)

    assert metrics.jobs[10].outcome is not JobOutcome.PENDING
    assert metrics.jobs[11].outcome is not JobOutcome.PENDING
    for sid in net.site_ids():
        assert net.site(sid).leaks() == [], f"site {sid} leaked"
