"""Directed coverage of the ACS enroll-timeout machinery in queue mode.

``tests/core/test_queue_mode.py`` pins the end-to-end recovery invariants
(no leaked locks, everything decided); these tests look at the mechanism
itself: the timer's lifecycle, the ``acs.timeout`` trace, and the
stale-ENROLL_ACK → UNLOCK answer, which the fault subsystem stresses hard.
"""

from repro.core.config import RTDSConfig
from repro.core.events import JobOutcome
from repro.core.messages import MSG_ENROLL_ACK, MSG_UNLOCK
from repro.core.rtds import RTDSSite
from repro.graphs.generators import fork_join_dag, linear_chain_dag
from repro.metrics.collector import MetricsCollector
from repro.simnet.engine import Simulator
from repro.simnet.message import Message
from repro.simnet.topology import build_network, complete
from repro.simnet.trace import Tracer


def build(n=3, cfg=None):
    cfg = cfg or RTDSConfig(h=1, enroll_mode="queue")
    sim = Simulator()
    tracer = Tracer(enabled=True)
    metrics = MetricsCollector()
    net = build_network(
        complete(n, delay_range=(1.0, 1.0)),
        sim,
        lambda sid, nn: RTDSSite(sid, nn, cfg, metrics=metrics, surplus_window=100.0),
        tracer,
    )
    for sid in net.site_ids():
        net.site(sid).start()
    sim.run()
    return sim, net, tracer, metrics


def go_distributed(sim, site, job, deadline=40.0):
    """Saturate ``site`` locally, then submit a job it must distribute."""
    sim.schedule(1.0, lambda: site.submit_job(job, linear_chain_dag(4, c_range=(20.0, 20.0)), sim.now + 800.0))
    sim.schedule(2.0, lambda: site.submit_job(job + 1, fork_join_dag(3, c_range=(4.0, 4.0)), sim.now + deadline))


def test_enroll_timer_armed_and_cancelled_on_completion():
    """All members answer promptly: the collection timer must be cancelled
    (not left to fire into the mapping phase) and never time out."""
    sim, net, tracer, metrics = build()
    site0 = net.site(0)
    go_distributed(sim, site0, job=0)
    sim.run()
    assert metrics.jobs[1].outcome is JobOutcome.ACCEPTED_DISTRIBUTED
    assert not tracer.of("acs.timeout")
    assert site0.leaks() == []  # names the collection timer while it is armed


def test_enroll_timeout_fires_when_members_stay_locked():
    """Both members are locked by a competing initiator when site 0's
    ENROLL arrives (queue mode holds it), so site 0's budget expires and
    ``_enroll_timeout`` maps with an empty enrollment."""
    sim, net, tracer, metrics = build()
    s0, s1 = net.site(0), net.site(1)
    # saturate both initiators
    sim.schedule(1.0, lambda: s0.submit_job(0, linear_chain_dag(4, c_range=(20.0, 20.0)), sim.now + 800.0))
    sim.schedule(1.0, lambda: s1.submit_job(1, linear_chain_dag(4, c_range=(20.0, 20.0)), sim.now + 800.0))
    # s1 initiates first and locks 0's sphere; s0 initiates into locked members
    sim.schedule(2.0, lambda: s1.submit_job(2, fork_join_dag(3, c_range=(4.0, 4.0)), sim.now + 40.0))
    sim.schedule(2.1, lambda: s0.submit_job(3, fork_join_dag(3, c_range=(4.0, 4.0)), sim.now + 40.0))
    sim.run(until=sim.now + 400.0)
    timeouts = tracer.of("acs.timeout")
    assert timeouts, "enroll timeout never fired"
    # the timed-out collection proceeded with a *partial* enrollment
    assert any(e.detail["enrolled"] < 2 for e in timeouts)
    for rec in metrics.records():
        assert rec.outcome is not JobOutcome.PENDING
    for sid in net.site_ids():
        assert net.site(sid).leaks() == [], f"site {sid} leaked"


def test_stale_enroll_ack_answered_with_unlock():
    """An ENROLL_ACK landing after the session finished must be answered
    with UNLOCK — otherwise the acking member's lock leaks forever."""
    sim, net, tracer, metrics = build()
    site0 = net.site(0)
    go_distributed(sim, site0, job=0)
    sim.run()
    assert site0.leaks() == []
    unlocks_before = net.stats.count[MSG_UNLOCK]
    # forge a late ack from site 2 for the long-finished job 1
    site2 = net.site(2)
    site2.lock.acquire(0, 1)  # the lock the phantom enrollment would hold
    stale = Message(
        mtype=MSG_ENROLL_ACK,
        src=2,
        dst=0,
        origin=2,
        payload={"job": 1, "site": 2, "surplus": 1.0, "busyness": 0.0, "speed": 1.0, "distances": {}},
    )
    site0.receive(stale)
    sim.run()
    assert net.stats.count[MSG_UNLOCK] == unlocks_before + 1
    assert not site2.lock.locked, "stale ack was not answered with UNLOCK"


def test_stale_ack_for_unknown_session_still_unlocks():
    """Same recovery when *no* session is live at all (initiator already
    moved on to a later job or never had one)."""
    sim, net, _, _ = build()
    site0, site1 = net.site(0), net.site(1)
    sim.run()
    site1.lock.acquire(0, 99)
    site0.receive(
        Message(
            mtype=MSG_ENROLL_ACK,
            src=1,
            dst=0,
            origin=1,
            payload={"job": 99, "site": 1, "surplus": 1.0, "busyness": 0.0, "speed": 1.0, "distances": {}},
        )
    )
    sim.run()
    assert not site1.lock.locked
