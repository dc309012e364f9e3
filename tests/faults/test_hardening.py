"""Directed tests of the hardened protocol paths (retransmission, leases,
stale-message tolerance) using surgical fault windows — each scenario kills
exactly one message round and checks the recovery the DESIGN.md fault model
promises.
"""

import pytest

from repro.core.config import RTDSConfig
from repro.core.events import JobOutcome
from repro.core.messages import (
    MSG_ENROLL,
    MSG_ENROLL_ACK,
    MSG_EXECUTE,
    MSG_EXECUTE_ACK,
    MSG_UNLOCK,
    MSG_VALIDATE,
    MSG_VALIDATE_ACK,
)
from repro.core.rtds import RTDSSite
from repro.errors import ProtocolError
from repro.faults import FaultInjector, FaultPlan, SiteDownWindow, hardened
from repro.graphs.generators import fork_join_dag, linear_chain_dag
from repro.metrics.collector import MetricsCollector
from repro.simnet.engine import Simulator
from repro.simnet.message import Message
from repro.simnet.site import SiteBase
from repro.simnet.topology import build_network, complete
from repro.simnet.trace import Tracer

CFG = hardened(RTDSConfig(h=1, surplus_window=100.0), ack_timeout=4.0, ack_retries=1)


def build(n=4, cfg=CFG):
    sim = Simulator()
    tracer = Tracer(enabled=True)
    metrics = MetricsCollector()
    net = build_network(
        complete(n, delay_range=(1.0, 1.0)),
        sim,
        lambda sid, nn: RTDSSite(sid, nn, cfg, metrics=metrics),
        tracer,
    )
    for sid in net.site_ids():
        net.site(sid).start()
    sim.run()  # PCS construction on the pristine network
    return sim, net, tracer, metrics


def saturate(sim, site, job, deadline=800.0):
    """Fill a site with a fat local chain so the next job goes distributed."""
    sim.schedule(1.0, lambda: site.submit_job(job, linear_chain_dag(4, c_range=(20.0, 20.0)), sim.now + deadline))


def assert_clean(net, metrics):
    for rec in metrics.records():
        assert rec.outcome is not JobOutcome.PENDING, f"job {rec.job} hung"
    for sid in net.site_ids():
        assert net.site(sid).leaks() == [], f"site {sid} leaked"


def test_dead_member_mid_enrollment_degrades_gracefully():
    """Site 3 is partitioned before the ENROLL round: the initiator
    retransmits, gives up, and maps onto the survivors."""
    sim, net, tracer, metrics = build()
    inj = FaultInjector(net, FaultPlan(site_windows=(SiteDownWindow(3, 0.0, 500.0),)))
    inj.arm(t0=sim.now)
    saturate(sim, net.site(0), job=0)
    sim.schedule(2.0, lambda: net.site(0).submit_job(1, fork_join_dag(3, c_range=(4.0, 4.0)), sim.now + 40.0))
    sim.run(until=sim.now + 600.0)
    assert tracer.of("acs.retransmit"), "no ENROLL retransmission attempted"
    assert tracer.of("acs.gave_up"), "initiator never gave up on the dead member"
    rec = metrics.jobs[1]
    assert rec.outcome is JobOutcome.ACCEPTED_DISTRIBUTED
    assert 3 not in rec.hosts
    assert_clean(net, metrics)
    assert metrics.protocol_events["enroll_retransmit"] >= 1
    assert metrics.protocol_events["enroll_gave_up"] >= 1


def test_lost_enroll_ack_member_lease_recovers_the_lock():
    """Site 3 receives ENROLL and locks, but dies before the initiator hears
    back: the initiator proceeds without it and site 3's lease frees it."""
    sim, net, tracer, metrics = build()
    # ENROLL goes out at t0+2 and is already in flight when the partition
    # opens at t0+2.5 (faults bite at *send* time): the member still
    # receives it at t0+3 and locks, but its ACK — sent while down — is
    # swallowed, as is every retransmission to it.
    t0 = sim.now
    inj = FaultInjector(net, FaultPlan(site_windows=(SiteDownWindow(3, 2.5, 500.0),)))
    inj.arm(t0=t0)
    saturate(sim, net.site(0), job=0)
    sim.schedule(2.0, lambda: net.site(0).submit_job(1, fork_join_dag(3, c_range=(4.0, 4.0)), sim.now + 40.0))
    sim.run(until=sim.now + 600.0)
    assert metrics.jobs[1].outcome is not JobOutcome.PENDING
    assert any(e.site == 3 for e in tracer.of("acs.enrolled")), "site 3 never locked — scenario broken"
    assert tracer.of("lock.lease_expired"), "lease never fired"
    assert metrics.protocol_events["lease_expired"] >= 1
    assert not net.site(3).lock.locked, "phantom enrollment leaked site 3's lock"
    assert_clean(net, metrics)


def test_all_members_dead_falls_back_to_rejection_not_hang():
    sim, net, _, metrics = build()
    inj = FaultInjector(
        net,
        FaultPlan(site_windows=tuple(SiteDownWindow(s, 0.0, 900.0) for s in (1, 2, 3))),
    )
    inj.arm(t0=sim.now)
    saturate(sim, net.site(0), job=0)
    sim.schedule(2.0, lambda: net.site(0).submit_job(1, fork_join_dag(3, c_range=(4.0, 4.0)), sim.now + 40.0))
    sim.run(until=sim.now + 1000.0)
    rec = metrics.jobs[1]
    assert rec.outcome in (JobOutcome.REJECTED_NO_SPHERE, JobOutcome.REJECTED_TIMEOUT)
    assert_clean(net, metrics)


def test_zero_retries_gives_up_after_one_timeout():
    cfg = hardened(RTDSConfig(h=1, surplus_window=100.0), ack_timeout=4.0, ack_retries=0)
    sim, net, tracer, metrics = build(cfg=cfg)
    inj = FaultInjector(net, FaultPlan(site_windows=(SiteDownWindow(3, 0.0, 500.0),)))
    inj.arm(t0=sim.now)
    saturate(sim, net.site(0), job=0)
    sim.schedule(2.0, lambda: net.site(0).submit_job(1, fork_join_dag(3, c_range=(4.0, 4.0)), sim.now + 40.0))
    sim.run(until=sim.now + 600.0)
    assert not tracer.of("acs.retransmit")
    assert tracer.of("acs.gave_up")
    assert_clean(net, metrics)


@pytest.mark.parametrize("cfg", [CFG, RTDSConfig(h=1, surplus_window=100.0)], ids=["hardened", "unhardened"])
def test_member_holds_the_lease_its_enroll_carried(cfg):
    """A member's lease is the hint in the ENROLL it answered — a hardened
    initiator always ships one; an unhardened one ships none, and its
    members hold no lease."""
    enrolled = []
    original = SiteBase._dispatch

    def tap(site, msg):
        before = site.member.tenancy
        original(site, msg)
        if msg.mtype == MSG_ENROLL and site.member.tenancy is not before:
            enrolled.append((msg.payload.get("lease"), site.member.tenancy.lease))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(SiteBase, "_dispatch", tap)
        sim, net, _, metrics = build(cfg=cfg)
        saturate(sim, net.site(0), job=0)
        sim.schedule(2.0, lambda: net.site(0).submit_job(1, fork_join_dag(3, c_range=(4.0, 4.0)), sim.now + 40.0))
        sim.run(until=sim.now + 600.0)
    assert metrics.jobs[1].outcome is JobOutcome.ACCEPTED_DISTRIBUTED
    assert len(enrolled) == 3, "every other site enrolls once"
    for hint, lease in enrolled:
        assert lease == hint
        assert (lease is not None) == cfg.hardened


def test_near_members_of_wide_sphere_do_not_expire_mid_session():
    """A sphere with one very distant member: the healthy session legally
    takes ~2×(far distance) per round, so near members' leases must be
    sized by the initiator's hint, not their own short RTT — otherwise
    they self-release mid-validation with zero faults injected."""
    from repro.simnet.topology import Topology

    # star: hub 0 with near leaves 1, 2 (delay 1) and far leaf 3 (delay 30)
    topo = Topology(
        n=4,
        edges=((0, 1, 1.0), (0, 2, 1.0), (0, 3, 30.0)),
        name="wide-star",
    )
    sim = Simulator()
    tracer = Tracer(enabled=True)
    metrics = MetricsCollector()
    net = build_network(
        topo, sim, lambda sid, nn: RTDSSite(sid, nn, CFG, metrics=metrics), tracer
    )
    for sid in net.site_ids():
        net.site(sid).start()
    sim.run()
    saturate(sim, net.site(0), job=0)
    sim.schedule(2.0, lambda: net.site(0).submit_job(1, fork_join_dag(3, c_range=(4.0, 4.0)), sim.now + 400.0))
    sim.run()
    assert not tracer.of("lock.lease_expired"), "healthy session leaked a lease expiry"
    assert metrics.protocol_events["lease_expired"] == 0
    assert metrics.jobs[1].outcome is not JobOutcome.PENDING
    assert_clean(net, metrics)


def test_data_volume_model_does_not_misfire_hardened_timers():
    """§13 finite throughput makes transfers slow in proportion to message
    size (the EXECUTE code dispatch especially): the round budgets must
    absorb that, or a fault-free hardened run reports phantom damage."""
    from dataclasses import replace

    from repro.experiments.runner import ExperimentConfig, run_experiment

    # uncongested data-volume regime: transfer time is material (code
    # dispatch ~ several units) but links are not saturated — congestion
    # queueing is the one delay an initiator cannot bound, and a spurious
    # retransmission under it is benign (idempotent re-answers)
    cfg = ExperimentConfig(
        duration=120.0,
        seed=0,
        rho=0.8,
        laxity_factor=4.0,
        trace=True,
        topology_kwargs={"n": 12, "p": 0.3, "delay_range": (0.2, 1.0)},
        link_throughput=8.0,
        data_volume_range=(0.5, 2.0),
        rtds=hardened(RTDSConfig(), ack_timeout=5.0),
    )
    res = run_experiment(cfg)
    assert res.summary.n_accepted_distributed > 0, "scenario never went distributed"
    for cat in (
        "acs.retransmit", "acs.gave_up",
        "validate.retransmit", "validate.gave_up",
        "execute.retransmit", "execute.gave_up",
        "lock.lease_expired",
    ):
        assert not res.tracer.of(cat), f"phantom {cat} in a fault-free run"
    # and the hardened run decides exactly like the unhardened one
    plain = run_experiment(replace(cfg, rtds=RTDSConfig()))
    assert [(r.job, r.outcome) for r in res.collector.records()] == [
        (r.job, r.outcome) for r in plain.collector.records()
    ]
    # slower links + a wide sphere: the broadcast fan-out serializes on
    # the FIFO links near the initiator, which the round budget must cover
    wide = replace(
        cfg,
        topology_kwargs={"n": 16, "p": 0.4, "delay_range": (0.2, 1.0)},
        link_throughput=5.0,
        rho=0.6,
        laxity_factor=3.0,
    )
    res2 = run_experiment(wide)
    for cat in (
        "acs.retransmit", "acs.gave_up",
        "validate.retransmit", "validate.gave_up",
        "execute.retransmit", "execute.gave_up",
        "lock.lease_expired",
    ):
        assert not res2.tracer.of(cat), f"phantom {cat} under fan-out serialization"


def test_queue_mode_deferral_is_not_mistaken_for_death():
    """Queue mode holds ENROLLs on locked members by design; the hardened
    enroll timer must stay out of the way (the deadline-fraction budget
    governs) — deferred members must not be demoted to refusals."""
    cfg = hardened(
        RTDSConfig(h=2, surplus_window=100.0, enroll_mode="queue", enroll_timeout=0.5),
        ack_timeout=0.5,  # far shorter than the queue budget: would misfire
        ack_retries=1,
    )
    sim, net, tracer, metrics = build(n=4, cfg=cfg)
    s0, s1 = net.site(0), net.site(1)
    # two initiators compete; members caught locked defer their answers
    saturate(sim, s0, job=0)
    sim.schedule(1.0, lambda: s1.submit_job(1, linear_chain_dag(4, c_range=(20.0, 20.0)), sim.now + 800.0))
    sim.schedule(2.0, lambda: s1.submit_job(2, fork_join_dag(3, c_range=(4.0, 4.0)), sim.now + 40.0))
    sim.schedule(2.1, lambda: s0.submit_job(3, fork_join_dag(3, c_range=(4.0, 4.0)), sim.now + 40.0))
    sim.run(until=sim.now + 600.0)
    # the hardened enroll round never armed: no demotions, no retransmits
    assert not tracer.of("acs.retransmit")
    assert not tracer.of("acs.gave_up")
    assert metrics.protocol_events["enroll_gave_up"] == 0
    assert_clean(net, metrics)


def test_queue_mode_lease_covers_the_collection_budget():
    """In queue mode the initiator may lawfully idle for the whole
    deadline-fraction collection budget with no lease-renewing contact —
    the ENROLL lease hint must cover it, or early enrollees expire
    mid-healthy-session."""
    cfg = hardened(
        RTDSConfig(h=1, surplus_window=100.0, enroll_mode="queue", enroll_timeout=0.25),
        ack_timeout=4.0,
        ack_retries=1,
    )
    sim, net, tracer, metrics = build(n=4, cfg=cfg)
    s0 = net.site(0)
    # saturate far beyond the job's deadline so the local test fails
    sim.schedule(1.0, lambda: s0.submit_job(0, linear_chain_dag(8, c_range=(50.0, 50.0)), sim.now + 900.0))
    sim.schedule(2.0, lambda: s0.submit_job(1, fork_join_dag(3, c_range=(4.0, 4.0)), sim.now + 300.0))
    # ENROLL leaves at t0+2 and lands at t0+3: look at the tenancies while
    # they are live (the record ends with the tenancy)
    sim.run(until=sim.now + 3.5)
    leases = {
        m: net.site(m).member.tenancy.lease
        for m in net.site_ids()
        if net.site(m).member.tenancy is not None
    }
    assert leases, "job 1 never went distributed — scenario broken"
    # queue budget = 0.25 * ~300 ≈ 75; the base 3-round lease alone is ~36
    for m, lease in leases.items():
        assert lease > 70.0, f"member {m} lease {lease} ignores the queue budget"
    sim.run()
    assert not tracer.of("lock.lease_expired")
    assert_clean(net, metrics)


def test_hardened_zero_fault_run_matches_unhardened():
    """With no faults, the hardening only arms timers that get cancelled:
    job outcomes must be identical to the non-hardened protocol."""

    def run(cfg):
        sim, net, _, metrics = build(cfg=cfg)
        saturate(sim, net.site(0), job=0)
        sim.schedule(2.0, lambda: net.site(0).submit_job(1, fork_join_dag(3, c_range=(4.0, 4.0)), sim.now + 40.0))
        sim.run()
        return [(r.job, r.outcome, r.decided_at) for r in metrics.records()]

    assert run(CFG) == run(RTDSConfig(h=1, surplus_window=100.0))


# -- idempotent re-answers and stale-message tolerance -------------------------

class DropFirst:
    """Transmit interceptor: loses exactly the first message of one type."""

    def __init__(self, mtype):
        self.mtype = mtype
        self.lost = None
        self.seen = []

    def on_transmit(self, msg, link):
        if msg.mtype != self.mtype:
            return 0.0
        self.seen.append(msg)
        if self.lost is None:
            self.lost = msg
            return None
        return 0.0


def distribute_job_1(sim, net, deadline=60.0):
    saturate(sim, net.site(0), job=0)
    sim.schedule(2.0, lambda: net.site(0).submit_job(1, fork_join_dag(3, c_range=(4.0, 4.0)), sim.now + deadline))


@pytest.mark.parametrize(
    "mtype, name, prefix, re_ack, counter",
    [
        (MSG_ENROLL_ACK, "enroll", "acs", "acs.re_ack", "enroll_re_ack"),
        (MSG_VALIDATE_ACK, "validate", "validate", "validate.re_ack", "validate_re_ack"),
        (MSG_EXECUTE_ACK, "execute", "execute", "execute.re_ack", "execute_re_ack"),
    ],
)
def test_one_lost_ack_costs_one_retransmission_and_one_re_ack(mtype, name, prefix, re_ack, counter):
    """The first ENROLL_ACK / VALIDATE_ACK / EXECUTE_ACK of a session is
    lost: the round re-asks the one silent member, which re-answers
    idempotently — nothing is re-decided, re-committed or left behind."""
    sim, net, tracer, metrics = build()
    drop = net.interceptor = DropFirst(mtype)
    distribute_job_1(sim, net)
    sim.run()
    assert drop.lost is not None, "scenario never reached the round"
    silent = drop.lost.origin
    retransmits = tracer.of(prefix + ".retransmit")
    assert [e.detail["to"] for e in retransmits] == [[silent]]
    assert metrics.protocol_events[name + "_retransmit"] == 1
    assert metrics.protocol_events[name + "_gave_up"] == 0
    assert [e.site for e in tracer.of(re_ack)] == [silent]
    assert metrics.protocol_events[counter] == 1
    rec = metrics.jobs[1]
    assert rec.outcome is JobOutcome.ACCEPTED_DISTRIBUTED
    committed = [t for e in tracer.of("execute.commit") if e.detail["job"] == 1 for t in e.detail["tasks"]]
    assert len(committed) == len(set(committed)) == rec.n_tasks, "a task was committed twice or not at all"
    assert rec.completed
    assert_clean(net, metrics)


def test_hygiene_tick_mid_tenancy_keeps_the_cached_verdict():
    """``prune_history`` between a VALIDATE and its retransmission: the
    member has committed nothing yet, but its verdict belongs to the live
    tenancy and must survive — the retransmission is re-acked from it,
    not silently re-validated (DESIGN.md §6.3)."""
    sim, net, tracer, metrics = build()
    drop = net.interceptor = DropFirst(MSG_VALIDATE_ACK)
    distribute_job_1(sim, net)
    while drop.lost is None:
        sim.run(until=sim.now + 0.5)
    member = net.site(drop.lost.origin)
    member.prune_history(sim.now)
    sim.run()
    assert [e.site for e in tracer.of("validate.re_ack")] == [member.sid]
    assert metrics.protocol_events["validate_re_ack"] == 1
    validated = [e for e in tracer.of("validate.member") if e.site == member.sid and e.detail["job"] == 1]
    assert len(validated) == 1, "the retransmitted VALIDATE was validated again"
    first, again = [m for m in drop.seen if m.origin == member.sid]
    assert again.payload["endorsed"] == first.payload["endorsed"]
    assert metrics.jobs[1].outcome is JobOutcome.ACCEPTED_DISTRIBUTED
    assert_clean(net, metrics)


def forged(mtype, src, dst, **payload):
    return Message(mtype=mtype, src=src, dst=dst, origin=src, payload=payload)


STALE = [
    # (message that fits no live state, trace event, counter or None)
    (forged(MSG_VALIDATE, 0, 2, job=9, initiator=0, procs={}), "validate.stale", "stale_validate"),
    (forged(MSG_EXECUTE, 0, 2, job=9, permutation={}), "execute.stale", "stale_execute"),
    (forged(MSG_VALIDATE_ACK, 2, 0, job=9, site=2, endorsed=[]), "validate.stale_ack", "stale_validate_ack"),
]


@pytest.mark.parametrize("msg, event, counter", STALE)
def test_stale_message_is_traced_and_counted_when_hardened(msg, event, counter):
    sim, net, tracer, metrics = build()
    acks_before = net.stats.count[MSG_VALIDATE_ACK]
    net.site(msg.dst).receive(msg)
    sim.run()
    assert [e.site for e in tracer.of(event)] == [msg.dst]
    assert metrics.protocol_events[counter] == 1
    # a stale VALIDATE is still answered (endorsing nothing) so the
    # initiator's round can settle; a stale EXECUTE stays silent
    answered = net.stats.count[MSG_VALIDATE_ACK] - acks_before
    assert answered == (1 if msg.mtype == MSG_VALIDATE else 0)
    assert_clean(net, metrics)


@pytest.mark.parametrize("msg, event, counter", STALE)
def test_stale_message_is_a_protocol_error_when_unhardened(msg, event, counter):
    sim, net, tracer, _ = build(cfg=RTDSConfig(h=1, surplus_window=100.0))
    with pytest.raises(ProtocolError):
        net.site(msg.dst).receive(msg)
    assert not tracer.of(event)


def test_duplicate_and_foreign_acks_do_not_disturb_the_session():
    """During VALIDATING, a duplicate ENROLL_ACK of an enrolled member is
    ignored (unlocking it would corrupt the round) and a VALIDATE_ACK from
    a site that never enrolled stays out of the coupling."""
    cfg = hardened(RTDSConfig(h=1, surplus_window=100.0, max_acs_size=2), ack_timeout=4.0)
    sim, net, tracer, metrics = build(cfg=cfg)
    distribute_job_1(sim, net)
    s0 = net.site(0)
    while s0.session is None or s0.session.phase != "validating":
        sim.run(until=sim.now + 0.25)
    member = s0.session.acs_members()[0]
    outsider = next(s for s in net.site_ids() if s != 0 and s not in s0.session.enrolled)
    unlocks = net.stats.count[MSG_UNLOCK]
    s0.receive(forged(MSG_ENROLL_ACK, member, 0, job=1, site=member, surplus=1.0,
                      busyness=0.0, speed=1.0, distances={}))
    s0.receive(forged(MSG_VALIDATE_ACK, outsider, 0, job=1, site=outsider, endorsed=[0, 1, 2]))
    assert [e.detail["member"] for e in tracer.of("acs.dup_ack")] == [member]
    assert [e.detail["member"] for e in tracer.of("validate.foreign_ack")] == [outsider]
    assert outsider not in s0.session.endorsements
    sim.run()
    assert net.stats.count[MSG_UNLOCK] == unlocks, "the duplicate ack unlocked an enrolled member"
    assert metrics.jobs[1].outcome is JobOutcome.ACCEPTED_DISTRIBUTED
    assert outsider not in metrics.jobs[1].hosts
    assert_clean(net, metrics)


def test_result_for_a_lost_execute_ages_out_with_the_abandoned_gate():
    """Site 3 endorses job 1 and is partitioned across the whole EXECUTE
    round (no retries): it never commits its task, but the fork's RESULT
    still reaches it once the partition heals. The token waits for a commit
    that never comes — and the join, on site 1, for a result that never
    comes. Hygiene's fault-run reap must forget both."""
    cfg = hardened(RTDSConfig(h=1, surplus_window=100.0), ack_timeout=4.0, ack_retries=0)
    sim, net, tracer, metrics = build(cfg=cfg)
    inj = FaultInjector(net, FaultPlan(site_windows=(SiteDownWindow(3, 5.5, 10.5),)))
    inj.arm(t0=sim.now)
    distribute_job_1(sim, net)
    sim.run()
    assert [e.detail["lost"] for e in tracer.of("execute.gave_up")] == [[3]]
    s1, s3 = net.site(1), net.site(3)
    ran_on_3 = [(job, task) for job, task, sid, _ in metrics.executions() if sid == 3]
    assert not ran_on_3 and not s3.executor.n_unfinished(), "the partitioned member committed after all"
    assert list(s3.executor._early_tokens) == [("result", 1, 0)]
    assert s1.leaks() == ["gate of (1, 4) closed, waiting for 1 token(s)"]
    # too young to reap: the EXECUTE could still be on its way
    assert s3.executor.reap_abandoned(s3.executor._early_tokens[("result", 1, 0)] - 1.0) == 0
    assert s3.executor._early_tokens
    for sid in net.site_ids():
        site = net.site(sid)
        assert site.executor.reap_abandoned(sim.now) == (1 if sid == 1 else 0)
        site.prune_history(sim.now)
        assert not site.executor._early_tokens
    assert_clean(net, metrics)
