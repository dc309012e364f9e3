"""E7 — guarantee ratio under churn (beyond the paper's loss-less model).

The paper assumes loss-less links and faultless sites (§2). Hardened
with ack timeouts, retransmission and lock leases (DESIGN.md §6), the
protocol's guarantee ratio degrades monotonically in expectation as
message loss rises; an all-zero fault plan is bit-for-bit invisible; and
churn is deterministic under a fixed seed.
"""

from dataclasses import replace

from repro.core.config import RTDSConfig
from repro.experiments.campaign import sweep_fault_plans
from repro.experiments.runner import ExperimentConfig, run_experiment
from repro.faults import ChurnSpec, FaultPlan, hardened

BASE = ExperimentConfig(
    topology="erdos_renyi",
    topology_kwargs={"n": 16, "p": 0.25, "delay_range": (0.2, 1.0)},
    duration=200.0,
    laxity_factor=3.0,
    seed=7,
    rtds=hardened(RTDSConfig(), ack_timeout=5.0, ack_retries=1),
)

LOSS_RATES = (0.0, 0.05, 0.15, 0.30)
SEEDS = (7, 8, 9)


def _records(res):
    return [
        (r.job, r.outcome, r.decided_at, tuple(sorted(r.completions.items())))
        for r in res.collector.records()
    ]


def test_e7_guarantee_vs_loss():
    plans = [(f"loss={p:g}", FaultPlan(loss_prob=p, seed=1)) for p in LOSS_RATES]
    rows = sweep_fault_plans(BASE, plans, SEEDS)
    grs = [row["GR"] for row in rows]
    # monotone-in-expectation: averaged over seeds, each step down in
    # reliability must not buy acceptance (tiny tolerance for CI noise)
    for a, b in zip(grs, grs[1:]):
        assert b <= a + 0.02, f"GR rose with loss: {grs}"
    # and the damage is material at the extreme
    assert grs[-1] < grs[0] - 0.05, f"no visible churn damage: {grs}"
    # messages were actually lost, and the hardening actually fought back
    assert rows[0]["lost"] == 0 and rows[-1]["lost"] > 0
    assert rows[-1]["retransmit"] > 0


def test_e7_zero_plan_identity():
    """The acceptance contract: an all-zero plan changes nothing."""
    pristine = run_experiment(replace(BASE, faults=None))
    zeroed = run_experiment(replace(BASE, faults=FaultPlan()))
    assert zeroed.faults is None is pristine.faults
    assert _records(pristine) == _records(zeroed)
    assert pristine.summary.row() == zeroed.summary.row()
    assert pristine.network.stats.snapshot() == zeroed.network.stats.snapshot()


def test_e7_churn_deterministic():
    """Full churn (flaps + partitions + loss + jitter) is reproducible."""
    plan = FaultPlan(
        loss_prob=0.05,
        delay_jitter=0.5,
        link_churn=ChurnSpec(6, 15.0),
        site_churn=ChurnSpec(3, 20.0),
        seed=2,
    )
    cfg = replace(BASE, faults=plan)
    a, b = run_experiment(cfg), run_experiment(cfg)
    assert _records(a) == _records(b)
    assert a.faults.stats.row() == b.faults.stats.row()
    assert a.faults.link_windows == b.faults.link_windows
    assert a.faults.site_windows == b.faults.site_windows
