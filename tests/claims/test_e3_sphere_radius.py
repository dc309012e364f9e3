"""E3 — the sphere radius h: acceptance vs cost.

The Computing Sphere trades acceptance for traffic through one knob, the
hop radius h (§6-§7). Expected shape: guarantee ratio rises with h and
saturates once the sphere holds enough surplus; message cost (both the
one-time 2h-phase construction and the per-job enrollment) keeps growing —
so a small h is the sweet spot, which is the paper's design point.
"""

from dataclasses import replace

from repro.core.config import RTDSConfig
from repro.experiments.evaluation import sweep_sphere_radius
from repro.experiments.runner import ExperimentConfig, run_experiment

BASE = ExperimentConfig(
    topology="grid",
    topology_kwargs={"rows": 5, "cols": 5, "delay_range": (0.2, 0.8)},
    rho=0.8,
    duration=250.0,
    laxity_factor=3.0,
    seed=23,
)

HS = (1, 2, 3, 4)


def test_e3_radius_sweep():
    by_h = {r["h"]: r for r in sweep_sphere_radius(BASE, HS)}
    # sphere must grow with h
    assert by_h[4]["mean_PCS"] > by_h[1]["mean_PCS"]
    # construction cost grows with h (2h phases)
    assert by_h[4]["setup_msg"] > by_h[1]["setup_msg"]
    # larger sphere never hurts acceptance much; going 1 -> 2 helps or holds
    assert by_h[2]["GR"] >= by_h[1]["GR"] - 0.03
    # saturation: the last doubling buys little
    gain_12 = by_h[2]["GR"] - by_h[1]["GR"]
    gain_34 = by_h[4]["GR"] - by_h[3]["GR"]
    assert gain_34 <= gain_12 + 0.05


def test_e3_decision_latency_grows_with_h():
    """Why big spheres stop paying: every protocol phase (enroll round,
    validation round) stretches with the sphere radius, and so does the
    mean decision latency of the jobs that ran the protocol."""
    latency = {}
    for h in (1, 2, 4):
        res = run_experiment(
            replace(BASE, algorithm="rtds", rtds=RTDSConfig(h=h), telemetry=True,
                    duration=150.0, label=f"h={h}")
        )
        # the protocol runs: jobs with a phase span that is not a local
        # admission's (those carry kind="local")
        runs = {
            s.key
            for s in res.telemetry.spans
            if s.category in ("phase.enroll", "phase.map", "phase.validate")
            and (s.labels or {}).get("kind") != "local"
        }
        by_job = {r.job: r.decision_latency for r in res.collector.records()}
        latency[h] = [by_job[j] for j in runs]
    if latency[1] and latency[4]:
        mean = {h: sum(latency[h]) / len(latency[h]) for h in (1, 4)}
        assert mean[4] > mean[1], mean
