"""E3 — the sphere radius h: acceptance vs cost.

The Computing Sphere trades acceptance for traffic through one knob, the
hop radius h (§6-§7). Expected shape: guarantee ratio rises with h and
saturates once the sphere holds enough surplus; message cost (both the
one-time 2h-phase construction and the per-job enrollment) keeps growing —
so a small h is the sweet spot, which is the paper's design point.
"""


from benchmarks.conftest import once
from repro.experiments.evaluation import sweep_sphere_radius
from repro.experiments.reporting import format_table
from repro.experiments.runner import ExperimentConfig

BASE = ExperimentConfig(
    topology="grid",
    topology_kwargs={"rows": 5, "cols": 5, "delay_range": (0.2, 0.8)},
    rho=0.8,
    duration=250.0,
    laxity_factor=3.0,
    seed=23,
)

HS = (1, 2, 3, 4)
PHASES = ("phase.enroll", "phase.map", "phase.validate")


def test_e3_radius_sweep(benchmark, emit):
    rows = once(benchmark, sweep_sphere_radius, BASE, HS)
    table = format_table(
        rows,
        title=(
            "E3 - PCS radius h sweep (5x5 grid, rho=0.8)\n"
            "expected: GR rises then saturates; setup and enrollment costs grow"
        ),
    )
    emit("e3_sphere_radius", table)

    by_h = {r["h"]: r for r in rows}
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


def test_e3_latency_breakdown_grows_with_h(benchmark, emit):
    """Why big spheres stop paying: every protocol phase (enroll round,
    validation round) stretches with the sphere radius."""
    from dataclasses import replace

    from repro.core.config import RTDSConfig
    from repro.experiments.runner import run_experiment

    def mean(vals):
        return sum(vals) / len(vals) if vals else float("nan")

    def sweep():
        rows = []
        for h in (1, 2, 4):
            cfg = replace(
                BASE,
                algorithm="rtds",
                rtds=RTDSConfig(h=h),
                telemetry=True,
                duration=150.0,
                label=f"h={h}",
            )
            res = run_experiment(cfg)
            # job -> phase -> duration over the protocol runs (locally
            # admitted jobs carry kind="local" spans and are skipped)
            runs = {}
            for s in res.telemetry.spans:
                if s.category in PHASES and (s.labels or {}).get("kind") != "local":
                    runs.setdefault(s.key, {})[s.category] = s.duration
            mapped = [r for r in runs.values() if "phase.map" in r]
            validated = [r for r in runs.values() if "phase.validate" in r]
            latency = {r.job: r.decision_latency for r in res.collector.records()}
            rows.append(
                {
                    "h": h,
                    "protocol_runs": len(runs),
                    "enroll+map": round(
                        mean([r["phase.enroll"] + r["phase.map"] for r in mapped]), 3
                    ),
                    "validate": round(mean([r["phase.validate"] for r in validated]), 3),
                    "total_decision": round(mean([latency[j] for j in runs]), 3),
                }
            )
        return rows

    rows = once(benchmark, sweep)
    emit(
        "e3b_latency_breakdown",
        format_table(
            rows, title="E3b - protocol phase latencies vs sphere radius h"
        ),
    )
    by_h = {r["h"]: r for r in rows}
    if by_h[1]["protocol_runs"] and by_h[4]["protocol_runs"]:
        assert by_h[4]["total_decision"] > by_h[1]["total_decision"]
