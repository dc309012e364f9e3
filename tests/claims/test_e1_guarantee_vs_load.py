"""E1 — guarantee ratio vs offered load, RTDS vs baselines.

The paper's §14 claim: Computing Spheres "lead to an increase of the number
of accepted (executed) jobs" over no cooperation. The shape (not absolute
numbers): RTDS ≥ local-only at every load, with a material gap somewhere,
and the idealised centralized oracle on top. The paired 5-seed
significance test of the RTDS − local difference (E1c) is the nightly
"E1c paired significance" step.
"""

from dataclasses import replace

from repro.experiments.evaluation import sweep_load
from repro.experiments.runner import ExperimentConfig, run_experiment

BASE = ExperimentConfig(
    topology="erdos_renyi",
    topology_kwargs={"n": 16, "p": 0.25, "delay_range": (0.2, 1.0)},
    duration=300.0,
    laxity_factor=3.0,
    seed=7,
)

RHOS = (0.3, 0.6, 0.9, 1.2)
ALGOS = ("rtds", "local", "centralized", "focused", "random")


def test_e1_guarantee_vs_load():
    rows = sweep_load(BASE, ALGOS, RHOS, (7, 8))
    by = {(r["algorithm"], r["rho"]): r for r in rows}
    for rho in RHOS:
        rtds = by[("rtds", rho)]["GR"]
        local = by[("local", rho)]["GR"]
        central = by[("centralized", rho)]["GR"]
        # the paper's claim: cooperation accepts more (small tolerance for
        # lock-contention noise at extreme load)
        assert rtds >= local - 0.02, f"rho={rho}: RTDS {rtds} < local {local}"
        # the oracle bounds RTDS (it has perfect knowledge)
        assert central >= rtds - 0.05, f"rho={rho}: oracle below RTDS?"
    # the gap is material somewhere in the sweep
    gaps = [by[("rtds", r)]["GR"] - by[("local", r)]["GR"] for r in RHOS]
    assert max(gaps) > 0.05, f"no visible cooperation benefit: {gaps}"


def test_e1_effective_ratio_tracks_guarantee():
    """Accepted jobs must actually meet their deadlines (effGR ≈ GR)."""
    s = run_experiment(replace(BASE, algorithm="rtds", rho=0.6)).summary
    assert s.n_unfinished == 0
    assert s.effective_ratio >= s.guarantee_ratio - 0.03
