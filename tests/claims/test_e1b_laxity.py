"""E1b — sensitivity to deadline tightness (laxity factor).

Companion to E1: fix the load, sweep how tight deadlines are. Expected
shape: with very tight deadlines (laxity → 1) nothing can be distributed —
the protocol's communication budget does not fit — so RTDS degenerates to
local-only; as laxity grows, the sphere becomes usable and the gap opens;
with huge laxity everything fits everywhere and all schemes converge.
"""

from dataclasses import replace

from repro.experiments.runner import ExperimentConfig, run_experiment

BASE = ExperimentConfig(
    topology_kwargs={"n": 16, "p": 0.25, "delay_range": (0.2, 1.0)},
    rho=0.8,
    duration=250.0,
    seed=41,
)

LAXITIES = (1.3, 2.0, 3.0, 5.0, 8.0)


def test_e1b_laxity_sweep():
    by = {
        (algo, lf): run_experiment(
            replace(BASE, algorithm=algo, laxity_factor=lf, label=algo)
        ).summary
        for lf in LAXITIES
        for algo in ("rtds", "local")
    }
    # RTDS never loses to local-only by more than noise
    for lf in LAXITIES:
        assert by[("rtds", lf)].guarantee_ratio >= by[("local", lf)].guarantee_ratio - 0.03
    # distribution only happens once deadlines leave room for the protocol
    assert (
        by[("rtds", LAXITIES[0])].n_accepted_distributed
        <= by[("rtds", LAXITIES[-2])].n_accepted_distributed
    )
    # at generous laxity both schemes are near-perfect
    assert by[("local", LAXITIES[-1])].guarantee_ratio > 0.9
    assert by[("rtds", LAXITIES[-1])].guarantee_ratio > 0.95
    # guarantees stay honest at every tightness
    for lf in LAXITIES:
        assert by[("rtds", lf)].n_missed == 0, lf
