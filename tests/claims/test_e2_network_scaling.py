"""E2 — protocol messages per job vs network size.

The title claim: RTDS works on **arbitrary wide** networks because it
"never broadcasts over all the network" (§3). Per-job traffic depends on
the sphere, not on N: RTDS msg/job stays ~flat as N quadruples, while
focused addressing, which floods surplus updates (Θ(|E|) per update),
grows with N.
"""

from dataclasses import replace

import pytest

from repro.experiments.evaluation import sweep_network_size
from repro.experiments.runner import ExperimentConfig, run_experiment

BASE = ExperimentConfig(
    topology_kwargs={"n": 16, "p": 0.25, "delay_range": (0.2, 1.0)},
    rho=0.6,
    duration=200.0,
    seed=17,
)

SIZES = (12, 24, 48)


@pytest.fixture(scope="module")
def rows():
    """The size sweep both E2 and E2b read."""
    return sweep_network_size(BASE, ("rtds", "focused"), SIZES)


def test_e2_messages_vs_network_size(rows):
    rtds = {r["sites"]: r["msg/job"] for r in rows if r["algorithm"] == "rtds"}
    focused = {r["sites"]: r["msg/job"] for r in rows if r["algorithm"] == "focused"}
    # RTDS: quadrupling the network changes per-job cost by < 2x
    assert rtds[SIZES[-1]] < 2.0 * max(rtds[SIZES[0]], 1.0), rtds
    # focused addressing: grows superlinearly thanks to flooding
    assert focused[SIZES[-1]] > 2.0 * focused[SIZES[0]], focused
    # and is far above RTDS at the largest size
    assert focused[SIZES[-1]] > 3.0 * rtds[SIZES[-1]]


def test_e2_setup_cost_scales_with_sphere_not_network(rows):
    """PCS construction messages per site are bounded by 2h * degree."""
    per_site = [r["setup_msg"] / r["sites"] for r in rows if r["algorithm"] == "rtds"]
    assert max(per_site) < 2.5 * min(per_site), per_site


def test_e2_message_type_breakdown():
    """Routing setup is RTDS's only flooding-ish traffic, and it is
    one-time: every ROUTING_UPDATE of a 24-site run is a setup message."""
    cfg = replace(
        BASE,
        algorithm="rtds",
        topology_kwargs={"n": 24, "p": 4.0 / 23, "delay_range": (0.2, 1.0)},
    )
    res = run_experiment(cfg)
    assert res.network.stats.snapshot().get("ROUTING_UPDATE", 0) == res.setup_messages
