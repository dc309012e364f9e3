"""A membership join whose repair closure spans a bisection cut.

The network is split in two halves (sites sorted by BFS hop from site 0,
then id), and a joiner is wired to the two endpoints of the first edge
*crossing* the halves, so its ≤2P-hop repair closure straddles both
halves. The incremental repair must still equal a full ``phased_tables``
rebuild bit for bit (``verify_converged``) — the proof in
``repro.membership`` does not know or care where a cut lies, and this
pins that.
"""

from dataclasses import replace

import numpy as np

from repro.experiments.runner import ExperimentConfig, run_experiment
from repro.faults import FaultPlan, SiteJoinEvent
from repro.routing.vectorized import Links, hop_distances
from repro.simnet.topology import topology_factory

BASE = ExperimentConfig(
    topology="erdos_renyi",
    topology_kwargs={"n": 16, "p": 0.3, "delay_range": (0.2, 1.0)},
    duration=120.0,
    seed=5,
    routing_mode="oracle",
)


def _base_topology(config: ExperimentConfig):
    """The exact topology the runner builds for ``config`` (same rng draw)."""
    rng = np.random.default_rng(config.seed)
    return topology_factory(config.topology, rng=rng, **config.topology_kwargs)


def _bisect(topo):
    """Deterministic halves of ``topo`` and the first edge crossing them.

    Sites are ordered by ``(BFS hop from site 0, id)`` and the order is
    split in half; returns ``(halves, u, v)`` with ``u``, ``v`` the
    endpoints of the first edge of ``topo.edges`` whose ends lie in
    different halves.
    """
    hop = hop_distances(Links(topo.n, topo.edges), [0])
    order = sorted(range(topo.n), key=lambda s: (hop[s] if hop[s] >= 0 else topo.n, s))
    halves = (set(order[: topo.n // 2]), set(order[topo.n // 2 :]))
    u, v = next((u, v) for u, v, _ in topo.edges if (u in halves[0]) != (v in halves[0]))
    return halves, u, v


def test_join_across_a_partition_cut_converges_bit_for_bit():
    topo = _base_topology(BASE)
    halves, u, v = _bisect(topo)
    assert (u in halves[0]) != (v in halves[0])

    # the joiner's direct links land one peer in each half, so every
    # repair radius >= 1 hop spans the boundary by construction
    faults = FaultPlan(
        join_events=(SiteJoinEvent(time=20.0, links=((u, 0.4), (v, 0.7))),)
    )
    res = run_experiment(replace(BASE, faults=faults))

    membership = res.resident.membership
    assert membership is not None
    joiner = topo.n  # latent sites get ids n_base, n_base+1, ...
    assert joiner in res.network.sites
    assert membership.verify_converged()

    # the joined site actually routes to both halves (repair reached both)
    tables = res.resident.shared_tables
    for shared in tables.values():
        for half in halves:
            assert any(shared.cell(joiner, s) >= 0 for s in half), (
                "repair closure failed to span the partition boundary"
            )


def test_two_joins_on_opposite_sides_of_the_cut():
    topo = _base_topology(BASE)
    _halves, u, v = _bisect(topo)
    # one joiner per side; the second one joins after the first repaired
    faults = FaultPlan(
        join_events=(
            SiteJoinEvent(time=15.0, links=((u, 0.5),)),
            SiteJoinEvent(time=40.0, links=((v, 0.5), (topo.n, 1.0))),
        )
    )
    res = run_experiment(replace(BASE, faults=faults))
    membership = res.resident.membership
    assert membership.verify_converged()
    # the second joiner is linked across the boundary via the first
    second = topo.n + 1
    assert second in res.network.sites
