"""A membership join whose repair closure spans a shard-partition cut.

The E14 partitioner and the membership repair machinery meet here: a
joiner is wired to the two endpoints of a *cut edge* of
``partition_topology(topo, 2)``, so its ≤2P-hop repair closure straddles
both parts of the bisection. The incremental repair must still equal a
full ``phased_tables`` rebuild bit for bit (``verify_converged``) — the
proof in ``repro.membership`` does not know or care where a partitioner
would draw its boundary, and this pins that.

(Sharded runs themselves reject join plans; this runs the single-process
engine against the exact topology the partitioner would cut.)
"""

from dataclasses import replace

import numpy as np

from repro.experiments.runner import ExperimentConfig, run_experiment
from repro.faults import FaultPlan, SiteJoinEvent
from repro.simnet.sharded.partition import partition_topology
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


def test_join_across_a_partition_cut_converges_bit_for_bit():
    topo = _base_topology(BASE)
    plan2 = partition_topology(topo, 2)
    assert plan2.cut_edges, "a connected 2-cut must cut at least one edge"
    u, v, _delay = plan2.cut_edges[0]
    assert plan2.assignment[u] != plan2.assignment[v]

    # the joiner's direct links land one peer in each part, so every
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

    # the joined site actually routes to both parts (repair reached both)
    tables = res.resident.shared_tables
    for shared in tables.values():
        for part in plan2.parts:
            assert any(shared.cell(joiner, s) >= 0 for s in part), (
                "repair closure failed to span the partition boundary"
            )


def test_two_joins_on_opposite_sides_of_the_cut():
    topo = _base_topology(BASE)
    plan2 = partition_topology(topo, 2)
    u, v, _delay = plan2.cut_edges[0]
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
