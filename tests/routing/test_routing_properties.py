"""Hypothesis property tests: phased routing equals the oracle on random
topologies, for random phase budgets."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.routing.bellman_ford import run_pcs_phase_protocol
from repro.routing.reference import hop_bounded_distances
from repro.simnet.engine import Simulator
from repro.simnet.topology import build_network, erdos_renyi
from repro.spheres.pcs import build_pcs
from tests.conftest import RecordingSite


@st.composite
def routed_networks(draw):
    n = draw(st.integers(min_value=3, max_value=14))
    seed = draw(st.integers(min_value=0, max_value=5000))
    phases = draw(st.integers(min_value=1, max_value=6))
    return n, seed, phases


@given(routed_networks())
@settings(max_examples=40, deadline=None)
def test_distributed_equals_oracle(params):
    n, seed, phases = params
    topo = erdos_renyi(n, 0.35, np.random.default_rng(seed), delay_range=(0.5, 4.0))
    sim = Simulator()
    net = build_network(topo, sim, lambda sid, nn: RecordingSite(sid, nn))
    protos = run_pcs_phase_protocol([net.site(s) for s in net.site_ids()], phases)
    sim.run()
    adj = topo.adjacency()
    for sid, proto in protos.items():
        oracle = hop_bounded_distances(adj, sid, phases)
        assert set(proto.table.within_phase(proto.total_phases)) == set(oracle)
        for dest, (dist, bfs) in oracle.items():
            e = proto.table.entry(dest)
            assert e.distance == pytest.approx(dist, abs=1e-9)
            assert e.discovered_phase == bfs


@given(routed_networks())
@settings(max_examples=30, deadline=None)
def test_pcs_membership_symmetric(params):
    """j in PCS(k) iff k in PCS(j): hop distance is symmetric."""
    n, seed, phases = params
    h = max(1, phases // 2)
    topo = erdos_renyi(n, 0.35, np.random.default_rng(seed), delay_range=(0.5, 4.0))
    sim = Simulator()
    net = build_network(topo, sim, lambda sid, nn: RecordingSite(sid, nn))
    protos = run_pcs_phase_protocol([net.site(s) for s in net.site_ids()], 2 * h)
    sim.run()
    pcs = {sid: build_pcs(p.table, h) for sid, p in protos.items()}
    for a in pcs:
        for b in pcs[a].members:
            assert a in pcs[b], f"{b} in PCS({a}) but not vice versa"
