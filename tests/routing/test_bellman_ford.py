"""Tests for the phased distributed Bellman-Ford (paper §7).

The key contract: after ``P`` phases, every site's table equals the
centralized hop-bounded Bellman-Ford oracle restricted to ``P`` hops —
*exactly*, not approximately.
"""

import numpy as np
import pytest

from repro.errors import RoutingError
from repro.routing.bellman_ford import PhasedBellmanFord, run_pcs_phase_protocol
from repro.routing.reference import dijkstra, hop_bounded_distances, hop_diameter
from repro.simnet.engine import Simulator
from repro.simnet.network import Network
from repro.simnet.topology import (
    build_network,
    erdos_renyi,
    grid,
    line,
    random_geometric,
    ring,
)
from tests.conftest import RecordingSite


def run_bf(topo, phases):
    sim = Simulator()
    net = build_network(topo, sim, lambda sid, n: RecordingSite(sid, n))
    sites = [net.site(s) for s in net.site_ids()]
    protos = run_pcs_phase_protocol(sites, phases)
    sim.run()
    return net, protos


TOPOLOGIES = [
    line(6, delay_range=(1.0, 3.0)),
    ring(7, delay_range=(0.5, 2.0)),
    grid(3, 4, delay_range=(1.0, 4.0)),
    erdos_renyi(14, 0.25, np.random.default_rng(3), delay_range=(1.0, 5.0)),
    random_geometric(12, 0.4, np.random.default_rng(5)),
]


@pytest.mark.parametrize("topo", TOPOLOGIES, ids=lambda t: t.name)
@pytest.mark.parametrize("phases", [1, 2, 4])
def test_matches_hop_bounded_oracle(topo, phases):
    net, protos = run_bf(topo, phases)
    adj = topo.adjacency()
    for sid, proto in protos.items():
        assert proto.done
        oracle = hop_bounded_distances(adj, sid, phases)
        got = {d: (e.distance, e.discovered_phase) for d, e in
               ((d, proto.table.entry(d)) for d in proto.table.destinations())}
        assert set(got) == set(oracle)
        for dest, (dist, bfs) in oracle.items():
            gd, gphase = got[dest]
            assert gd == pytest.approx(dist, abs=1e-9), (sid, dest)
            assert gphase == bfs


@pytest.mark.parametrize("topo", TOPOLOGIES, ids=lambda t: t.name)
def test_full_phases_match_dijkstra(topo):
    """With enough phases the interrupted algorithm converges to true APSP.

    Note: the minimum-delay path may use more hops than the hop diameter
    (e.g. around a weighted ring), so full convergence needs n-1 phases —
    the longest simple path — not just hop-diameter many.
    """
    phases = topo.n - 1
    net, protos = run_bf(topo, phases)
    adj = topo.adjacency()
    for sid, proto in protos.items():
        exact = dijkstra(adj, sid)
        for dest, d in exact.items():
            assert proto.table.entry(dest).distance == pytest.approx(d, abs=1e-9)


def test_forwarding_reaches_destination_along_tables():
    """Hop-by-hop forwarding with the installed next_hop tables terminates."""
    topo = erdos_renyi(16, 0.2, np.random.default_rng(11), delay_range=(1.0, 5.0))
    phases = max(1, hop_diameter(topo.adjacency()))
    sim = Simulator()
    net = build_network(topo, sim, lambda sid, n: RecordingSite(sid, n))
    sites = {s: net.site(s) for s in net.site_ids()}
    run_pcs_phase_protocol(list(sites.values()), phases)
    sim.run()
    for src in sites:
        for dst in sites:
            if src == dst:
                continue
            cur, hops = src, 0
            while cur != dst:
                cur = sites[cur].next_hop[dst]
                hops += 1
                assert hops <= topo.n, f"routing loop {src}->{dst}"


def test_message_count_bounded_by_phases_times_degree():
    topo = grid(4, 4, delay_range=(1.0, 1.0))
    phases = 4
    net, protos = run_bf(topo, phases)
    for sid, proto in protos.items():
        deg = len(net.neighbors(sid))
        # one update per neighbour per exchange round (phases - 1 rounds)
        assert proto.messages_sent == (phases - 1) * deg


def test_interruption_limits_knowledge():
    """After 2 phases on a line, site 0 must not know sites > 2 hops away."""
    topo = line(8, delay_range=(1.0, 1.0))
    net, protos = run_bf(topo, 2)
    known = protos[0].table.destinations()
    assert known == [0, 1, 2]


def test_single_phase_knows_only_neighbors():
    topo = ring(6, delay_range=(1.0, 1.0))
    net, protos = run_bf(topo, 1)
    assert protos[2].table.destinations() == [1, 2, 3]


def test_done_callback_fires_once():
    calls = []
    topo = line(3, delay_range=(1.0, 1.0))
    sim = Simulator()
    net = build_network(topo, sim, lambda sid, n: RecordingSite(sid, n))
    protos = {
        s: PhasedBellmanFord(net.site(s), 3, on_done=lambda s=s: calls.append(s))
        for s in net.site_ids()
    }
    for p in protos.values():
        p.start()
    sim.run()
    assert sorted(calls) == [0, 1, 2]


def test_zero_delay_link_rejected():
    sim = Simulator()
    net = Network(sim)
    a, b = RecordingSite(0, net), RecordingSite(1, net)
    net.add_link(0, 1, 0.0)
    proto = PhasedBellmanFord(a, 2)
    with pytest.raises(RoutingError):
        proto.start()


def test_invalid_phase_count():
    sim = Simulator()
    net = Network(sim)
    a = RecordingSite(0, net)
    with pytest.raises(RoutingError):
        PhasedBellmanFord(a, 0)


def test_next_hop_installed_after_done():
    topo = line(4, delay_range=(2.0, 2.0))
    net, protos = run_bf(topo, 3)
    s0 = net.site(0)
    assert s0.next_hop[1] == 1
    assert s0.next_hop[2] == 1
    assert s0.next_hop[3] == 1
    assert s0.known_distance[3] == pytest.approx(6.0)
