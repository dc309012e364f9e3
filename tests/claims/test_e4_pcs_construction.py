"""E4 — PCS construction: correctness and cost of the interrupted APSP.

§7: stopping the distributed Bellman-Ford after 2h phases must leave every
site with *exact* hop-bounded distances (verified against a centralized
oracle), at a per-site cost of (2h-1) x degree messages, independent of the
network size.
"""

import numpy as np

from repro.routing.bellman_ford import run_pcs_phase_protocol
from repro.routing.reference import hop_bounded_distances
from repro.simnet.engine import Simulator
from repro.simnet.topology import build_network, erdos_renyi
from tests.conftest import RecordingSite


def construct(n: int, phases: int, seed: int = 5):
    topo = erdos_renyi(n, min(1.0, 4.0 / (n - 1)), np.random.default_rng(seed),
                       delay_range=(0.5, 2.0))
    sim = Simulator()
    net = build_network(topo, sim, lambda sid, nn: RecordingSite(sid, nn))
    protos = run_pcs_phase_protocol([net.site(s) for s in net.site_ids()], phases)
    sim.run()
    return topo, net, protos


def test_e4_correctness_vs_oracle():
    topo, _, protos = construct(48, 4)
    adj = topo.adjacency()
    for sid, proto in protos.items():
        oracle = hop_bounded_distances(adj, sid, 4)
        got = {d: proto.table.entry(d).distance for d in proto.table.destinations()}
        assert set(got) == set(oracle), sid
        for d, (dist, _) in oracle.items():
            assert abs(got[d] - dist) <= 1e-9, (sid, d)


def test_e4_cost_scaling():
    per_site = [construct(n, 4)[1].stats.total / n for n in (16, 32, 64, 128)]
    assert max(per_site) < 2.0 * min(per_site), per_site


def test_e4_phase_count_vs_coverage():
    """Coverage (|PCS| candidates) grows with phases; messages grow too."""
    known, messages = [], []
    for phases in (1, 2, 4, 6):
        _, net, protos = construct(48, phases)
        known.append(np.mean([len(p.table) for p in protos.values()]))
        messages.append(net.stats.total)
    assert known[-1] > known[0]
    assert messages[-1] > messages[0]
