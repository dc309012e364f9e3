"""Tests for PCS membership, sphere broadcast, ACS sessions and locks."""

import numpy as np
import pytest

from repro.errors import ProtocolError, RoutingError
from repro.core.messages import MSG_SPHERE
from repro.routing.bellman_ford import run_pcs_phase_protocol
from repro.routing.reference import hop_bounded_distances
from repro.simnet.engine import Simulator
from repro.simnet.topology import build_network, erdos_renyi, grid, line
from repro.spheres.acs import AcsSession, EnrolledSite, SiteLock
from repro.spheres.diameter import sphere_diameter, sphere_radius
from repro.spheres.pcs import build_pcs, handle_sphere_message, sphere_broadcast
from tests.conftest import RecordingSite


class SphereSite(RecordingSite):
    """Recording site that relays SPHERE envelopes and logs deliveries."""

    def __init__(self, sid, network):
        super().__init__(sid, network)
        self.delivered = []
        self.on(MSG_SPHERE, self._on_sphere)

    def _on_sphere(self, msg):
        inner = handle_sphere_message(self, msg)
        if inner is not None:
            self.delivered.append((self.sim.now, inner["mtype"], inner["origin"]))


def setup_routed(topo, phases):
    sim = Simulator()
    net = build_network(topo, sim, lambda sid, n: SphereSite(sid, n))
    sites = [net.site(s) for s in net.site_ids()]
    protos = run_pcs_phase_protocol(sites, phases)
    sim.run()
    return sim, net, protos


class TestPCSMembership:
    @pytest.mark.parametrize("h", [1, 2, 3])
    def test_members_match_bfs_oracle(self, h):
        topo = erdos_renyi(14, 0.2, np.random.default_rng(4), delay_range=(1.0, 3.0))
        sim, net, protos = setup_routed(topo, 2 * h)
        adj = topo.adjacency()
        for sid, proto in protos.items():
            pcs = build_pcs(proto.table, h)
            oracle = {
                d
                for d, (_, hops) in hop_bounded_distances(adj, sid, 2 * h).items()
                if 0 < hops <= h
            }
            assert set(pcs.members) == oracle

    def test_members_sorted_by_distance(self):
        topo = line(6, delay_range=(1.0, 2.0))
        sim, net, protos = setup_routed(topo, 4)
        pcs = build_pcs(protos[0].table, 2)
        dists = [pcs.distance[m] for m in pcs.members]
        assert dists == sorted(dists)

    def test_nearest(self):
        topo = line(5, delay_range=(2.0, 2.0))
        sim, net, protos = setup_routed(topo, 4)
        pcs = build_pcs(protos[2].table, 2)
        assert set(pcs.nearest(2)) == {1, 3}

    def test_invalid_h(self):
        topo = line(3, delay_range=(1.0, 1.0))
        sim, net, protos = setup_routed(topo, 2)
        with pytest.raises(RoutingError):
            build_pcs(protos[0].table, 0)

    def test_contains(self):
        topo = line(5, delay_range=(1.0, 1.0))
        sim, net, protos = setup_routed(topo, 2)
        pcs = build_pcs(protos[0].table, 1)
        assert 0 in pcs and 1 in pcs and 3 not in pcs


class TestSphereBroadcast:
    def test_tree_broadcast_reaches_all_targets(self):
        topo = grid(3, 3, delay_range=(1.0, 1.0))
        sim, net, protos = setup_routed(topo, 6)
        root = net.site(4)  # center
        targets = [0, 1, 2, 3, 5, 6, 7, 8]
        sphere_broadcast(root, targets, "HELLO", {"x": 1})
        sim.run()
        for t in targets:
            assert net.site(t).delivered == [(pytest.approx(net.site(t).delivered[0][0]), "HELLO", 4)]
        assert root.delivered == []

    def test_tree_cheaper_than_unicast(self):
        """Tree broadcast must use fewer transmissions than per-target
        unicast on a line (where paths share every edge)."""
        topo = line(6, delay_range=(1.0, 1.0))
        sim, net, protos = setup_routed(topo, 10)
        root = net.site(0)
        before = net.stats.total
        sphere_broadcast(root, [1, 2, 3, 4, 5], "HELLO", {})
        sim.run()
        tree_cost = net.stats.total - before
        # unicast cost would be 1+2+3+4+5 = 15; the tree uses 5 (one/edge)
        assert tree_cost == 5

    def test_split_by_next_hop(self):
        topo = line(5, delay_range=(1.0, 1.0))
        sim, net, protos = setup_routed(topo, 8)
        mid = net.site(2)
        from repro.spheres.pcs import split_targets_by_hop

        groups = split_targets_by_hop(mid, [0, 1, 3, 4])
        assert groups == {1: [0, 1], 3: [3, 4]}

    def test_unroutable_target_raises(self):
        topo = line(5, delay_range=(1.0, 1.0))
        sim, net, protos = setup_routed(topo, 1)  # knows neighbours only
        with pytest.raises(RoutingError):
            sphere_broadcast(net.site(0), [4], "HELLO", {})


class TestDiameter:
    def test_full_knowledge(self):
        d = sphere_diameter(
            0,
            {1: 2.0, 2: 5.0},
            {1: {0: 2.0, 2: 6.0}, 2: {0: 5.0, 1: 6.0}},
        )
        assert d == pytest.approx(6.0)

    def test_missing_pair_uses_triangle_bound(self):
        d = sphere_diameter(0, {1: 2.0, 2: 5.0}, {1: {0: 2.0}, 2: {0: 5.0}})
        assert d == pytest.approx(7.0)  # 2 + 5 via the initiator

    def test_radius(self):
        assert sphere_radius({1: 2.0, 2: 5.0}, [1, 2]) == 5.0
        assert sphere_radius({}, []) == 0.0


class TestAcsSession:
    def mk(self):
        return AcsSession(7, 0, [1, 2, 3])

    def info(self, site):
        return EnrolledSite(site=site, surplus=0.5, busyness=0.5, speed=1.0, distances={})

    def test_enrollment_completion(self):
        s = self.mk()
        assert not s.enrollment_complete()
        s.record_ack(self.info(1))
        s.record_refusal(2)
        assert not s.enrollment_complete()
        s.record_ack(self.info(3))
        assert s.enrollment_complete()
        assert s.acs_members() == [1, 3]

    def test_unsolicited_ack_rejected(self):
        s = self.mk()
        with pytest.raises(ProtocolError):
            s.record_ack(self.info(9))

    def test_wrong_phase_rejected(self):
        s = self.mk()
        s.phase = AcsSession.VALIDATING
        with pytest.raises(ProtocolError):
            s.record_ack(self.info(1))
        with pytest.raises(ProtocolError):
            s.record_refusal(1)

    def test_validation_completion(self):
        s = self.mk()
        s.record_ack(self.info(1))
        s.phase = AcsSession.VALIDATING
        s.record_endorsement(0, [0])  # initiator itself
        assert not s.validation_complete()
        s.record_endorsement(1, [0, 1])
        assert s.validation_complete()

    def test_endorsement_from_non_member_rejected(self):
        s = self.mk()
        s.phase = AcsSession.VALIDATING
        with pytest.raises(ProtocolError):
            s.record_endorsement(2, [0])  # 2 never enrolled


class TestSiteLock:
    def test_acquire_release(self):
        lock = SiteLock(5)
        lock.acquire(1, 10)
        assert lock.locked and lock.held_by(1, 10)
        lock.release(1, 10)
        assert not lock.locked

    def test_double_acquire_rejected(self):
        lock = SiteLock(5)
        lock.acquire(1, 10)
        with pytest.raises(ProtocolError):
            lock.acquire(2, 11)

    def test_wrong_release_rejected(self):
        lock = SiteLock(5)
        lock.acquire(1, 10)
        with pytest.raises(ProtocolError):
            lock.release(1, 11)

    def test_defer_fifo(self):
        lock = SiteLock(5)
        lock.defer("a")
        lock.defer("b")
        assert list(lock.deferred) == ["a", "b"]
