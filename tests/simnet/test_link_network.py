"""Tests for links, network delivery and the SiteBase plumbing."""

import pytest

from repro.errors import ProtocolError, RoutingError, SimulationError, TopologyError
from repro.simnet.link import Link
from repro.simnet.message import Message
from repro.simnet.site import SiteBase
from repro.simnet.topology import Topology
from tests.conftest import RecordingSite, make_line_network


class TestLink:
    def test_canonical_order(self):
        link = Link(5, 2, 1.0)
        assert link.key == (2, 5)

    def test_self_loop_rejected(self):
        with pytest.raises(TopologyError):
            Link(1, 1, 1.0)

    def test_negative_delay_rejected(self):
        with pytest.raises(TopologyError):
            Link(1, 2, -0.5)

    def test_bad_throughput_rejected(self):
        with pytest.raises(TopologyError):
            Link(1, 2, 1.0, throughput=0.0)

    def test_transfer_time_pure_delay(self):
        link = Link(1, 2, 2.5)
        assert link.transfer_time(1000.0) == 2.5

    def test_transfer_time_with_throughput(self):
        link = Link(1, 2, 1.0, throughput=10.0)
        assert link.transfer_time(20.0) == pytest.approx(3.0)

    def test_fifo_clamp(self):
        link = Link(1, 2, 1.0, throughput=1.0)
        t1 = link.delivery_time(0.0, 10.0, to=2)  # arrives 11
        t2 = link.delivery_time(0.5, 1.0, to=2)  # would arrive 2.5 -> clamp 11
        assert t1 == pytest.approx(11.0)
        assert t2 == pytest.approx(11.0)

    def test_fifo_independent_directions(self):
        link = Link(1, 2, 1.0, throughput=1.0)
        link.delivery_time(0.0, 10.0, to=2)
        t_rev = link.delivery_time(0.5, 1.0, to=1)
        assert t_rev == pytest.approx(2.5)


class TestNetwork:
    def test_duplicate_site_rejected(self, net):
        RecordingSite(0, net)
        with pytest.raises(TopologyError):
            RecordingSite(0, net)

    def test_link_unknown_site_rejected(self, net):
        RecordingSite(0, net)
        with pytest.raises(TopologyError):
            net.add_link(0, 1, 1.0)

    def test_duplicate_link_rejected(self, net):
        RecordingSite(0, net)
        RecordingSite(1, net)
        net.add_link(0, 1, 1.0)
        with pytest.raises(TopologyError):
            net.add_link(1, 0, 2.0)

    def test_neighbors_sorted(self, net):
        for i in range(4):
            RecordingSite(i, net)
        net.add_link(0, 3, 1.0)
        net.add_link(0, 1, 1.0)
        net.add_link(0, 2, 1.0)
        assert net.neighbors(0) == (1, 2, 3)

    def test_delivery_after_delay(self, sim):
        net, sites = make_line_network(sim, 2, delay=2.5)
        sites[0].send_neighbor(1, "PING", {"x": 1})
        sim.run()
        assert sites[1].received == [(2.5, "PING", 0, {"x": 1})]

    def test_message_to_self_rejected(self, sim):
        net, sites = make_line_network(sim, 2)
        with pytest.raises(SimulationError):
            net.transmit(Message("PING", src=0, dst=0, origin=0))

    def test_stats_recorded(self, sim):
        net, sites = make_line_network(sim, 3)
        sites[0].send_neighbor(1, "PING", size=4.0)
        sites[1].send_neighbor(2, "PING", size=2.0)
        sim.run()
        assert net.stats.total == 2
        assert net.stats.count["PING"] == 2
        assert net.stats.volume["PING"] == 6.0

    def test_is_connected(self):
        assert Topology(3, ((0, 1, 1.0), (1, 2, 1.0))).is_connected()
        assert not Topology(2, ()).is_connected()


class TestSiteBase:
    def test_duplicate_handler_rejected(self, sim):
        net, sites = make_line_network(sim, 2)
        with pytest.raises(ProtocolError):
            sites[0].on("PING", lambda m: None)

    def test_unknown_message_raises(self, sim):
        net, sites = make_line_network(sim, 2)
        sites[0].send_neighbor(1, "NOPE")
        with pytest.raises(ProtocolError):
            sim.run()

    def test_send_to_requires_route(self, sim):
        net, sites = make_line_network(sim, 3)
        with pytest.raises(RoutingError):
            sites[0].send_to(2, "PING")

    def test_multi_hop_forwarding(self, sim):
        net, sites = make_line_network(sim, 4, delay=1.0)
        # install static routes by hand
        sites[0].next_hop = {1: 1, 2: 1, 3: 1}
        sites[1].next_hop = {0: 0, 2: 2, 3: 2}
        sites[2].next_hop = {0: 1, 1: 1, 3: 3}
        sites[3].next_hop = {0: 2, 1: 2, 2: 2}
        sites[0].send_to(3, "PING", {"k": "v"})
        sim.run()
        assert sites[3].received == [(3.0, "PING", 0, {"k": "v"})]
        # intermediate sites did not dispatch it
        assert sites[1].received == []
        assert sites[2].received == []
        # three physical transmissions
        assert net.stats.count["PING"] == 3

    def test_send_to_self_rejected(self, sim):
        net, sites = make_line_network(sim, 2)
        with pytest.raises(ProtocolError):
            sites[0].send_to(0, "PING")

    def test_hops_counted(self, sim):
        net, sites = make_line_network(sim, 3)
        sites[0].next_hop = {2: 1}
        sites[1].next_hop = {2: 2}
        captured = []
        sites[2].on("HOPTEST", lambda m: captured.append(m.hops))
        sites[0].send_to(2, "HOPTEST")
        sim.run()
        assert captured == [2]
