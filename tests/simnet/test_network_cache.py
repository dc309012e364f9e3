"""Cached adjacency and the tracing fast path (network hot-path state)."""

import pytest

from repro.simnet.engine import Simulator
from repro.simnet.network import Network
from repro.simnet.site import SiteBase
from repro.simnet.trace import Tracer


class PlainSite(SiteBase):
    pass


@pytest.fixture
def net():
    return Network(Simulator())


def build(net, n):
    for i in range(n):
        PlainSite(i, net)


class TestNeighborsCache:
    def test_cache_returns_same_tuple(self, net):
        build(net, 3)
        net.add_link(0, 1, 1.0)
        net.add_link(0, 2, 1.0)
        first = net.neighbors(0)
        assert first == (1, 2)
        assert net.neighbors(0) is first, "repeat lookups must hit the cache"

    def test_add_link_invalidates_both_endpoints(self, net):
        build(net, 4)
        net.add_link(0, 1, 1.0)
        assert net.neighbors(0) == (1,)
        assert net.neighbors(1) == (0,)
        net.add_link(0, 2, 1.0)  # mutates 0 and 2, not 1
        assert net.neighbors(0) == (1, 2)
        assert net.neighbors(2) == (0,)
        assert net.neighbors(1) == (0,)

    def test_sorted_regardless_of_insertion_order(self, net):
        build(net, 5)
        net.add_link(0, 4, 1.0)
        net.add_link(0, 2, 1.0)
        _ = net.neighbors(0)
        net.add_link(0, 1, 1.0)
        net.add_link(0, 3, 1.0)
        assert net.neighbors(0) == (1, 2, 3, 4)

    def test_unknown_site_raises(self, net):
        build(net, 1)
        with pytest.raises(KeyError):
            net.neighbors(99)

    def test_isolated_site_has_empty_tuple(self, net):
        build(net, 2)
        assert net.neighbors(0) == ()


class RecordingSite(SiteBase):
    def __init__(self, sid, net):
        super().__init__(sid, net)
        self.arrivals = []

    def receive(self, msg):
        self.arrivals.append(self.sim.now)


class TestInlinedDeliveryArithmetic:
    """`Network.transmit` inlines `Link.delivery_time`; this pins the two
    bit-for-bit equal (including the FIFO clamp and jitter) so a future
    edit to either cannot silently diverge."""

    @pytest.mark.parametrize("throughput", [None, 3.0])
    def test_arrival_matches_reference_method(self, throughput):
        from repro.simnet.link import Link

        sim = Simulator()
        net = Network(sim)
        PlainSite(0, net)
        rx = RecordingSite(1, net)
        net.add_link(0, 1, 0.7, throughput)
        # independent twin link: the reference delivery_time implementation
        ref = Link(0, 1, 0.7, throughput)

        extras = [0.0, 0.9, 0.0, 0.05, 0.3]  # 0.9 then 0.0 forces the clamp

        class Jitter:
            def __init__(self):
                self.i = -1

            def on_transmit(self, msg, link):
                self.i += 1
                return extras[self.i]

        net.interceptor = Jitter()
        sends = [(0.0, 1.0), (0.1, 4.0), (0.2, 1.0), (0.35, 2.5), (0.5, 1.0)]
        expected = []

        def send(size):
            expected.append(ref.delivery_time(sim.now, size, 1, extras[len(expected)]))
            net.send_adjacent(0, 1, "PING", size=size)

        for at, size in sends:
            sim.schedule_at(at, lambda s=size: send(s))
        sim.run()
        assert rx.arrivals == expected


class TestTracingFastPath:
    def test_direct_tracer_assignment_updates_mirrors(self):
        """`net.tracer.enabled = x` is how tracing is toggled: the
        property setter notifies the network's fast-path mirrors."""
        net = Network(Simulator(), Tracer(enabled=False))
        site = PlainSite(0, net)
        assert not site.trace_on
        net.tracer.enabled = True
        assert net.trace_enabled and site.trace_on
        site.trace("cat", a=1)
        net.tracer.enabled = False
        assert not net.trace_enabled and not site.trace_on
        assert len(net.tracer.events) == 1

    def test_site_trace_respects_mirror(self):
        net = Network(Simulator(), Tracer(enabled=True))
        site = PlainSite(0, net)
        site.trace("cat", a=1)
        net.tracer.enabled = False
        site.trace("cat", a=2)
        net.tracer.enabled = True
        site.trace("cat", a=3)
        assert [e.detail["a"] for e in net.tracer.events] == [1, 3]

    def test_disabled_tracer_emits_nothing_from_transmit(self):
        net = Network(Simulator())
        [PlainSite(i, net) for i in range(2)]
        net.add_link(0, 1, 1.0)
        net.send_adjacent(0, 1, "PING")
        assert len(net.tracer.events) == 0
        assert net.stats.total == 1
