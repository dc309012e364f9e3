"""Tests for routing tables."""

import pytest

from repro.errors import RoutingError
from repro.routing.table import RoutingTable


class TestRoutingTable:
    def test_self_entry(self):
        t = RoutingTable(5)
        assert 5 in t
        assert t.entry(5).distance == 0.0
        assert t.entry(5).next_hop == 5  # the owner's own row: no adjacent hop

    def test_consider_new(self):
        t = RoutingTable(0)
        assert t.consider(1, 2.0, 1, hops=1, phase=1)
        assert t.entry(1).distance == 2.0
        assert t.entry(1).next_hop == 1
        assert t.entry(1).discovered_phase == 1

    def test_consider_improvement(self):
        t = RoutingTable(0)
        t.consider(2, 5.0, 1, hops=2, phase=1)
        assert t.consider(2, 3.0, 3, hops=3, phase=2)
        e = t.entry(2)
        assert e.distance == 3.0 and e.next_hop == 3
        # discovery phase never changes
        assert e.discovered_phase == 1

    def test_consider_worse_rejected(self):
        t = RoutingTable(0)
        t.consider(2, 3.0, 1, hops=1, phase=1)
        assert not t.consider(2, 5.0, 2, hops=1, phase=1)
        assert t.entry(2).next_hop == 1

    def test_tie_breaks_to_lower_next_hop(self):
        t = RoutingTable(0)
        t.consider(2, 3.0, 5, hops=1, phase=1)
        assert t.consider(2, 3.0, 1, hops=2, phase=1)
        assert t.entry(2).next_hop == 1
        # equal distance, higher hop id: rejected
        assert not t.consider(2, 3.0, 9, hops=1, phase=1)

    def test_self_never_replaced(self):
        t = RoutingTable(0)
        assert not t.consider(0, -1.0, 1, hops=1, phase=1)
        assert t.entry(0).distance == 0.0

    def test_missing_route_raises(self):
        t = RoutingTable(0)
        with pytest.raises(RoutingError):
            t.entry(9)
        assert t.get(9) is None

    def test_within_phase(self):
        t = RoutingTable(0)
        t.consider(1, 1.0, 1, hops=1, phase=1)
        t.consider(2, 2.0, 1, hops=2, phase=2)
        t.consider(3, 3.0, 1, hops=3, phase=3)
        assert t.within_phase(0) == [0]
        assert t.within_phase(1) == [0, 1]
        assert t.within_phase(2) == [0, 1, 2]

    def test_maps(self):
        t = RoutingTable(0)
        t.consider(1, 1.0, 1, hops=1, phase=1)
        t.consider(2, 2.0, 1, hops=2, phase=2)
        assert t.as_next_hop_map() == {1: 1, 2: 1}
        assert t.as_distance_map() == {0: 0.0, 1: 1.0, 2: 2.0}

    def test_lines_deterministic(self):
        t = RoutingTable(0)
        t.consider(2, 2.0, 1, hops=2, phase=2)
        t.consider(1, 1.0, 1, hops=1, phase=1)
        assert t.lines() == [(0, 0.0, 0), (1, 1.0, 1), (2, 2.0, 2)]
