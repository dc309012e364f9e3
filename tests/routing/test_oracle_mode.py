"""Oracle routing mode: lazy tables, row views, and runner integration.

The contract: an experiment run with ``routing_mode="oracle"`` ends setup
with every site holding the *same* routing state — table entries, next
hops, known distances, PCS — a simulated-protocol run builds, with zero
simulated time and zero messages spent.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.errors import RoutingError
from repro.experiments.runner import ExperimentConfig, run_experiment
from repro.routing.bellman_ford import run_pcs_phase_protocol
from repro.routing.oracle import (
    DistanceView,
    LazyRoutingTable,
    NextHopView,
    OracleRouting,
    oracle_routing_factory,
)
from repro.routing.vectorized import Links, phased_tables
from repro.simnet.engine import Simulator
from repro.simnet.topology import build_network, erdos_renyi
from repro.spheres.pcs import build_pcs, pcs_size
from tests.conftest import RecordingSite

TOPO = erdos_renyi(14, 0.3, np.random.default_rng(4), delay_range=(0.5, 3.0))
PHASES = 4


@pytest.fixture(scope="module")
def shared():
    return phased_tables(Links(TOPO.n, TOPO.edges), PHASES)


@pytest.fixture(scope="module")
def protocol_tables():
    sim = Simulator()
    net = build_network(TOPO, sim, lambda sid, n: RecordingSite(sid, n))
    protos = run_pcs_phase_protocol([net.site(s) for s in net.site_ids()], PHASES)
    sim.run()
    return {sid: p.table for sid, p in protos.items()}


class TestLazyRoutingTable:
    def test_full_api_parity_with_protocol_table(self, shared, protocol_tables):
        for sid, ref in protocol_tables.items():
            lazy = LazyRoutingTable(shared, sid)
            assert len(lazy) == len(ref)
            assert lazy.destinations() == ref.destinations()
            assert lazy.as_next_hop_map() == ref.as_next_hop_map()
            assert lazy.as_distance_map() == ref.as_distance_map()
            assert lazy.lines() == ref.lines()
            for ph in range(0, PHASES + 1):
                assert lazy.within_phase(ph) == ref.within_phase(ph)
            for d in ref.destinations():
                assert d in lazy
                assert lazy.entry(d) == ref.entry(d)
                assert lazy.get(d) == ref.get(d)
                assert lazy.distance(d) == ref.distance(d)
                if d != sid:
                    assert lazy.next_hop(d) == ref.next_hop(d)
            dests = ref.destinations()
            assert lazy.distances_to(dests, exclude=sid) == ref.distances_to(
                dests, exclude=sid
            )

    def test_entries_are_materialized_lazily_and_memoized(self, shared):
        lazy = LazyRoutingTable(shared, 0)
        assert lazy._entries == {}
        e1 = lazy.entry(lazy.destinations()[1])
        assert len(lazy._entries) == 1
        assert lazy.entry(e1.dest) is e1

    def test_missing_destination_raises_and_get_returns_none(self, shared):
        lazy = LazyRoutingTable(shared, 0)
        with pytest.raises(RoutingError):
            lazy.entry(TOPO.n + 5)
        assert lazy.get(TOPO.n + 5) is None
        with pytest.raises(RoutingError):
            lazy.next_hop(0)  # next hop to self is undefined

    def test_iteration_yields_entries_in_destination_order(self, shared):
        lazy = LazyRoutingTable(shared, 2)
        assert [e.dest for e in lazy] == lazy.destinations()

    def test_sparse_pcs_equals_protocol_pcs(self, shared, protocol_tables):
        for sid, ref in protocol_tables.items():
            for h in (1, 2):
                a = build_pcs(LazyRoutingTable(shared, sid), h)
                b = build_pcs(ref, h)
                assert a.root == b.root and a.h == b.h
                assert a.members == b.members
                assert a.distance == b.distance
                assert a.hops == b.hops
                # the build-free member count agrees on both table kinds
                assert pcs_size(LazyRoutingTable(shared, sid), h) == pcs_size(ref, h) == len(b)
                # PCS ids must be plain Python ints (they travel in payloads)
                assert all(type(m) is int for m in a.members)


class TestRowViews:
    def test_next_hop_view_matches_protocol_map(self, shared, protocol_tables):
        for sid, ref in protocol_tables.items():
            view = NextHopView(shared, sid)
            assert dict(view.items()) == ref.as_next_hop_map()
            assert sorted(view.keys()) == sorted(ref.as_next_hop_map())
            assert len(view) == len(ref.as_next_hop_map())
            assert view.get(sid) is None  # owner has no next hop
            assert view.get(TOPO.n + 3) is None
            with pytest.raises(KeyError):
                view[TOPO.n + 3]

    def test_distance_view_includes_owner_at_zero(self, shared, protocol_tables):
        for sid, ref in protocol_tables.items():
            view = DistanceView(shared, sid)
            assert dict(view.items()) == ref.as_distance_map()
            assert view[sid] == 0.0
            assert sid in view
            assert view.get(TOPO.n + 3, -1.0) == -1.0


class TestOracleRouting:
    def test_phase_budget_mismatch_raises(self, shared):
        sim = Simulator()
        net = build_network(TOPO, sim, lambda sid, n: RecordingSite(sid, n))
        with pytest.raises(RoutingError):
            OracleRouting(net.site(0), PHASES + 1, shared)

    def test_factory_rejects_unprepared_budget(self, shared):
        sim = Simulator()
        net = build_network(TOPO, sim, lambda sid, n: RecordingSite(sid, n))
        factory = oracle_routing_factory({PHASES: shared})
        with pytest.raises(RoutingError):
            factory(net.site(0), PHASES + 2)

    def test_start_installs_views_and_fires_on_done(self, shared):
        sim = Simulator()
        net = build_network(TOPO, sim, lambda sid, n: RecordingSite(sid, n))
        site = net.site(3)
        fired = []
        routing = OracleRouting(site, PHASES, shared, on_done=lambda: fired.append(1))
        routing.start()
        assert routing.done and fired == [1]
        assert routing.messages_sent == 0 and routing.lines_sent == 0
        assert isinstance(site.next_hop, NextHopView)
        assert isinstance(site.known_distance, DistanceView)


class TestRunnerIntegration:
    BASE = ExperimentConfig(
        topology="erdos_renyi",
        topology_kwargs={"n": 16, "p": 0.25, "delay_range": (0.2, 1.0)},
        duration=120.0,
        rho=0.6,
        seed=0,
    )

    @pytest.mark.parametrize("algorithm", ["rtds", "local", "centralized", "focused", "random"])
    def test_oracle_mode_installs_identical_routing_state(self, algorithm):
        a = run_experiment(replace(self.BASE, algorithm=algorithm))
        b = run_experiment(replace(self.BASE, algorithm=algorithm, routing_mode="oracle"))
        for sid in a.network.site_ids():
            sa, sb = a.network.site(sid), b.network.site(sid)
            assert dict(sa.next_hop) == dict(sb.next_hop.items())
            assert dict(sa.known_distance) == dict(sb.known_distance.items())
            pa, pb = getattr(sa, "pcs", None), getattr(sb, "pcs", None)
            if pa is not None:
                assert pa.members == pb.members
                assert pa.distance == pb.distance
                assert pa.hops == pb.hops

    def test_oracle_mode_spends_no_setup_time_or_messages(self):
        res = run_experiment(replace(self.BASE, routing_mode="oracle"))
        assert res.setup_time == 0.0
        assert res.setup_messages == 0

    @pytest.mark.parametrize("seed", [0, 1])
    def test_oracle_mode_reaches_identical_guarantee_ratio(self, seed):
        """Same tables -> same scheduling decisions on these fixed seeds."""
        a = run_experiment(replace(self.BASE, seed=seed))
        b = run_experiment(replace(self.BASE, seed=seed, routing_mode="oracle"))
        assert a.summary.n_jobs == b.summary.n_jobs
        assert a.summary.guarantee_ratio == b.summary.guarantee_ratio

    def test_unknown_routing_mode_rejected(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            replace(self.BASE, routing_mode="magic")
