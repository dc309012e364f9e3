"""Oracle routing mode: lazy tables, the next-hop view, runner integration.

The contract: an experiment run with ``routing_mode="oracle"`` ends setup
with every site holding the *same* routing state — table sizes, sphere
members, known distances, next hops, PCS — a simulated-protocol run
builds, with zero simulated time and zero messages spent.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.errors import RoutingError
from repro.experiments.runner import ExperimentConfig, run_experiment
from repro.membership.repair import repair_after_join
from repro.routing.bellman_ford import run_pcs_phase_protocol
from repro.routing.oracle import (
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
#: every site id plus two no table knows
PROBES = list(range(TOPO.n + 2))


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


def assert_same_spheres(lazy, ref):
    """The oracle and protocol tables build the same sphere at every radius."""
    for h in range(1, PHASES + 1):
        a, b = build_pcs(lazy, h), build_pcs(ref, h)
        assert a.root == b.root and a.h == b.h
        assert a.members == b.members
        assert a.distance == b.distance
        assert a.hops == b.hops
        # the build-free member count agrees on both table kinds
        assert pcs_size(lazy, h) == pcs_size(ref, h) == len(b)
        # PCS ids must be plain Python ints (they travel in payloads)
        assert all(type(m) is int for m in a.members)


class TestLazyRoutingTable:
    def test_full_api_parity_with_protocol_table(self, shared, protocol_tables):
        for sid, ref in protocol_tables.items():
            lazy = LazyRoutingTable(shared, sid)
            assert len(lazy) == len(ref)
            for ph in range(0, PHASES + 1):
                assert lazy.within_phase(ph) == ref.within_phase(ph)
            assert lazy.distances_to(PROBES) == ref.distances_to(PROBES)
            assert lazy.distances_to(PROBES, exclude=sid) == ref.distances_to(
                PROBES, exclude=sid
            )

    def test_sparse_pcs_equals_protocol_pcs(self, shared, protocol_tables):
        for sid, ref in protocol_tables.items():
            assert_same_spheres(LazyRoutingTable(shared, sid), ref)

    def test_a_repaired_row_is_read_live(self):
        """Tables and views made before a join read the repaired rows: the
        membership layer has no cache to invalidate."""
        base = list(TOPO.edges)
        shared = phased_tables(Links(TOPO.n + 1, base), PHASES)
        tables = [LazyRoutingTable(shared, s) for s in range(TOPO.n + 1)]
        views = [NextHopView(shared, s) for s in range(TOPO.n + 1)]
        assert tables[TOPO.n].within_phase(PHASES) == [TOPO.n]  # latent, link-less
        links = Links(TOPO.n + 1, base + [(2, TOPO.n, 0.7), (9, TOPO.n, 1.1)])
        repair_after_join(shared, links, TOPO.n)
        fresh = phased_tables(links, PHASES)
        for s in range(TOPO.n + 1):
            ref = LazyRoutingTable(fresh, s)
            assert len(tables[s]) == len(ref)
            assert tables[s].within_phase(PHASES) == ref.within_phase(PHASES)
            assert tables[s].distances_to(PROBES) == ref.distances_to(PROBES)
            assert tables[s].pcs(2) == ref.pcs(2)
            assert [views[s].get(d) for d in PROBES] == [
                NextHopView(fresh, s).get(d) for d in PROBES
            ]
        assert TOPO.n in tables[2].within_phase(1)


class TestRowViews:
    def test_next_hop_view_matches_protocol_map(self, shared, protocol_tables):
        for sid, ref in protocol_tables.items():
            view = NextHopView(shared, sid)
            known = set(ref.within_phase(PHASES))
            for d in PROBES:
                if d == sid or d not in known:
                    assert view.get(d) is None  # the owner has no next hop
                else:
                    assert view.get(d) == ref.entry(d).next_hop
            assert view.get(TOPO.n + 3, -1) == -1


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
        assert routing.messages_sent == 0
        assert isinstance(site.next_hop, NextHopView)


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
        sids = list(a.network.site_ids())
        probes = sids + [len(sids)]  # one unknown site too
        for sid in sids:
            sa, sb = a.network.site(sid), b.network.site(sid)
            assert [sa.next_hop.get(d) for d in probes] == [sb.next_hop.get(d) for d in probes]
            assert sa.routing.table.distances_to(probes) == sb.routing.table.distances_to(probes)
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
