"""Long-run memory hygiene: pruning must be decision-neutral."""

from dataclasses import replace

import pytest

from repro.experiments.runner import ExperimentConfig, run_experiment
from repro.routing.reference import route_stretch

SMALL = ExperimentConfig(
    topology_kwargs={"n": 8, "p": 0.4, "delay_range": (0.2, 0.8)},
    rho=0.8,
    duration=300.0,
    seed=33,
)


class TestHygiene:
    @pytest.mark.parametrize("algo", ["rtds", "local", "centralized"])
    def test_outcomes_identical_with_pruning(self, algo):
        base = run_experiment(replace(SMALL, algorithm=algo))
        pruned = run_experiment(
            replace(SMALL, algorithm=algo, hygiene_interval=50.0)
        )
        a = [(r.job, r.outcome, r.decided_at) for r in base.collector.records()]
        b = [(r.job, r.outcome, r.decided_at) for r in pruned.collector.records()]
        assert a == b

    def test_pruning_actually_shrinks_state(self):
        base = run_experiment(replace(SMALL, algorithm="rtds"))
        pruned = run_experiment(replace(SMALL, algorithm="rtds", hygiene_interval=50.0))
        base_total = sum(
            len(s.plan.timeline) for s in base.network.sites.values()
        )
        pruned_total = sum(
            len(s.plan.timeline) for s in pruned.network.sites.values()
        )
        assert pruned_total < base_total

    def test_executor_records_shrink_too(self):
        pruned = run_experiment(replace(SMALL, algorithm="rtds", hygiene_interval=50.0))
        base = run_experiment(replace(SMALL, algorithm="rtds"))
        n_pruned = sum(len(s.executor.records()) for s in pruned.network.sites.values())
        n_base = sum(len(s.executor.records()) for s in base.network.sites.values())
        assert n_pruned < n_base

    def test_exec_info_cleaned(self):
        pruned = run_experiment(replace(SMALL, algorithm="rtds", hygiene_interval=50.0))
        base = run_experiment(replace(SMALL, algorithm="rtds"))
        leak_pruned = sum(len(s.hosting.exec_info) for s in pruned.network.sites.values())
        leak_base = sum(len(s.hosting.exec_info) for s in base.network.sites.values())
        assert leak_pruned <= leak_base


class TestRouteStretch:
    def test_stretch_converges_with_phases(self):
        import numpy as np

        from repro.routing.bellman_ford import run_pcs_phase_protocol
        from repro.simnet.engine import Simulator
        from repro.simnet.topology import build_network, erdos_renyi
        from tests.conftest import RecordingSite

        topo = erdos_renyi(14, 0.25, np.random.default_rng(4), delay_range=(1.0, 5.0))
        adj = topo.adjacency()

        def stretch_at(phases):
            sim = Simulator()
            net = build_network(topo, sim, lambda sid, n: RecordingSite(sid, n))
            protos = run_pcs_phase_protocol(
                [net.site(s) for s in net.site_ids()], phases
            )
            sim.run()
            known = {sid: p.table.as_distance_map() for sid, p in protos.items()}
            return route_stretch(adj, known)

        early = stretch_at(2)
        late = stretch_at(13)
        assert early["mean"] >= 1.0 - 1e-9
        assert late["mean"] == pytest.approx(1.0, abs=1e-9)
        assert early["max"] >= late["max"] - 1e-9
        assert late["pairs"] >= early["pairs"]

    def test_empty(self):
        assert route_stretch({0: {}}, {0: {}})["pairs"] == 0.0
