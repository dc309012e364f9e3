"""Long-run memory hygiene: a site keeps one surplus window of finished
work, hygiene pass or not. That the resident service's pump prunes
without moving a decision is the service ≡ batch differential's job
(``tests/service/test_service_differential.py``)."""

from dataclasses import replace

import pytest

from repro.experiments.runner import ExperimentConfig, run_experiment
from repro.routing.reference import route_stretch
from repro.service import ResidentSimulation

SMALL = ExperimentConfig(
    topology_kwargs={"n": 8, "p": 0.4, "delay_range": (0.2, 0.8)},
    rho=0.8,
    duration=300.0,
    seed=33,
)


class TestHygiene:
    def test_pruning_actually_shrinks_state(self):
        """Sites prune as they complete, hygiene tick or not: after a drained
        batch run no plan's timeline holds work that ended more than one
        surplus window before the site's last completion."""
        res = run_experiment(replace(SMALL, algorithm="rtds"))
        last = _last_completions(res)
        kept = 0
        for sid, site in res.network.sites.items():
            cutoff = last.get(sid, 0.0) - site.plan.surplus_window
            assert all(r.end > cutoff for r in site.plan.timeline), f"site {sid}"
            kept += len(site.plan.timeline)
        assert kept < _executed(res)  # the run outlived the window

    def test_executor_records_shrink_too(self):
        """Likewise for the executor's log of finished tasks."""
        res = run_experiment(replace(SMALL, algorithm="rtds"))
        last = _last_completions(res)
        kept = 0
        for sid, site in res.network.sites.items():
            cutoff = last.get(sid, 0.0) - site.plan.surplus_window
            records = site.executor.records().values()
            assert all(rec.actual_end > cutoff for rec in records), f"site {sid}"
            kept += len(records)
        assert kept < _executed(res)

    def test_exec_info_cleaned(self):
        """The same jobs through the resident service, whose pump runs
        hygiene passes, leave no more forwarding info than the batch run."""
        base = run_experiment(replace(SMALL, algorithm="rtds"))
        pruned = ResidentSimulation(base.config, queue_capacity=16)
        for job in base.workload:
            pruned.submit(job)
        pruned.drain()
        leak_pruned = sum(len(s.hosting.exec_info) for s in pruned.resident.sites)
        leak_base = sum(len(s.hosting.exec_info) for s in base.network.sites.values())
        assert leak_pruned <= leak_base


def _last_completions(res):
    """site -> end of the last task it finished, from the collector."""
    last = {}
    for _job, _task, sid, spans in res.collector.executions():
        last[sid] = max(last.get(sid, 0.0), spans[-1][1])
    return last


def _executed(res):
    return sum(rec.n_done for rec in res.collector.records())


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
            known = {
                sid: {d: p.table.entry(d).distance for d in p.table.within_phase(phases)}
                for sid, p in protos.items()
            }
            return route_stretch(adj, known)

        early = stretch_at(2)
        late = stretch_at(13)
        assert early["mean"] >= 1.0 - 1e-9
        assert late["mean"] == pytest.approx(1.0, abs=1e-9)
        assert early["max"] >= late["max"] - 1e-9
        assert late["pairs"] >= early["pairs"]

    def test_empty(self):
        assert route_stretch({0: {}}, {0: {}})["pairs"] == 0.0
