"""Execution-audit oracle on every algorithm + the §13 data-volume model."""

from dataclasses import replace

import pytest

from repro.experiments.runner import ExperimentConfig, run_experiment
from repro.experiments.verify import assert_sound, verify_execution

SMALL = ExperimentConfig(
    topology_kwargs={"n": 8, "p": 0.4, "delay_range": (0.2, 0.8)},
    rho=0.6,
    duration=150.0,
    seed=13,
)


class TestAudit:
    @pytest.mark.parametrize("algo", ["rtds", "local", "centralized", "focused", "random"])
    def test_every_algorithm_physically_sound(self, algo):
        res = run_experiment(replace(SMALL, algorithm=algo))
        # focused/random ship whole DAGs -> transfer-delay check trivially
        # holds; rtds/centralized genuinely split jobs across sites.
        assert_sound(res)

    def test_rtds_heavy_load_still_sound(self):
        res = run_experiment(replace(SMALL, algorithm="rtds", rho=1.3, duration=250.0))
        assert_sound(res)

    def test_rtds_preemptive_sound(self):
        from repro.core.config import RTDSConfig

        res = run_experiment(
            replace(SMALL, algorithm="rtds", rtds=RTDSConfig(validation_preemptive=True))
        )
        assert_sound(res)

    def test_audit_detects_planted_violation(self):
        """Sanity: the auditor itself must catch corruption."""
        res = run_experiment(replace(SMALL, algorithm="rtds"))
        # corrupt one executed task's stored facts: stretch the actual end
        # of the first task a site finished (``records()`` hands out copies,
        # so the corruption goes into the executor's own log)
        for site in res.network.sites.values():
            done = site.executor._done
            if done:
                done.spans[1] += 1e9
                break
        # a job now "ends" after everything; overlap check must fire
        issues = verify_execution(res)
        assert issues  # something was flagged


class TestDataVolumeModel:
    def volume_config(self, **kw):
        return replace(
            SMALL,
            algorithm="rtds",
            link_throughput=5.0,
            data_volume_range=(2.0, 10.0),
            duration=200.0,
            laxity_factor=3.5,
            **kw,
        )

    def test_runs_and_sound(self):
        res = run_experiment(self.volume_config())
        assert res.summary.n_jobs > 0
        assert_sound(res)

    def test_volume_aware_omega_prevents_misses(self):
        res = run_experiment(self.volume_config())
        assert res.summary.n_missed == 0

    def test_transfers_slow_messages(self):
        """With finite throughput the same workload takes longer on the wire:
        decision latencies grow vs the pure-propagation model."""
        fat = run_experiment(self.volume_config())
        thin = run_experiment(
            replace(self.volume_config(), link_throughput=None)
        )
        assert fat.summary.mean_decision_latency > thin.summary.mean_decision_latency

    def test_volumes_ride_along_serialization(self):
        from repro.workloads.scenarios import WorkloadSpec, generate_workload
        from repro.graphs.transform import with_volumes_factory
        from repro.workloads.scenarios import mixed_dag_factory

        spec = WorkloadSpec(
            n_sites=4,
            rho=0.5,
            duration=50.0,
            dag_factory=with_volumes_factory(mixed_dag_factory("small"), (1.0, 4.0)),
            seed=3,
        )
        wl = generate_workload(spec)
        for j in wl:
            assert all(1.0 <= j.dag.task(t).data_volume <= 4.0 for t in j.dag)
