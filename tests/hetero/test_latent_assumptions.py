"""Regression tests for the latent-homogeneity sweep (E11 satellite).

Each test pins one site found by grepping for hard-coded duration/WCET
uses that bypassed (or silently assumed away) the speed scaling:

* the post-run execution audit now *checks* ``c/speed`` durations — and
  catches a site whose speed was mis-threaded;
* the focused baseline ranks candidates by effective capacity
  (surplus × speed), not raw idle fraction;
* deadline assignment exposes its unit-speed critical-path normalisation
  as an explicit ``reference_speed`` instead of a buried constant;
* the protocol-phase spans stay well-defined on heterogeneous runs.
"""

import numpy as np
import pytest

from repro.experiments.runner import ExperimentConfig, run_experiment
from repro.obs import timeline
from repro.experiments.verify import verify_execution
from repro.workloads.deadlines import assign_deadline
from repro.graphs.generators import linear_chain_dag


def _hetero_run(**overrides):
    cfg = dict(
        topology="erdos_renyi",
        topology_kwargs={"n": 12, "p": 0.3, "delay_range": (0.2, 1.0)},
        duration=80.0,
        rho=0.6,
        site_speeds="skew:4",
        seed=9,
        trace=True,
    )
    cfg.update(overrides)
    return run_experiment(ExperimentConfig(**cfg))


class TestVerifySpeedAudit:
    @pytest.mark.parametrize("algorithm", ["rtds", "local", "focused", "centralized", "random"])
    def test_heterogeneous_runs_audit_clean(self, algorithm):
        """Every algorithm's actual execution respects c/speed end to end."""
        assert verify_execution(_hetero_run(algorithm=algorithm)) == []

    def test_audit_catches_mis_threaded_speed(self):
        """Tampering with a site's speed after the fact must be flagged:
        proves the audit genuinely checks durations against speeds."""
        res = _hetero_run()
        executed_sites = {sid for _job, _task, sid, _spans in res.collector.executions()}
        assert executed_sites, "run executed nothing; audit test is vacuous"
        victim = res.network.site(sorted(executed_sites)[0])
        victim.speed = victim.speed * 3.0
        issues = verify_execution(res)
        assert any("c/speed" in issue for issue in issues)

    def test_trace_workload_audit_clean(self):
        assert verify_execution(_hetero_run(workload="trace:epigenomics")) == []


class TestFocusedCapacityRanking:
    def test_ranking_prefers_effective_capacity(self):
        """A half-idle fast site outranks a fully idle slow one."""
        res = _hetero_run(algorithm="focused", duration=120.0)
        site = res.network.site(0)
        site.known_surplus = {1: 1.0, 2: 0.6}
        site.known_speed = {1: 0.5, 2: 4.0}
        assert site._candidates() == [2, 1]

    def test_homogeneous_ranking_is_surplus_order(self):
        res = _hetero_run(algorithm="focused", site_speeds=None, duration=120.0)
        site = res.network.site(0)
        site.known_surplus = {1: 0.9, 2: 0.6, 3: 0.95}
        site.known_speed = {1: 1.0, 2: 1.0, 3: 1.0}
        assert site._candidates() == [3, 1, 2]


class TestDeadlineReferenceSpeed:
    def test_reference_speed_scales_cp(self):
        dag = linear_chain_dag(4, np.random.default_rng(0))
        fast = assign_deadline(dag, arrival=10.0, laxity_factor=2.0, reference_speed=2.0)
        unit = assign_deadline(dag, arrival=10.0, laxity_factor=2.0)
        assert np.isclose(unit - 10.0, (fast - 10.0) * 2.0)

    def test_invalid_reference_speed_rejected(self):
        from repro.errors import WorkloadError

        dag = linear_chain_dag(3, np.random.default_rng(0))
        with pytest.raises(WorkloadError):
            assign_deadline(dag, 0.0, 2.0, reference_speed=0.0)


class TestLatencyBreakdownHeterogeneous:
    def test_phase_breakdown_defined(self):
        """Phase spans on a heterogeneous run have finite, non-negative
        durations (phases are protocol time, not WCET)."""
        res = _hetero_run(duration=150.0)
        spans = [
            s for s in timeline(res)
            if s.category in ("phase.enroll", "phase.map", "phase.validate")
        ]
        assert any(s.category == "phase.map" for s in spans), "no protocol run"
        assert all(np.isfinite(s.duration) and s.duration >= 0.0 for s in spans)
