"""JOIN/REJOIN membership through the plan, the runner and the service."""

from dataclasses import replace

import pytest

from repro.errors import ConfigError
from repro.experiments.runner import ExperimentConfig, run_experiment
from repro.faults import ChurnSpec, FaultPlan, JoinSpec, SiteJoinEvent
from repro.metrics.summary import scalars_equal

BASE = ExperimentConfig(
    topology="erdos_renyi",
    topology_kwargs={"n": 12, "p": 0.3, "delay_range": (0.2, 1.0)},
    duration=120.0,
    seed=5,
    routing_mode="oracle",
)


# -- plan declarations -------------------------------------------------------


def test_join_spec_parses_from_spec():
    plan = FaultPlan.from_spec("joins=3,join_links=2")
    assert plan.has_joins()
    assert plan.n_join_sites() == 3
    assert plan.joins.links == 2
    assert not plan.perturbs_network()


def test_explicit_join_events_count():
    plan = FaultPlan(
        join_events=(SiteJoinEvent(time=10.0, links=((0, 0.5), (3, 1.0))),)
    )
    assert plan.has_joins()
    assert plan.n_join_sites() == 1
    assert not plan.perturbs_network()


def test_zero_plan_has_no_joins():
    plan = FaultPlan()
    assert not plan.perturbs_network()
    assert not plan.has_joins()
    assert plan.n_join_sites() == 0


def test_joins_require_oracle_routing():
    plan = FaultPlan(joins=JoinSpec(n_sites=2))
    with pytest.raises(ConfigError, match="oracle"):
        ExperimentConfig(
            topology_kwargs=BASE.topology_kwargs,
            routing_mode="protocol",
            faults=plan,
        )


def test_joins_reject_unsupported_algorithm():
    plan = FaultPlan(joins=JoinSpec(n_sites=2))
    with pytest.raises(ConfigError):
        replace(BASE, algorithm="centralized", faults=plan)


# -- runner integration ------------------------------------------------------


def test_joins_apply_and_tables_converge():
    plan = FaultPlan(joins=JoinSpec(n_sites=3, links=2))
    res = run_experiment(replace(BASE, faults=plan))
    membership = res.resident.membership
    assert membership is not None
    assert membership.stats.joins_applied == 3
    assert membership.stats.links_added == 6
    assert membership.stats.repaired_rows > 0
    assert membership.stats.spheres_refreshed > 0
    assert membership.verify_converged()
    # latent joiners extend the topology but origins stay base-only
    assert res.resident.topology.n == 15
    assert res.resident.n_base_sites == 12
    assert all(r.origin < 12 for r in res.collector.records())


def test_explicit_join_event_applies_at_time():
    plan = FaultPlan(
        join_events=(SiteJoinEvent(time=20.0, links=((0, 0.5), (5, 0.8))),)
    )
    res = run_experiment(replace(BASE, faults=plan))
    membership = res.resident.membership
    assert membership.stats.joins_applied == 1
    assert membership.stats.links_added == 2
    assert membership.verify_converged()


def _hardened():
    from repro.core.config import RTDSConfig
    from repro.faults import hardened

    return hardened(RTDSConfig())


def test_churn_plus_joins_rejoins_counted():
    plan = FaultPlan(
        site_churn=ChurnSpec(n_events=4, mean_downtime=10.0, horizon=100.0),
        joins=JoinSpec(n_sites=1, links=2),
    )
    res = run_experiment(replace(BASE, faults=plan, rtds=_hardened()))
    membership = res.resident.membership
    assert membership is not None
    assert membership.stats.joins_applied == 1
    # every site-up transition of a churned site is a REJOIN handshake
    # (windows ending past the run's horizon never up, hence <=)
    downs = res.resident.injector.stats.site_down_events
    assert downs > 0
    assert 0 < membership.stats.rejoins <= downs or downs == 0
    assert membership.verify_converged()


# -- identity ----------------------------------------------------------------


def test_zero_join_plan_is_noop():
    """A plan declaring no joins must not move a single float."""
    pristine = run_experiment(replace(BASE, faults=None))
    zeroed = run_experiment(replace(BASE, faults=FaultPlan()))
    assert scalars_equal(pristine.scalar_metrics(), zeroed.scalar_metrics())


def test_join_run_keeps_base_stream_shape():
    """Joins add capacity late; the workload itself is unchanged."""
    pristine = run_experiment(replace(BASE, faults=None))
    joined = run_experiment(
        replace(BASE, faults=FaultPlan(joins=JoinSpec(n_sites=2, links=2)))
    )
    assert pristine.collector.n_arrived() == joined.collector.n_arrived()
