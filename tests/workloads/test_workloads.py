"""Tests for workload generation."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.workloads.arrivals import per_site_arrivals, poisson_arrivals
from repro.workloads.deadlines import assign_deadline
from repro.workloads.jobs import JobSpec, Workload
from repro.workloads.load import calibrate_rate
from repro.workloads.scenarios import WorkloadSpec, generate_workload, mixed_dag_factory
from repro.graphs.generators import paper_example_dag


class TestPoissonArrivals:
    def test_rate_statistics(self, rng):
        times = poisson_arrivals(rng, rate=2.0, start=0.0, end=1000.0)
        # expected 2000, tolerate 5 sigma
        assert abs(len(times) - 2000) < 5 * np.sqrt(2000)

    def test_within_window(self, rng):
        times = poisson_arrivals(rng, 1.0, 10.0, 50.0)
        assert np.all(times >= 10.0) and np.all(times < 50.0)

    def test_sorted(self, rng):
        times = poisson_arrivals(rng, 5.0, 0.0, 100.0)
        assert np.all(np.diff(times) >= 0)

    def test_zero_rate(self, rng):
        assert len(poisson_arrivals(rng, 0.0, 0.0, 10.0)) == 0

    def test_invalid(self, rng):
        with pytest.raises(WorkloadError):
            poisson_arrivals(rng, -1.0, 0.0, 10.0)
        with pytest.raises(WorkloadError):
            poisson_arrivals(rng, 1.0, 5.0, 5.0)

    def test_deterministic(self):
        a = poisson_arrivals(np.random.default_rng(3), 1.0, 0.0, 100.0)
        b = poisson_arrivals(np.random.default_rng(3), 1.0, 0.0, 100.0)
        assert np.array_equal(a, b)


class TestPerSiteArrivals:
    def test_all_sites_used(self, rng):
        pairs = per_site_arrivals(rng, 4, 8.0, 0.0, 500.0)
        sites = {s for _, s in pairs}
        assert sites == {0, 1, 2, 3}

    def test_sorted_by_time(self, rng):
        pairs = per_site_arrivals(rng, 4, 4.0, 0.0, 200.0)
        times = [t for t, _ in pairs]
        assert times == sorted(times)

    def test_hot_sites_receive_more(self, rng):
        pairs = per_site_arrivals(
            rng, 10, 20.0, 0.0, 500.0, hot_fraction=0.8, hot_sites=2
        )
        hot = sum(1 for _, s in pairs if s < 2)
        assert hot > 0.6 * len(pairs)

    def test_invalid_hot_config(self, rng):
        with pytest.raises(WorkloadError):
            per_site_arrivals(rng, 4, 1.0, 0.0, 10.0, hot_fraction=0.5, hot_sites=0)
        with pytest.raises(WorkloadError):
            per_site_arrivals(rng, 4, 1.0, 0.0, 10.0, hot_fraction=1.5, hot_sites=1)


class TestDeadlines:
    def test_laxity_factor(self):
        dag = paper_example_dag()
        d = assign_deadline(dag, arrival=10.0, laxity_factor=2.0)
        assert d == pytest.approx(10.0 + 2.0 * 15.0)

    def test_jitter_bounds(self, rng):
        dag = paper_example_dag()
        for _ in range(50):
            d = assign_deadline(dag, 0.0, 2.0, rng, jitter=0.25)
            assert 1.5 * 15.0 - 1e-9 <= d <= 2.5 * 15.0 + 1e-9

    def test_jitter_needs_rng(self):
        with pytest.raises(WorkloadError):
            assign_deadline(paper_example_dag(), 0.0, 2.0, None, jitter=0.2)

    def test_invalid_factor(self):
        with pytest.raises(WorkloadError):
            assign_deadline(paper_example_dag(), 0.0, 0.0)


class TestLoad:
    def test_roundtrip(self):
        caps = [1.0] * 8
        rate = calibrate_rate(0.7, mean_work=20.0, capacities=caps)
        # ρ = λ_total · E[work per job] / Σ capacity
        assert rate * 20.0 / sum(caps) == pytest.approx(0.7)

    def test_heterogeneous_capacity(self):
        rate_hom = calibrate_rate(0.5, 10.0, [1.0] * 4)
        rate_het = calibrate_rate(0.5, 10.0, [2.0] * 4)
        assert rate_het == pytest.approx(2 * rate_hom)

    def test_invalid(self):
        with pytest.raises(WorkloadError):
            calibrate_rate(-0.1, 10.0, [1.0])
        with pytest.raises(WorkloadError):
            calibrate_rate(0.5, 10.0, [])


class TestJobSpec:
    def test_deadline_after_arrival(self):
        with pytest.raises(WorkloadError):
            JobSpec(0, paper_example_dag(), 0, arrival=10.0, deadline=10.0)

    def test_workload_container(self):
        wl = Workload()
        wl.add(JobSpec(1, paper_example_dag(), 0, 5.0, 50.0))
        wl.add(JobSpec(0, paper_example_dag(), 1, 2.0, 30.0))
        ordered = list(wl)
        assert [j.job for j in ordered] == [0, 1]
        assert wl.horizon() == 5.0
        assert wl.last_deadline() == 50.0


class TestScenarios:
    def test_generate_deterministic(self):
        spec = WorkloadSpec(n_sites=4, rho=0.5, duration=100.0, seed=9)
        w1, w2 = generate_workload(spec), generate_workload(spec)
        assert len(w1) == len(w2)
        for a, b in zip(w1, w2):
            assert (a.job, a.origin, a.arrival, a.deadline) == (
                b.job, b.origin, b.arrival, b.deadline
            )
            assert a.dag.edges == b.dag.edges

    def test_rho_scales_job_count(self):
        lo = generate_workload(WorkloadSpec(n_sites=4, rho=0.2, duration=400.0, seed=1))
        hi = generate_workload(WorkloadSpec(n_sites=4, rho=0.8, duration=400.0, seed=1))
        assert len(hi) > 2 * len(lo)

    def test_deadlines_feasible_in_principle(self):
        wl = generate_workload(WorkloadSpec(n_sites=4, rho=0.5, duration=200.0,
                                            laxity_factor=2.5, seed=2))
        for j in wl:
            cp = j.dag.critical_path_length()
            assert j.deadline - j.arrival >= cp  # laxity >= 1 even with jitter

    @pytest.mark.parametrize("size", ["small", "medium", "large"])
    def test_dag_size_classes(self, size):
        factory = mixed_dag_factory(size)
        rng = np.random.default_rng(0)
        sizes = [len(factory(rng)) for _ in range(30)]
        if size == "small":
            assert max(sizes) <= 30
        if size == "large":
            assert max(sizes) >= 40

    def test_bad_size(self):
        with pytest.raises(WorkloadError):
            mixed_dag_factory("huge")
