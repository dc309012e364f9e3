"""Fixed-shape jobs reuse one validated structure per shape, and no job is
built from ``Task`` objects.

Counts full ``Dag`` constructions (every one runs ``Dag._toposort``;
``Dag.with_weights`` does not) instead of timing them, so the bound holds the
same on any machine. Building the structure once per job — one full
construction per Montage job, and one per chain / fork-join / LU job of the
mixed mix — fails these tests. Likewise ``Task.__init__`` calls are
counted: a generator that wraps its drawn weights in tasks before building
the graph runs thousands of them per workload.
"""

import itertools

import numpy as np
import pytest

from repro.graphs import generators
from repro.graphs.dag import Dag, Task
from repro.workloads import traces
from repro.workloads.arrivals import PoissonProcess
from repro.workloads.openloop import OpenLoopSpec, open_loop_jobs, open_loop_rate
from repro.workloads.scenarios import WorkloadSpec, generate_workload, mixed_dag_factory
from repro.workloads.traces import trace_dag_factory

FIXED_SHAPES = ("chain", "forkjoin", "gauss")


@pytest.fixture
def builds(monkeypatch):
    """Names of the DAGs fully constructed while the test runs (cold caches)."""
    generators._template.cache_clear()
    traces._trace_shape.cache_clear()
    names = []
    toposort = Dag._toposort

    def counting(self):
        names.append(self.name)
        return toposort(self)

    monkeypatch.setattr(Dag, "_toposort", counting)
    return names


def test_montage_jobs_share_one_structure_per_tile_count(builds):
    factory = trace_dag_factory("montage")
    rng = np.random.default_rng(0)
    shapes = {factory(rng).name for _ in range(2000)}
    assert len(shapes) == 7  # tiles 4..10
    assert len(builds) <= 2 * len(shapes)


@pytest.mark.parametrize("size", ["small", "medium", "large"])
def test_mixed_fixed_shapes_share_one_structure_per_size(builds, size):
    factory = mixed_dag_factory(size)
    rng = np.random.default_rng(1)
    jobs = [factory(rng).name for _ in range(1000)]
    fixed_jobs = [n for n in jobs if n.split("-")[0] in FIXED_SHAPES]
    fixed_builds = [n for n in builds if n.split("-")[0] in FIXED_SHAPES]
    assert len(fixed_jobs) > 300  # the mix draws them: the bound below is not vacuous
    assert len(fixed_builds) <= 2 * len(set(fixed_jobs))


@pytest.mark.parametrize(
    "factory",
    [
        trace_dag_factory("montage"),
        trace_dag_factory("epigenomics"),
        lambda rng: generators.linear_chain_dag(5, rng),
        lambda rng: generators.fork_join_dag(4, rng),
        lambda rng: generators.gaussian_elimination_dag(4, rng),
    ],
    ids=["montage", "epigenomics", "chain", "forkjoin", "gauss"],
)
def test_jobs_of_one_shape_share_one_sorted_edge_tuple(factory):
    """The mapper reads ``dag.edges`` per distributed job: a job must reuse
    its shape's sorted tuple, not sort its own copy."""
    rng = np.random.default_rng(2)
    first = {}
    for _ in range(40):
        dag = factory(rng)
        assert dag.edges is first.setdefault(dag.name, dag).edges


@pytest.fixture
def task_inits(monkeypatch):
    """Number of ``Task`` objects built while the test runs (cold caches)."""
    generators._template.cache_clear()
    traces._trace_shape.cache_clear()
    calls = [0]
    init = Task.__init__

    def counting(self, *args, **kwargs):
        calls[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(Task, "__init__", counting)
    return calls


def test_generating_the_e9_macro_workload_builds_no_task(task_inits):
    """The E9 macro cell's workload: 48 unit-speed sites, rho 0.7, 3000 time
    units, the small mix (the runner seeds the workload ``seed + 7``)."""
    wl = generate_workload(WorkloadSpec(n_sites=48, rho=0.7, duration=3000.0, seed=7))
    assert sum(len(job.dag) for job in wl.jobs) > 20000
    assert task_inits[0] == 0


def test_the_open_loop_stream_builds_no_task(task_inits):
    rate = open_loop_rate(0.6, [1.0] * 48)
    spec = OpenLoopSpec(n_sites=48, process=PoissonProcess(rate))
    jobs = list(itertools.islice(open_loop_jobs(spec), 1000))
    assert len(jobs) == 1000
    assert task_inits[0] == 0
