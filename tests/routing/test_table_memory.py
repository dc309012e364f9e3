"""Routing tables cost what the spheres hold — bytes under ``tracemalloc``.

The dense layout cost 20 table bytes per *site pair* plus 8 for the weight
matrix: ~470 MB at 4096 sites, of which 1.5 % of the cells were ever
known. Row tables cost 20 bytes per *known cell* plus 8 per site, and the
RTDS oracle path never builds the weight matrix. Measured with
``tracemalloc``, not RSS, so these pass the same on any box.
"""

import gc
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from repro.experiments import runner
from repro.experiments.runner import ExperimentConfig, run_experiment
from repro.experiments.widenet import widenet_config
from repro.routing.vectorized import Links, phased_tables
from repro.simnet.topology import topology_factory


def test_geometric_4096_tables_fit_in_16_mb():
    cfg = widenet_config("geometric", 4096)
    topo = topology_factory(cfg.topology, rng=np.random.default_rng(0), **cfg.topology_kwargs)
    links = Links(topo.n, topo.edges)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tables = phased_tables(links, cfg.rtds.pcs_phases)
        held, peak = (m - base for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert held <= 16e6, f"tables hold {held / 1e6:.1f} MB"
    # no n x n temporary either: one int32 4096 x 4096 array is 67 MB
    assert peak <= 32e6, f"peak {peak / 1e6:.1f} MB"
    assert held >= 20 * tables.cols.size  # the row arrays themselves


def test_a_ba256_cell_holds_at_most_28_table_bytes_per_known_cell():
    """A dense-ball network run end to end. The routing layer's bytes are
    what dropping it frees — tables, row views, memoised entries — so
    anything per site (a dict per row, say) counts against the dense
    layout's 28 bytes per pair; the spheres built from the rows do not."""
    cfg = replace(widenet_config("barabasi_albert", 256), duration=60.0)
    tracemalloc.start()
    try:
        resident = run_experiment(cfg).resident
        cells = sum(t.cols.size for t in resident.shared_tables.values())
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        resident.shared_tables.clear()
        for site in resident.sites:
            site.routing = None
            site.next_hop = {}
        gc.collect()
        held = before - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert cells > 0.5 * 256 * 256  # the balls cover most of the matrix
    assert 20 <= held / cells <= 28, f"{held / cells:.1f} bytes per known cell"


@pytest.mark.parametrize("algorithm", ["rtds", "local"])
def test_the_oracle_path_never_builds_the_weight_matrix(monkeypatch, algorithm):
    def refuse(topo):
        raise AssertionError("weight_matrix built on the RTDS/local oracle path")

    monkeypatch.setattr(runner, "weight_matrix", refuse)
    cfg = ExperimentConfig(
        topology="erdos_renyi",
        topology_kwargs={"n": 24, "p": 0.2},
        duration=60.0,
        routing_mode="oracle",
        algorithm=algorithm,
    )
    assert run_experiment(cfg).summary.n_jobs > 0
