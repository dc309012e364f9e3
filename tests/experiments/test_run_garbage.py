"""A run leaves no cyclic garbage.

``run_experiment`` pauses the cyclic collector for the whole event loop
(``experiments/runner.py::_gc_paused``, DESIGN §8.4), so anything a run
allocates must be freed by reference counting alone: an object caught in
a reference cycle stays in memory until the run ends. Each run below
starts from a collected heap, runs with the collector off, and must leave
nothing for one collection to find while its result is still held.

The identity scenarios cover the RTDS paths (faults and heterogeneous
speeds included); ``e2_16`` runs under every algorithm and once with the
periodic hygiene pass. The soak is left out on purpose: it tears its
network down at the end.
"""

import gc
from dataclasses import replace

import pytest

from repro import api
from repro.experiments.runner import ALGORITHMS
from tests.identity.scenarios import SCENARIOS

CELLS = {name: replace(make(), trace=False) for name, make in SCENARIOS.items()}
CELLS.update(
    {f"e2_16-{alg}": replace(CELLS["e2_16"], algorithm=alg) for alg in ALGORITHMS if alg != "rtds"}
)
#: the periodic hygiene pass re-arms its own timer
CELLS["e2_16-hygiene"] = replace(CELLS["e2_16"], hygiene_interval=50.0)


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_a_run_is_freed_by_reference_counting(cell):
    gc.collect()
    gc.disable()
    try:
        res = api.run(CELLS[cell])
        assert res.summary.n_jobs > 0
        found = gc.collect()
    finally:
        gc.enable()
    assert found == 0, f"{found} objects in reference cycles after the run"
