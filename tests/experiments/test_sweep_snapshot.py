"""All eight experiment sweeps against one committed row snapshot.

``sweep_snapshot.json`` holds the rows every sweep returned on tiny
cells (≤ 10 sites, ≤ 80 time units, two seeds where the sweep
replicates) *before* they were rebuilt as declarations over
:func:`repro.experiments.campaign.sweep_table`. Row keys, row order and
values must stay exactly those — NaN-aware, like ``same_metrics``. The
one exception to the 80-time-unit bound is E10: ``widenet_config`` pins
its own 120-unit duration, so its cells stay small through size alone.

Regenerate (only for an intended change of a sweep's rows) with
``PYTHONPATH=src python tests/experiments/test_sweep_snapshot.py``.
"""

import json
import pathlib
from dataclasses import replace

import pytest

from repro.core.config import RTDSConfig
from repro.errors import CampaignCellError
from repro.experiments.campaign import sweep_fault_plans
from repro.experiments.evaluation import (
    sweep_ablations,
    sweep_load,
    sweep_network_size,
    sweep_sphere_radius,
    sweep_uniform_machines,
)
from repro.experiments.hetero import E11_WORKLOAD, sweep_hetero
from repro.experiments.runner import ExperimentConfig
from repro.experiments.widenet import sweep_widenet
from repro.faults import FaultPlan, hardened

SNAPSHOT = pathlib.Path(__file__).with_name("sweep_snapshot.json")

TINY = ExperimentConfig(
    topology_kwargs={"n": 8, "p": 0.4, "delay_range": (0.2, 0.8)},
    rho=0.6,
    duration=60.0,
    seed=3,
)

SWEEPS = {
    "sweep_load": lambda: sweep_load(TINY, ["rtds", "local"], [0.4, 0.9], seeds=(0, 1)),
    "sweep_network_size": lambda: sweep_network_size(TINY, ["rtds", "focused"], [6, 10]),
    "sweep_sphere_radius": lambda: sweep_sphere_radius(TINY, [1, 2]),
    "sweep_ablations": lambda: sweep_ablations(TINY),
    "sweep_uniform_machines": lambda: sweep_uniform_machines(
        TINY, {"homogeneous": [1.0], "mixed": [0.5, 2.0]}
    ),
    "sweep_fault_plans": lambda: sweep_fault_plans(
        replace(TINY, rtds=hardened(RTDSConfig(), ack_timeout=5.0)),
        [("loss=0", FaultPlan()), ("loss=0.2", FaultPlan(loss_prob=0.2))],
        seeds=(0, 1),
    ),
    "sweep_widenet": lambda: sweep_widenet(
        kinds=("geometric", "barabasi_albert"), sizes=(8, 10), seeds=(0, 1)
    ),
    "sweep_hetero": lambda: sweep_hetero(
        base=replace(ExperimentConfig(**E11_WORKLOAD), duration=60.0),
        speed_specs=("uniform", "skew:4"),
        workloads=("synthetic", "trace:montage"),
        seeds=(0, 1),
        n_sites=10,
    ),
}


def canonical(rows) -> str:
    """Rows as JSON text: key order kept, every NaN rendered alike."""
    return json.dumps(rows, indent=1)


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_sweep_rows_match_snapshot(name):
    expected = json.loads(SNAPSHOT.read_text())[name]
    assert canonical(SWEEPS[name]()) == canonical(expected)


def test_failing_cell_in_sweep_load_is_named(monkeypatch):
    """E1 now runs through the cell runtime: a crash inside one run is a
    ``CampaignCellError`` naming key and seed, raised after every cell ran."""
    import repro.experiments.parallel as par

    real = par.run_experiment

    def explode_on_seed_1(config):
        if config.seed == 1:
            raise RuntimeError("synthetic cell crash")
        return real(config)

    monkeypatch.setattr(par, "run_experiment", explode_on_seed_1)
    with pytest.raises(CampaignCellError) as err:
        sweep_load(TINY, ["local"], [0.4], seeds=(0, 1))
    (failure,) = err.value.failures
    assert failure.seed == 1
    assert failure.key in str(err.value) and "seed=1" in str(err.value)


if __name__ == "__main__":
    SNAPSHOT.write_text(canonical({name: SWEEPS[name]() for name in sorted(SWEEPS)}) + "\n")
