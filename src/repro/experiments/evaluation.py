"""Sweep drivers for the implied evaluation (experiments E1–E5).

The paper reports no empirical tables; its §14 claims define the curves:

* E1 — guarantee ratio vs offered load, RTDS vs baselines;
* E2 — protocol messages per job vs network size (the "arbitrary wide
  networks" claim: RTDS flat, broadcast-based schemes growing);
* E3 — sphere radius ``h`` sweep (acceptance saturates, cost grows);
* E5 — §13 ablations (preemptive, laxity dispatching, local knowledge,
  uniform machines, ACS size bound).

Each driver is a rows-and-columns declaration over
:func:`repro.experiments.campaign.sweep_table` — which cells make up each
row, which metrics make up each column — so E1–E5 cross the same cell
runtime as E7/E10/E11: content-addressed keys (identical cells run once)
and a :class:`~repro.errors.CampaignCellError` naming every failed cell
instead of a mid-sweep traceback. Each returns plain dict-rows ready for
:func:`repro.experiments.reporting.format_table`; the ``rtds sweep-*``
commands print them and ``tests/claims/`` asserts their shapes.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, List, Sequence

from repro.experiments.campaign import Column, mean, runs, sweep_table
from repro.experiments.runner import ExperimentConfig

#: the columns E3/E5/E5b share
_GR: Dict[str, Column] = {"GR": mean("guarantee_ratio"), "effGR": mean("effective_ratio")}


def sweep_load(
    base: ExperimentConfig,
    algorithms: Sequence[str],
    rhos: Sequence[float],
    seeds: Sequence[int] = (0,),
) -> List[Dict[str, Any]]:
    """E1: guarantee ratio vs offered load per algorithm."""
    return sweep_table(
        (
            (
                {"algorithm": algo, "rho": rho},
                [replace(base, algorithm=algo, rho=rho, seed=seed, label=algo) for seed in seeds],
            )
            for algo in algorithms
            for rho in rhos
        ),
        {
            "GR": mean("guarantee_ratio"),
            "effGR": mean("effective_ratio"),
            "msg/job": mean("messages_per_job"),
            "runs": runs,
        },
    )


def sweep_network_size(
    base: ExperimentConfig,
    algorithms: Sequence[str],
    sizes: Sequence[int],
    topology: str = "erdos_renyi",
    degree: float = 4.0,
) -> List[Dict[str, Any]]:
    """E2: per-job message cost vs network size (constant mean degree)."""

    def cell(algo: str, n: int) -> ExperimentConfig:
        kwargs = {"n": n, "p": min(1.0, degree / max(1, n - 1))}
        if "delay_range" in base.topology_kwargs:
            kwargs["delay_range"] = base.topology_kwargs["delay_range"]
        return replace(
            base, algorithm=algo, topology=topology, topology_kwargs=kwargs, label=algo
        )

    return sweep_table(
        (
            ({"algorithm": algo, "sites": n}, [cell(algo, n)])
            for algo in algorithms
            for n in sizes
        ),
        {
            "msg/job": mean("messages_per_job"),
            "setup_msg": mean("setup_messages"),
            "GR": mean("guarantee_ratio"),
            "jobs": mean("n_jobs"),
        },
    )


def sweep_sphere_radius(
    base: ExperimentConfig,
    hs: Sequence[int],
) -> List[Dict[str, Any]]:
    """E3: effect of the PCS hop radius h."""
    return sweep_table(
        (
            (
                {"h": h},
                [replace(base, algorithm="rtds", rtds=replace(base.rtds, h=h), label=f"h={h}")],
            )
            for h in hs
        ),
        {
            **_GR,
            "msg/job": mean("messages_per_job"),
            "setup_msg": mean("setup_messages"),
            # measured on the routed network, carried outside scalar_metrics
            "mean_PCS": lambda reps: reps[0].obs.get("mean_pcs", float("nan")),
            "mean_ACS": mean("mean_acs_size"),
        },
    )


def sweep_ablations(base: ExperimentConfig) -> List[Dict[str, Any]]:
    """E5: the §13 generalizations, one row per variant vs the default."""
    variants = [
        ("base", base.rtds),
        ("preemptive", replace(base.rtds, validation_preemptive=True)),
        ("laxity=busyness", replace(base.rtds, laxity_mode="busyness")),
        ("local_knowledge", replace(base.rtds, local_knowledge=True)),
        ("acs<=4", replace(base.rtds, max_acs_size=4)),
        ("queue_mode", replace(base.rtds, enroll_mode="queue")),
        ("validation=llf", replace(base.rtds, validation_order="llf")),
    ]
    return sweep_table(
        (
            ({"variant": name}, [replace(base, algorithm="rtds", rtds=rtds_cfg, label=name)])
            for name, rtds_cfg in variants
        ),
        {
            **_GR,
            "msg/job": mean("messages_per_job"),
            "miss": mean("n_missed"),
            "dist": mean("n_accepted_distributed"),
        },
    )


def sweep_uniform_machines(
    base: ExperimentConfig, speed_sets: Dict[str, List[float]]
) -> List[Dict[str, Any]]:
    """E5b: heterogeneous computing powers (§13 uniform machines)."""
    return sweep_table(
        (
            (
                {"speeds": name},
                [replace(base, algorithm="rtds", site_speeds=list(speeds), label=name)],
            )
            for name, speeds in speed_sets.items()
        ),
        {**_GR, "miss": mean("n_missed")},
    )
