"""E10 — the wide-network scale-out campaign (256 to 1024+ sites).

The paper's title promises "arbitrary **wide** networks"; this module
makes that a measured, repeatable workload instead of an extrapolation
from 48-site soaks. A cell is one seeded RTDS run on a large
random-geometric or Barabási–Albert topology with the oracle routing
back end (:mod:`repro.routing.oracle`) — vectorized table construction
plus O(degree) lazy per-site state — which is what keeps a 1024-site
cell's setup in fractions of a second.

Two topology families, chosen to bracket the space:

* ``geometric`` — random geometric graphs (mean degree ~8,
  delay proportional to Euclidean distance): large hop diameter, PCS
  membership stays genuinely local. The paper's intended regime.
* ``barabasi_albert`` — scale-free preferential attachment (m=3): tiny
  hop diameter, so a 2h-hop sphere sees most of the network through the
  hubs. The stress case for per-site state and sphere construction.

:func:`sweep_widenet` declares the (kind, size) rows × seed replicates
and their columns over :func:`repro.experiments.campaign.sweep_table`,
which fans the matrix through the parallel campaign runtime, so
``rtds sweep-widenet --jobs N --store DIR --resume`` scales across
cores and survives interruption like every other campaign.
The geometric-1024 cell is the e2e workload ``wide_geo1024``
(``benchmarks/e2e``), which holds its set-up time, peak RSS and
seeded-metric digest to the parent commit.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigError
from repro.experiments.campaign import mean, mean_pm, runs, sweep_table
from repro.experiments.parallel import CampaignStore, ProgressFn
from repro.experiments.runner import ExperimentConfig
from repro.workloads.scenarios import WIDENET_WORKLOAD

#: the E10 cell axes: topology families x network sizes
E10_KINDS: Tuple[str, ...] = ("geometric", "barabasi_albert")
E10_SIZES: Tuple[int, ...] = (256, 512, 1024)

#: target mean degree of the geometric family (keeps spheres local as n grows)
GEO_MEAN_DEGREE = 8.0
#: preferential-attachment edges per new site
BA_M = 3


def widenet_topology(kind: str, n: int) -> Tuple[str, Dict[str, Any]]:
    """``(topology, topology_kwargs)`` of one E10 cell.

    Geometric cells shrink the connection radius as ``sqrt(1/n)`` so the
    mean degree (and with it the sphere size) stays constant while the
    hop diameter grows — the "wide" in wide networks. Barabási–Albert
    cells keep ``m`` constant, so hop diameter stays small and sphere
    sizes grow instead.
    """
    if n < 8:
        raise ConfigError(f"widenet cells start at 8 sites, got {n}")
    if kind == "geometric":
        radius = float(np.sqrt(GEO_MEAN_DEGREE / (np.pi * n)))
        return "geometric", {"n": n, "radius": radius}
    if kind == "barabasi_albert":
        return "barabasi_albert", {"n": n, "m": BA_M, "delay_range": (0.2, 1.0)}
    raise ConfigError(f"unknown widenet kind {kind!r}; known: {E10_KINDS}")


def widenet_config(
    kind: str,
    n: int,
    seed: int = 0,
    base: Optional[ExperimentConfig] = None,
    routing_mode: str = "oracle",
) -> ExperimentConfig:
    """The fully-resolved config of one E10 cell.

    ``base`` (optional) supplies algorithm/RTDS knobs; topology, workload
    shape and routing back end are overridden with the wide-network
    presets. ``routing_mode`` defaults to ``"oracle"`` — pass
    ``"protocol"`` to measure what the simulated setup used to cost.
    """
    topology, topology_kwargs = widenet_topology(kind, n)
    cfg = base if base is not None else ExperimentConfig()
    return replace(
        cfg,
        topology=topology,
        topology_kwargs=topology_kwargs,
        routing_mode=routing_mode,
        seed=seed,
        label=f"{kind}-{n}",
        **WIDENET_WORKLOAD,
    )


def sweep_widenet(
    base: Optional[ExperimentConfig] = None,
    kinds: Sequence[str] = E10_KINDS,
    sizes: Sequence[int] = E10_SIZES,
    seeds: Iterable[int] = (0,),
    executor=None,
    store: Optional[CampaignStore] = None,
    resume: bool = True,
    progress: Optional[ProgressFn] = None,
    routing_mode: str = "oracle",
) -> List[Dict[str, Any]]:
    """E10: guarantee ratio and protocol cost across wide networks.

    One row per (kind, size), its seeds aggregated with Student-t 95%
    confidence intervals by
    :func:`~repro.experiments.campaign.sweep_table`. Returns table rows
    for :func:`~repro.experiments.reporting.format_table`; raises
    :class:`~repro.errors.CampaignCellError` after recording failures.
    """
    seeds = list(seeds)
    return sweep_table(
        (
            (
                {"topology": kind, "sites": n},
                [
                    widenet_config(kind, n, seed=seed, base=base, routing_mode=routing_mode)
                    for seed in seeds
                ],
            )
            for kind in kinds
            for n in sizes
        ),
        {
            "GR": mean_pm("guarantee_ratio"),
            "msg/job": mean("messages_per_job", 2),
            "jobs": lambda reps: int(mean("n_jobs")(reps)),
            "runs": runs,
        },
        executor=executor,
        store=store,
        resume=resume,
        progress=progress,
    )
