"""E11 — heterogeneous sites × trace-driven workflow workloads.

The paper's base protocol assumes identical sites; §13 sketches the
*related machines* relaxation (communication-aware scheduling on related
machines — Su et al., arXiv:2004.14639 — is the modern statement of the
same problem). E11 measures what speed *imbalance* does to the guarantee
ratio when total capacity is held constant: every cell is one seeded run
on the same topology family, crossed over

* a **speed profile** from :mod:`repro.simnet.speeds` — ``"uniform"``
  (the homogeneous anchor, site_speeds left unset so the run takes the
  byte-identical default path) and ``"skew:K"`` levels whose fast/slow
  ratio grows while the mean speed stays 1.0; and
* a **workload family** — the synthetic ``dag_size`` mix and the
  trace-driven workflow streams of :mod:`repro.workloads.traces`
  (Montage / Epigenomics shapes with empirical per-task-type runtimes).

Because the profiles are mean-normalised, offered load ρ means the same
thing in every cell; the GR spread across a row is the pure cost (or
benefit) of heterogeneity for that workload shape. The trace rows show
whether workflow-shaped jobs — long lanes, heavy co-add sinks — shift
the protocol's behaviour off the synthetic mixes it was tuned on.

:func:`sweep_hetero` declares the (profile, workload) rows × seed
replicates and their columns over
:func:`repro.experiments.campaign.sweep_table`, so ``rtds sweep-hetero
--jobs N --store DIR --resume`` scales across cores and survives
interruption like every other campaign. Its defaults are the E11 gate:
``tests/experiments/test_hetero_sweep.py`` pins every default cell's
guarantee ratio, and ``tests/hetero/test_differential.py`` replays the
uniform anchor cell with explicit all-1.0 speeds bit for bit.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ConfigError
from repro.experiments.campaign import mean, mean_pm, runs, sweep_table
from repro.experiments.parallel import CampaignStore, ProgressFn
from repro.experiments.runner import ExperimentConfig

#: the E11 speed-profile axis: homogeneous anchor + growing skew
E11_SPEEDS: Tuple[str, ...] = ("uniform", "skew:2", "skew:4")
#: the E11 workload axis: the synthetic mix + the workflow traces
E11_WORKLOADS: Tuple[str, ...] = ("synthetic", "trace:montage", "trace:epigenomics")

#: default network size of the E11 cells: small enough that the full
#: default matrix (3 profiles × 3 workloads) runs in seconds, large
#: enough to push a meaningful share of jobs through the distributed
#: protocol.
E11_SITES = 24
#: target mean degree of the E11 Erdős–Rényi cells (p = degree/(n-1), so
#: sphere sizes stay comparable when ``--sites`` scales the network)
E11_MEAN_DEGREE = 4.6

#: workload knobs of the E11 cells, applied only when no ``base`` config
#: is given (the CLI's ``--rho/--duration/--laxity`` flags flow through
#: ``base`` and win; ``rtds sweep-hetero`` pins its own defaults to these
#: values, so the flag-less CLI run and the tier-1 gate address the same
#: cells)
E11_WORKLOAD: Dict[str, Any] = {
    "rho": 0.6,
    "duration": 240.0,
    "laxity_factor": 3.0,
}


def hetero_topology(n: int) -> Tuple[str, Dict[str, Any]]:
    """``(topology, topology_kwargs)`` of one E11 cell at ``n`` sites."""
    if n < 4:
        raise ConfigError(f"hetero cells start at 4 sites, got {n}")
    return "erdos_renyi", {
        "n": n,
        "p": min(1.0, E11_MEAN_DEGREE / (n - 1)),
        "delay_range": (0.2, 1.0),
    }


def hetero_config(
    speed_spec: str,
    workload: str,
    seed: int = 0,
    base: Optional[ExperimentConfig] = None,
    n_sites: int = E11_SITES,
) -> ExperimentConfig:
    """The fully-resolved config of one E11 cell.

    ``speed_spec`` is a profile name from :mod:`repro.simnet.speeds` or
    the literal ``"uniform"``, which maps to ``site_speeds=None`` — the
    homogeneous anchor runs the exact default code path the identity
    goldens pin, so the uniform row doubles as a continuous differential
    check. ``base`` (optional) supplies algorithm/RTDS *and* workload
    knobs (rho, duration, laxity — the CLI's common flags land here);
    without one, :data:`E11_WORKLOAD` applies. Topology always comes
    from :func:`hetero_topology` at ``n_sites`` — the cell axes own the
    network, like every other campaign module.
    """
    topology, topology_kwargs = hetero_topology(n_sites)
    cfg = base if base is not None else ExperimentConfig(**E11_WORKLOAD)
    site_speeds = None if speed_spec == "uniform" else speed_spec
    return replace(
        cfg,
        topology=topology,
        topology_kwargs=topology_kwargs,
        site_speeds=site_speeds,
        workload=workload,
        seed=seed,
        label=f"{speed_spec}|{workload}",
    )


def sweep_hetero(
    base: Optional[ExperimentConfig] = None,
    speed_specs: Sequence[str] = E11_SPEEDS,
    workloads: Sequence[str] = E11_WORKLOADS,
    seeds: Iterable[int] = (0,),
    executor=None,
    store: Optional[CampaignStore] = None,
    resume: bool = True,
    progress: Optional[ProgressFn] = None,
    n_sites: int = E11_SITES,
) -> List[Dict[str, Any]]:
    """E11: guarantee ratio across speed-skew levels and workload families.

    One row per (profile, workload), its seeds aggregated with Student-t
    95% confidence intervals by
    :func:`~repro.experiments.campaign.sweep_table`. Returns table rows
    for :func:`~repro.experiments.reporting.format_table`; raises
    :class:`~repro.errors.CampaignCellError` after recording failures.
    """
    seeds = list(seeds)
    return sweep_table(
        (
            (
                {"speeds": spec, "workload": workload},
                [
                    hetero_config(spec, workload, seed=seed, base=base, n_sites=n_sites)
                    for seed in seeds
                ],
            )
            for spec in speed_specs
            for workload in workloads
        ),
        {
            "GR": mean_pm("guarantee_ratio"),
            "effGR": mean("effective_ratio", 4),
            "jobs": lambda reps: int(mean("n_jobs")(reps)),
            "runs": runs,
        },
        executor=executor,
        store=store,
        resume=resume,
        progress=progress,
    )
