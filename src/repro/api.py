"""The stable experiment API — one import for every way to run the system.

Everything a user script, notebook, or CI job needs lives behind four
verbs; the subpackages stay importable for power use, but this module is
the supported surface and the one the README/examples build on:

``run(config, workload=None)``
    One experiment: build the network, run routing, push a workload
    through admission, summarize. Deterministic per ``config.seed``.
``campaign(base, algorithms, seeds, ...)``
    The same base configuration fanned across algorithms × seeds, with
    optional process parallelism, a resumable on-disk store, and
    per-cell progress; one table row per algorithm.
``soak(config, progress=None)``
    A long-lived open-loop service soak (E12): jobs stream through the
    admission service against one resident network; periodic samples.
    With a fault plan (``config.faults``) it is the E13 chaos soak: site
    churn and mid-flight joins, and a survivability ledger in the report.
``trace(config, out=None)``
    One traced run, its phase timeline exported as a Chrome trace-event
    document (open in https://ui.perfetto.dev) for span-by-span inspection.

All four are thin, documented delegates — no behavior of their own — so
``repro.api`` results are bit-for-bit those of the underlying modules;
``campaign`` is one more row-table declaration over
:func:`repro.experiments.campaign.sweep_table`.

The experiment sweeps are re-exported beside them, unwrapped — each is a
rows-and-columns declaration over
:func:`repro.experiments.campaign.sweep_table` returning printable
dict-rows: ``sweep_load`` (E1), ``sweep_network_size`` (E2),
``sweep_sphere_radius`` (E3), ``sweep_ablations`` (E5),
``sweep_uniform_machines`` (E5b), ``sweep_fault_plans`` (E7),
``sweep_widenet`` (E10) and ``sweep_hetero`` (E11). The ``rtds`` CLI
(:mod:`repro.cli`) is an argparse shell over exactly this module.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.experiments.campaign import (
    CAMPAIGN_METRICS,
    mean_ci,
    per_seed,
    runs,
    sweep_fault_plans,
    sweep_table,
)
from repro.experiments.evaluation import (
    sweep_ablations,
    sweep_load,
    sweep_network_size,
    sweep_sphere_radius,
    sweep_uniform_machines,
)
from repro.experiments.hetero import sweep_hetero
from repro.experiments.runner import ExperimentConfig, RunResult, run_experiment
from repro.experiments.soak import SoakConfig, SoakReport, SoakSample, run_soak
from repro.experiments.widenet import sweep_widenet
from repro.workloads.jobs import Workload

__all__ = [
    "ExperimentConfig",
    "RunResult",
    "SoakConfig",
    "SoakReport",
    "SoakSample",
    "run",
    "campaign",
    "soak",
    "trace",
    "sweep_load",
    "sweep_network_size",
    "sweep_sphere_radius",
    "sweep_ablations",
    "sweep_uniform_machines",
    "sweep_fault_plans",
    "sweep_widenet",
    "sweep_hetero",
]


def run(config: ExperimentConfig, workload: Optional[Workload] = None) -> RunResult:
    """Run one experiment; returns its :class:`RunResult`.

    Parameters
    ----------
    config:
        The declarative experiment description (topology, algorithm,
        workload knobs, seed). Same config → same result, bit for bit.
    workload:
        ``None`` (default) generates the config's seeded batch workload.
        An explicit :class:`~repro.workloads.jobs.Workload` replays that
        job list instead — e.g. a captured open-loop stream — making the
        config's ``rho``/``duration``/``dag_size`` knobs irrelevant.
    """
    return run_experiment(config, workload=workload)


def campaign(
    base: ExperimentConfig,
    algorithms: Sequence[str],
    seeds: Iterable[int],
    executor: Any = None,
    store: Any = None,
    resume: bool = True,
    progress: Optional[Callable] = None,
) -> List[Dict[str, object]]:
    """Run ``base`` across ``algorithms`` × ``seeds``; one row per algorithm.

    Each row holds ``label`` (the algorithm), ``runs``, each
    :data:`~repro.experiments.campaign.CAMPAIGN_METRICS` column as
    ``"mean±ci"`` text over the seeds where it is defined, and
    ``per_seed`` — every metric's value per seed, which
    :func:`~repro.experiments.campaign.paired_difference` compares
    between two rows. Every cell is executed (or restored from ``store``)
    before this returns.

    Parameters
    ----------
    base:
        Config every cell derives from (``algorithm``/``seed`` replaced).
    algorithms:
        Algorithm names to compare (e.g. ``["rtds", "centralized"]``).
    seeds:
        Seeds each algorithm runs under; cells are (algorithm, seed).
    executor:
        ``None``/``"serial"``, ``"pool(n)"`` or an int for a process
        pool, or an executor instance.
    store:
        Optional :class:`~repro.experiments.parallel.CampaignStore` for
        persistence; with ``resume`` (default) completed cells are not
        re-run.
    progress:
        Callback fired per executed cell ``(result, done, total)``.
    """
    seeds = list(seeds)
    return sweep_table(
        (
            ({"label": a}, [replace(base, algorithm=a, seed=s, label=a) for s in seeds])
            for a in algorithms
        ),
        {
            "runs": runs,
            **{key: mean_ci(metric) for key, metric in CAMPAIGN_METRICS},
            "per_seed": per_seed,
        },
        executor=executor,
        store=store,
        resume=resume,
        progress=progress,
    )


def soak(
    config: SoakConfig,
    progress: Optional[Callable[[SoakSample], None]] = None,
) -> SoakReport:
    """Run an open-loop service soak to completion (E12; E13 with faults).

    Streams ``config.target_jobs`` arrivals through the admission
    service against one resident network, sampling throughput, latency
    percentiles, guarantee ratio, memory and the survivability ledger
    every ``config.sample_every`` jobs. ``progress`` fires per sample.
    """
    return run_soak(config, progress=progress)


def trace(
    config: ExperimentConfig, out: Optional[str] = None
) -> Tuple[RunResult, Dict[str, Any]]:
    """Run once traced; return (result, Chrome trace document).

    The document follows the Chrome trace-event format — one lane per
    site, one span per protocol phase of every job, read off the run's
    trace by :func:`repro.obs.run_telemetry` — and is validated before it
    is returned. With ``out`` it is also written to that path. Tracing is
    forced on; everything else in ``config`` applies as given (the tracer
    changes no simulation result, only records it).
    """
    from repro.errors import ConfigError
    from repro.obs import chrome_trace, run_telemetry, validate_chrome_trace, write_chrome_trace

    result = run_experiment(config if config.trace else replace(config, trace=True))
    obs = run_telemetry(result)
    doc = chrome_trace(obs)
    problems = validate_chrome_trace(doc)
    if problems:
        raise ConfigError("invalid chrome trace: " + "; ".join(problems))
    if out is not None:
        write_chrome_trace(obs, out)
    return result, doc
