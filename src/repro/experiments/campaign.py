"""Replicated experiment sweeps.

One simulation run is one sample; claims need replications. Sweeps are row
tables: :func:`sweep_table` takes rows of ``(key columns, replicate
configs)`` plus named column aggregators (:func:`mean`, :func:`ci_half`,
:func:`mean_pm`, :func:`mean_ci`, :func:`per_seed`, :func:`total`,
:func:`runs`) and alone does cell keys, the one ``run_cells`` pass,
``raise_on_failures``, regrouping and aggregation. Every experiment sweep
is a declaration over it — the ``rtds campaign`` table
(:func:`repro.api.campaign`: one row per algorithm, each metric as mean ±
95% CI over the seeds), E1–E5 in :mod:`repro.experiments.evaluation`, E10
in :mod:`repro.experiments.widenet`, E11 in :mod:`repro.experiments.hetero`
and, here, the E7 fault sweep :func:`sweep_fault_plans` (one row per
:class:`~repro.faults.plan.FaultPlan`: scheduler metrics plus the churn
damage counters). :func:`paired_difference` compares two rows seed by seed
— the right analysis for matched workloads, since every algorithm sees
the *same* arrivals for a given seed.

Execution is delegated to :mod:`repro.experiments.parallel`: a sweep's
matrix is a list of content-addressed *cells* handed to an executor
strategy (``serial`` by default, or a ``pool(n)`` worker pool),
optionally backed by a persistent
:class:`~repro.experiments.parallel.CampaignStore` so interrupted sweeps
resume by skipping completed cells. Aggregation only ever touches the
serializable :class:`~repro.experiments.parallel.CellResult` records.

A single failing replication does not abort the sweep with a bare
traceback: every cell runs, failures are recorded (in the store when one
is attached), and one :class:`~repro.errors.CampaignCellError` naming
each failed cell key and seed is raised at the end — a resumed run
retries only those cells.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ConfigError
from repro.experiments.parallel import (
    CampaignStore,
    CellResult,
    ProgressFn,
    cell_key,
    raise_on_failures,
    run_cells,
)
from repro.experiments.runner import ExperimentConfig
from repro.metrics.stats import mean_confidence_interval

#: the ``rtds campaign`` table's metric columns: display key -> summary metric
CAMPAIGN_METRICS = (
    ("GR", "guarantee_ratio"),
    ("effGR", "effective_ratio"),
    ("msg/job", "messages_per_job"),
    ("latency", "mean_decision_latency"),
    ("miss", "n_missed"),
    ("dist", "n_accepted_distributed"),
)


#: one table row: ``(key columns, the configs of its replicate cells)``
SweepRow = Tuple[Dict[str, object], Sequence[ExperimentConfig]]
#: a column aggregator: one row's replicate results -> the column's value
Column = Callable[[Sequence[CellResult]], object]


def sweep_table(
    rows: Iterable[SweepRow],
    columns: Mapping[str, Column],
    executor=None,
    store: Optional[CampaignStore] = None,
    resume: bool = True,
    progress: Optional[ProgressFn] = None,
) -> List[Dict[str, object]]:
    """Run a row table of cells; return one aggregated dict-row per row.

    The one implementation behind every experiment sweep (E1–E3, E5, E5b,
    E7, E10, E11): each replicate config gets its content-addressed
    :func:`~repro.experiments.parallel.cell_key`, the whole matrix goes
    through a single :func:`~repro.experiments.parallel.run_cells` pass
    (so it parallelizes under a pool executor, dedups identical cells and
    resumes from ``store``), failures raise one
    :class:`~repro.errors.CampaignCellError` after every cell ran, and
    each output row is its key columns followed by ``columns`` applied to
    the row's replicate results, in order.
    """
    keyed = [(head, [(cell_key(cfg), cfg) for cfg in configs]) for head, configs in rows]
    if not all(cells for _, cells in keyed):
        raise ConfigError("sweep needs at least one seed")
    results = run_cells(
        [cell for _, cells in keyed for cell in cells],
        executor=executor,
        store=store,
        progress=progress,
        skip_completed=resume,
    )
    raise_on_failures(results)
    table: List[Dict[str, object]] = []
    for head, cells in keyed:
        reps = [results[key] for key, _ in cells]
        table.append({**head, **{name: agg(reps) for name, agg in columns.items()}})
    return table


def _values(reps: Sequence[CellResult], metric: str) -> List[float]:
    return [r.metrics[metric] for r in reps]


def runs(reps: Sequence[CellResult]) -> int:
    """Column: the row's replicate count."""
    return len(reps)


def mean(metric: str, digits: Optional[int] = None) -> Column:
    """Column: arithmetic mean of ``metric``, rounded to ``digits`` if given.

    An unreplicated row reports its one value as is, so counts stay ints.
    """

    def column(reps: Sequence[CellResult]) -> float:
        vals = _values(reps, metric)
        m = vals[0] if len(vals) == 1 else sum(vals) / len(vals)
        return m if digits is None else round(m, digits)

    return column


def ci_half(metric: str, digits: int) -> Column:
    """Column: half-width of ``metric``'s Student-t 95% CI (0 for one run)."""
    return lambda reps: round(mean_confidence_interval(_values(reps, metric))[1], digits)


def mean_pm(metric: str) -> Column:
    """Column: ``"mean±ci"`` text of ``metric`` (bare mean for one run)."""

    def column(reps: Sequence[CellResult]) -> str:
        m, h = mean_confidence_interval(_values(reps, metric))
        return f"{m:.4f}±{h:.3f}" if len(reps) > 1 else f"{m:.4f}"

    return column


def mean_ci(metric: str) -> Column:
    """Column: ``"mean±ci"`` text of ``metric`` over the replicates where it
    is defined (NaN seeds skipped), to 4 and 2 significant digits."""

    def column(reps: Sequence[CellResult]) -> str:
        m, h = mean_confidence_interval(_defined(map(float, _values(reps, metric))))
        return f"{m:.4g}±{h:.2g}"

    return column


def per_seed(reps: Sequence[CellResult]) -> Dict[str, List[float]]:
    """Column: ``{display key: [value per seed]}`` of the
    :data:`CAMPAIGN_METRICS`, in seed order — what
    :func:`paired_difference` compares."""
    return {key: [float(v) for v in _values(reps, m)] for key, m in CAMPAIGN_METRICS}


def paired_difference(a: Sequence[float], b: Sequence[float]) -> Tuple[float, float]:
    """``(mean, 95% CI half-width)`` of the per-seed differences ``a - b``
    over the seeds where both are defined. The difference is significant
    iff its interval excludes zero: ``abs(mean) > half``."""
    return mean_confidence_interval(_defined(x - y for x, y in zip(a, b)))


def _defined(values: Iterable[float]) -> List[float]:
    return [v for v in values if not math.isnan(v)]


def total(counter: str) -> Column:
    """Column: ``counter`` of the fault report summed over the replicates."""
    return lambda reps: sum(r.faults[counter] for r in reps)


def sweep_fault_plans(
    base: ExperimentConfig,
    plans: Sequence[tuple],
    seeds: Iterable[int] = (0,),
    executor=None,
    store: Optional[CampaignStore] = None,
    resume: bool = True,
    progress: Optional[ProgressFn] = None,
) -> List[Dict[str, object]]:
    """Replicate ``base`` across seeds for each ``(label, FaultPlan)``.

    Returns one row per plan with mean ± 95% CI of guarantee/effective
    ratios plus the summed churn damage (lost messages, degraded phases,
    dropped jobs) — the E7 fault-sweep table. ``base`` must already carry a
    hardened RTDS config when any plan is nonzero.
    ``executor``/``store``/``resume``/``progress`` are
    :func:`sweep_table`'s.
    """
    seeds = list(seeds)
    return sweep_table(
        (
            (
                {"plan": str(label)},
                [replace(base, faults=plan, seed=seed, label=str(label)) for seed in seeds],
            )
            for label, plan in plans
        ),
        {
            "runs": runs,
            "GR": mean("guarantee_ratio", 4),
            "GR±": ci_half("guarantee_ratio", 4),
            "effGR": mean("effective_ratio", 4),
            "effGR±": ci_half("effective_ratio", 4),
            "lost": total("lost_messages"),
            "retransmit": total("retransmissions"),
            "degraded": total("degraded_phases"),
            "jobs_dropped": total("jobs_dropped"),
        },
        executor=executor,
        store=store,
        resume=resume,
        progress=progress,
    )
