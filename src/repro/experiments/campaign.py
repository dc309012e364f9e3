"""Replicated experiment campaigns.

One simulation run is one sample; claims need replications. A
:class:`Campaign` runs a configuration across seeds, aggregates every
summary metric with Student-t confidence intervals, and compares
algorithms pairwise (difference of guarantee ratios with its own CI via
per-seed pairing — the right analysis for matched workloads, since all
algorithms see the *same* arrivals for a given seed).

Execution is delegated to :mod:`repro.experiments.parallel`: a campaign's
(algorithm, seed) matrix is a list of content-addressed *cells* handed to
an executor strategy (``serial`` by default, or a ``pool(n)`` worker
pool), optionally backed by a persistent
:class:`~repro.experiments.parallel.CampaignStore` so interrupted
campaigns resume by skipping completed cells. Aggregation here only ever
touches the serializable
:class:`~repro.experiments.parallel.CellResult` records.

Used by the E1 bench's CI variant, the ``rtds campaign`` CLI command, and
available to users:

    camp = Campaign(base_config, seeds=range(8), executor="pool(4)")
    agg = camp.run("rtds")
    print(agg.mean["GR"], "+/-", agg.ci["GR"])
    diff = camp.compare("rtds", "local")     # paired per-seed differences

A single failing replication no longer aborts the sweep with a bare
traceback: every cell runs, failures are recorded (in the store when one
is attached), and one :class:`~repro.errors.CampaignCellError` naming
each failed cell key and seed is raised at the end — a resumed run
retries only those cells.

Sweeps are row tables: :func:`sweep_table` takes rows of ``(key columns,
replicate configs)`` plus named column aggregators (:func:`mean`,
:func:`ci_half`, :func:`mean_pm`, :func:`total`, :func:`runs`) and alone
does cell keys, the one ``run_cells`` pass, ``raise_on_failures``,
regrouping and aggregation. Every experiment sweep is a declaration over
it — E1–E5 in :mod:`repro.experiments.evaluation`, E10 in
:mod:`repro.experiments.widenet`, E11 in :mod:`repro.experiments.hetero`
and, here, the E7 fault sweep :func:`sweep_fault_plans` (one row per
:class:`~repro.faults.plan.FaultPlan`: scheduler metrics plus the churn
damage counters) — so all of them share the executor/store machinery and
the failure semantics above.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigError
from repro.experiments.parallel import (
    CampaignStore,
    Cell,
    CellResult,
    ProgressFn,
    cell_key,
    make_executor,
    raise_on_failures,
    run_cells,
)
from repro.experiments.runner import ExperimentConfig
from repro.metrics.stats import mean_confidence_interval

#: summary attributes aggregated per campaign: display key -> metric name
_METRICS = (
    ("GR", "guarantee_ratio"),
    ("effGR", "effective_ratio"),
    ("msg/job", "messages_per_job"),
    ("latency", "mean_decision_latency"),
    ("miss", "n_missed"),
    ("dist", "n_accepted_distributed"),
)


@dataclass
class Aggregate:
    """Mean ± 95% CI of each metric across replications."""

    label: str
    n_runs: int
    mean: Dict[str, float]
    ci: Dict[str, float]
    per_seed: Dict[str, List[float]] = field(repr=False, default_factory=dict)

    def row(self) -> Dict[str, object]:
        """Flat ``mean±ci`` dict for :func:`~repro.experiments.reporting.format_table`."""
        out: Dict[str, object] = {"label": self.label, "runs": self.n_runs}
        for key in self.mean:
            out[key] = f"{self.mean[key]:.4g}±{self.ci[key]:.2g}"
        return out


@dataclass
class PairedComparison:
    """Per-seed paired difference of one metric between two algorithms."""

    metric: str
    a: str
    b: str
    mean_diff: float
    ci: float
    n: int

    @property
    def significant(self) -> bool:
        """True iff the 95% CI of the paired difference excludes zero."""
        return abs(self.mean_diff) > self.ci

    def __str__(self) -> str:  # pragma: no cover - formatting aid
        star = " (*)" if self.significant else ""
        return (
            f"{self.metric}: {self.a} - {self.b} = "
            f"{self.mean_diff:+.4f} ± {self.ci:.4f}{star}"
        )


class Campaign:
    """Runs one base configuration across seeds and algorithms.

    ``executor`` is anything :func:`~repro.experiments.parallel.make_executor`
    accepts (``None``/``"serial"``/``"pool(4)"``/an int/an instance);
    ``store`` persists per-cell results and, with ``resume`` (default),
    skips cells it already completed; ``progress`` fires per executed cell.
    """

    def __init__(
        self,
        base: ExperimentConfig,
        seeds: Iterable[int],
        executor=None,
        store: Optional[CampaignStore] = None,
        resume: bool = True,
        progress: Optional[ProgressFn] = None,
    ):
        self.base = base
        self.seeds = list(seeds)
        if not self.seeds:
            raise ConfigError("campaign needs at least one seed")
        self.executor = make_executor(executor)
        self.store = store
        self.resume = resume
        self.progress = progress
        self._cache: Dict[tuple, CellResult] = {}

    def cell_config(self, algorithm: str, seed: int) -> ExperimentConfig:
        """The fully-resolved config of one (algorithm, seed) cell."""
        return replace(self.base, algorithm=algorithm, seed=seed, label=algorithm)

    def prefetch(self, algorithms: Sequence[str]) -> None:
        """Execute every missing (algorithm, seed) cell in one executor pass.

        Fanning the *whole* matrix at once is what lets a worker pool keep
        every core busy; ``run``/``compare``/``table`` all route through
        here, so calling them directly is never slower — just less batched.
        Raises :class:`~repro.errors.CampaignCellError` (after recording
        every failure) if any cell failed; successful cells stay cached.
        """
        todo = [
            (algo, seed)
            for algo in algorithms
            for seed in self.seeds
            if (algo, seed) not in self._cache
        ]
        if not todo:
            return
        cells: List[Cell] = []
        for algo, seed in todo:
            cfg = self.cell_config(algo, seed)
            cells.append((cell_key(cfg), cfg))
        results = run_cells(
            cells,
            executor=self.executor,
            store=self.store,
            progress=self.progress,
            skip_completed=self.resume,
        )
        for (algo, seed), (key, _) in zip(todo, cells):
            if results[key].ok:  # failures are retried on the next call
                self._cache[(algo, seed)] = results[key]
        raise_on_failures(results)

    def _metric(self, algorithm: str, seed: int, attr: str) -> float:
        return float(self._cache[(algorithm, seed)].metrics[attr])

    def run(self, algorithm: str) -> Aggregate:
        """All replications of one algorithm, aggregated."""
        self.prefetch([algorithm])
        per_seed: Dict[str, List[float]] = {
            key: [self._metric(algorithm, seed, attr) for seed in self.seeds]
            for key, attr in _METRICS
        }
        mean: Dict[str, float] = {}
        ci: Dict[str, float] = {}
        for key, vals in per_seed.items():
            clean = [v for v in vals if not np.isnan(v)]
            m, h = mean_confidence_interval(clean) if clean else (float("nan"), 0.0)
            mean[key], ci[key] = m, h
        return Aggregate(
            label=algorithm, n_runs=len(self.seeds), mean=mean, ci=ci, per_seed=per_seed
        )

    def compare(
        self, a: str, b: str, metric: str = "GR"
    ) -> PairedComparison:
        """Paired per-seed difference ``a - b`` of one metric."""
        keys = {k for k, _ in _METRICS}
        if metric not in keys:
            raise ConfigError(f"unknown metric {metric!r}; known: {sorted(keys)}")
        attr = dict(_METRICS)[metric]
        self.prefetch([a, b])
        diffs = []
        for seed in self.seeds:
            va = self._metric(a, seed, attr)
            vb = self._metric(b, seed, attr)
            if not (np.isnan(va) or np.isnan(vb)):
                diffs.append(va - vb)
        m, h = mean_confidence_interval(diffs)
        return PairedComparison(metric=metric, a=a, b=b, mean_diff=m, ci=h, n=len(diffs))

    def table(self, algorithms: Sequence[str]) -> List[Dict[str, object]]:
        """One aggregate row per algorithm (for ``format_table``).

        Prefetches the full algorithms × seeds matrix in one executor
        pass, so with a pool executor the whole table parallelizes.
        """
        self.prefetch(list(algorithms))
        return [self.run(a).row() for a in algorithms]


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
    hardened RTDS config when any plan is nonzero. Accepts the same
    ``executor``/``store``/``resume``/``progress`` knobs as
    :class:`Campaign` (see :func:`sweep_table`).
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
