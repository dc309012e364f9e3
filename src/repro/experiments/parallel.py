"""Parallel campaign runtime: content-addressed cells, executors, stores.

Every replicated claim in this reproduction is a *campaign*: a matrix of
(config, algorithm, seed, fault-plan) **cells**, each cell one call to
:func:`~repro.experiments.runner.run_experiment`. This module keeps apart
three concerns that :func:`~repro.experiments.campaign.sweep_table`
composes:

* **identity** — :func:`cell_key` derives a content-addressed key from
  the fully-resolved :class:`~repro.experiments.runner.ExperimentConfig`
  (a SHA-256 over a canonical JSON fingerprint). Two configs that would
  run the same simulation hash identically, whatever produced them; the
  display-only ``label`` field is excluded.
* **execution** — an executor strategy runs cells: :class:`SerialExecutor`
  in-process (the default, zero overhead) or :class:`PoolExecutor` fanning
  cells across a ``multiprocessing`` worker pool. Both produce the same
  :class:`CellResult` records in the same order — determinism is per cell
  (everything derives from ``config.seed``), so serial and parallel runs
  are bit-for-bit identical per seed (asserted by
  ``tests/experiments/test_parallel.py``).
* **persistence** — a :class:`ResultStore` directory holds one JSONL file
  per campaign (:class:`CampaignStore`). Records append as cells finish
  (flushed + fsynced, so a killed sweep loses at most the in-flight
  cells); on resume, completed cells are skipped by key and **failed
  cells are retried**. A torn trailing line from a hard kill is ignored
  on load; the last record per key wins.

:func:`run_cells` composes the three: skip what the store already has,
execute the rest, persist as results arrive, report progress. Failures
never abort the sweep mid-flight — :func:`run_cell` converts exceptions
into ``status="failed"`` records carrying the cell key, seed and error,
and :func:`raise_on_failures` raises one
:class:`~repro.errors.CampaignCellError` at the end naming every failed
cell. See DESIGN.md "Parallel runtime & result store".
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import re
import time
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import CampaignCellError, ConfigError
from repro.experiments.runner import ExperimentConfig, run_experiment

#: one unit of campaign work: ``(cell key, fully-resolved config)``
Cell = Tuple[str, ExperimentConfig]
#: progress callback: ``(finished result, cells done, cells total)``
ProgressFn = Callable[["CellResult", int, int], None]


# -- cell identity -----------------------------------------------------------

#: Fields deleted from a config dataclass without changing behaviour, each
#: with the last default it had, per dataclass name. The encoding puts them
#: back, so every cell key stays where it was: a key is the address of a
#: cached cell in every result store.
_RETIRED_FIELDS: Dict[str, Dict[str, object]] = {
    "ExperimentConfig": {
        "election": None,
        "focused_period": 50.0,
        "focused_bid_count": 3,
        "centralized_shortlist": 8,
        "random_max_hops": 4,
        "random_tries": 3,
        "drain_margin": 300.0,
        "hygiene_interval": None,
    },
    "RTDSConfig": {
        "member_lease": None,
        "result_forwarding": True,
        "mapper_cost": 0.0,
        "surplus_window": 200.0,
        "enroll_timeout": None,
        "protocol_margin_factor": 3.0,
    },
}


def _encode(value):
    """Canonical JSON-able encoding of one config value (recursive)."""
    if is_dataclass(value) and not isinstance(value, type):
        name = type(value).__name__
        enc = {f.name: _encode(getattr(value, f.name)) for f in fields(value)}
        for retired, default in _RETIRED_FIELDS.get(name, {}).items():
            enc[retired] = _encode(default)
        enc["__dataclass__"] = name
        return enc
    if isinstance(value, Mapping):
        if not all(isinstance(k, str) for k in value):
            raise ConfigError(
                "cannot fingerprint a mapping with non-string keys "
                f"({sorted(map(repr, value))}): str() coercion would let "
                "distinct configs collide on one cell key"
            )
        return {k: _encode(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = sorted(value, key=repr) if isinstance(value, (set, frozenset)) else value
        return [_encode(v) for v in items]
    if isinstance(value, np.ndarray):
        return [_encode(v) for v in value.tolist()]
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        # integral floats normalize to int so duration=400 (Python) and
        # --duration 400 (argparse float) address the same cell; ints stay
        # exact, so values beyond 2**53 never collide
        return int(value) if value.is_integer() else value
    if callable(value):
        # Callables (e.g. custom dag factories) are fingerprinted by their
        # qualified name — their *code* is not hashed, so editing a factory
        # in place without renaming it keeps the old key. Documented
        # limitation; named factories are the supported campaign input.
        # Lambdas all share the name '<lambda>', so two different ones
        # would collide on one key — refuse them like any ambiguous value.
        mod = getattr(value, "__module__", "?")
        name = getattr(value, "__qualname__", getattr(value, "__name__", "?"))
        if "<lambda>" in name:
            raise ConfigError(
                "cannot fingerprint a lambda (every lambda shares the name "
                "'<lambda>', so distinct configs would collide on one cell "
                "key); use a named function"
            )
        return f"callable:{mod}.{name}"
    # A repr() fallback would silently break content addressing (default
    # reprs embed memory addresses; numpy reprs truncate) — refuse instead,
    # like PoolExecutor refuses unpicklable configs.
    raise ConfigError(
        f"cannot fingerprint config value of type {type(value).__name__!r} "
        f"({value!r}); cell keys need JSON-able, dataclass or named-callable values"
    )


def config_fingerprint(config: ExperimentConfig) -> Dict[str, object]:
    """The canonical JSON-able dict :func:`cell_key` hashes.

    Every behaviour-affecting field of the fully-resolved config is
    included; the display-only ``label`` is dropped so renaming a sweep
    column never invalidates its cached cells. The ``admission_cache``
    flag is dropped too: the plan cache is result-invisible by contract
    (cache-on ≡ cache-off bit for bit, the ``tests/cache/``
    differential), so serial ≡ pool identity and cell addressing are
    untouched by it.
    """
    enc = _encode(config)
    enc.pop("label", None)
    enc.pop("admission_cache", None)
    return enc


def cell_key(config: ExperimentConfig) -> str:
    """Content-addressed cell key: SHA-256 of the canonical fingerprint.

    Stable across processes and interpreter restarts (the store's resume
    contract); 16 hex chars are kept — ample for campaign-sized matrices.
    """
    blob = json.dumps(config_fingerprint(config), sort_keys=True, allow_nan=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


# -- cell execution ----------------------------------------------------------


@dataclass(frozen=True, eq=True)
class CellResult:
    """The serializable outcome of one campaign cell.

    Carries every numeric summary metric
    (:meth:`~repro.experiments.runner.RunResult.scalar_metrics`) plus the
    flattened fault-damage counters — exactly what aggregation needs, and
    small enough to cross a process boundary or live in a JSONL store.
    """

    key: str
    algorithm: str
    seed: int
    label: str
    #: ``"ok"`` or ``"failed"``
    status: str
    metrics: Dict[str, float] = field(default_factory=dict)
    faults: Dict[str, int] = field(default_factory=dict)
    #: ``"ExcType: message"`` when status is ``"failed"``
    error: Optional[str] = None
    #: wall-clock seconds spent executing the cell
    elapsed: float = 0.0
    #: per-cell observability snapshot (events, events/sec, peak RSS MB)
    #: — collected unconditionally (it is harness-side sampling, not
    #: part of the simulated run) and kept apart from ``metrics`` so the
    #: serial-vs-pool identity contract (``same_metrics``) is untouched
    obs: Dict[str, float] = field(default_factory=dict)

    def __hash__(self):
        """Hash on the immutable identity fields (the dicts can't hash)."""
        return hash((self.key, self.algorithm, self.seed, self.status))

    @property
    def ok(self) -> bool:
        """True iff the cell ran to completion."""
        return self.status == "ok"

    def to_json(self) -> str:
        """One JSONL store line (Python's ``NaN`` extension allowed)."""
        return json.dumps(
            {
                "key": self.key,
                "algorithm": self.algorithm,
                "seed": self.seed,
                "label": self.label,
                "status": self.status,
                "metrics": self.metrics,
                "faults": self.faults,
                "error": self.error,
                "elapsed": self.elapsed,
                "obs": self.obs,
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, line: str) -> "CellResult":
        """Parse one store line back into a result."""
        raw = json.loads(line)
        return cls(
            key=raw["key"],
            algorithm=raw["algorithm"],
            seed=int(raw["seed"]),
            label=raw["label"],
            status=raw["status"],
            metrics=dict(raw.get("metrics") or {}),
            faults={k: int(v) for k, v in (raw.get("faults") or {}).items()},
            error=raw.get("error"),
            elapsed=float(raw.get("elapsed", 0.0)),
            # tolerant of pre-observability store lines (no "obs" field)
            obs={k: float(v) for k, v in (raw.get("obs") or {}).items()},
        )


def run_cell(config: ExperimentConfig, key: Optional[str] = None) -> CellResult:
    """Execute one cell; never raises on a failing *run*.

    An exception inside :func:`~repro.experiments.runner.run_experiment`
    becomes a ``status="failed"`` record naming the cell key and seed, so
    one broken replication cannot take down a whole sweep (the campaign
    layer raises :class:`~repro.errors.CampaignCellError` *after* every
    cell has had its chance and the failure is persisted).
    ``KeyboardInterrupt``/``SystemExit`` still propagate — a killed sweep
    should die, then resume.
    """
    from repro.metrics.faults import fault_report
    from repro.obs.telemetry import rss_mb

    key = key or cell_key(config)
    t0 = time.perf_counter()
    try:
        result = run_experiment(config)
        metrics = result.scalar_metrics()
        rep = fault_report(result)
        sim = result.network.sim
        obs_snapshot = {
            "events": float(sim.events_processed),
            "events_per_sec": (
                sim.events_processed / sim.wall_seconds if sim.wall_seconds > 0 else 0.0
            ),
        }
        rss = rss_mb()
        if rss is not None:
            obs_snapshot["rss_mb"] = rss
        # E3's sphere-size column: a property of the routed network, not
        # of the run's outcome, so it rides here rather than in ``metrics``;
        # counted from the tables, so no site builds a sphere it never used
        sizes = (
            getattr(site, "sphere_size", lambda: None)()
            for site in result.network.sites.values()
        )
        pcs_sizes = [n for n in sizes if n is not None]
        if pcs_sizes:
            obs_snapshot["mean_pcs"] = sum(pcs_sizes) / len(pcs_sizes)
    except Exception as exc:
        return CellResult(
            key=key,
            algorithm=config.algorithm,
            seed=config.seed,
            label=config.resolved_label(),
            status="failed",
            error=f"{type(exc).__name__}: {exc}",
            elapsed=time.perf_counter() - t0,
        )
    return CellResult(
        key=key,
        algorithm=config.algorithm,
        seed=config.seed,
        label=config.resolved_label(),
        status="ok",
        metrics=metrics,
        faults={
            "lost_messages": rep.lost_messages,
            "jobs_dropped": rep.jobs_dropped,
            "retransmissions": rep.retransmissions,
            "degraded_phases": rep.degraded_phases,
            "lease_expirations": rep.lease_expirations,
            "link_down_events": rep.link_down_events,
            "site_down_events": rep.site_down_events,
        },
        elapsed=time.perf_counter() - t0,
        obs=obs_snapshot,
    )


# -- persistent result store -------------------------------------------------


class CampaignStore:
    """One campaign's append-only JSONL result file.

    Layout: one :class:`CellResult` per line, appended (flushed and
    fsynced) the moment the cell finishes. Readers take the **last**
    record per key, tolerate a torn trailing line (a hard kill mid-write)
    and treat only ``status == "ok"`` as completed — failed cells stay
    visible but are re-executed on resume.
    """

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)

    def load(self) -> Dict[str, CellResult]:
        """All stored results, last record per key winning."""
        out: Dict[str, CellResult] = {}
        if not self.path.exists():
            return out
        with self.path.open("r", encoding="utf-8") as f:
            for line in f:
                line = line.strip()
                if not line:
                    continue
                try:
                    res = CellResult.from_json(line)
                except (ValueError, KeyError):
                    continue  # torn tail from a killed writer
                out[res.key] = res
        return out

    def failed(self) -> List[CellResult]:
        """Latest-record failures — the cells a resume will retry."""
        return [r for r in self.load().values() if not r.ok]

    def append(self, result: CellResult) -> None:
        """Durably append one result (crash loses at most in-flight cells).

        If the previous writer died mid-line, start on a fresh line first —
        otherwise the new record would glue onto the torn fragment and both
        would be lost to :meth:`load`.
        """
        needs_newline = False
        if self.path.exists() and self.path.stat().st_size > 0:
            with self.path.open("rb") as f:
                f.seek(-1, os.SEEK_END)
                needs_newline = f.read(1) != b"\n"
        with self.path.open("a", encoding="utf-8") as f:
            if needs_newline:
                f.write("\n")
            f.write(result.to_json() + "\n")
            f.flush()
            os.fsync(f.fileno())


class ResultStore:
    """A ``--store`` directory: one :class:`CampaignStore` JSONL per campaign.

    Cell keys are content-addressed, so sharing one file between unrelated
    campaigns is harmless — stale entries simply never match — but one
    file per campaign keeps the artifacts inspectable.
    """

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def campaign(self, name: str) -> CampaignStore:
        """The named campaign's JSONL store (``<root>/<name>.jsonl``)."""
        if not re.fullmatch(r"[\w.-]+", name):
            raise ConfigError(f"campaign store name must be a plain filename, got {name!r}")
        return CampaignStore(self.root / f"{name}.jsonl")

    def campaigns(self) -> List[str]:
        """Names of every campaign file present in the store directory."""
        return sorted(p.stem for p in self.root.glob("*.jsonl"))


# -- executor strategies -----------------------------------------------------


class SerialExecutor:
    """Runs cells one after another in the calling process (the default)."""

    jobs = 1

    def run(self, cells: Sequence[Cell], progress: Optional[ProgressFn] = None) -> List[CellResult]:
        """Execute ``cells`` in order; ``progress`` fires after each."""
        cells = list(cells)
        out: List[CellResult] = []
        for i, (key, cfg) in enumerate(cells):
            res = run_cell(cfg, key=key)
            out.append(res)
            if progress is not None:
                progress(res, i + 1, len(cells))
        return out


def _pool_entry(payload: Cell) -> CellResult:
    """Worker-side entry point (module-level so it pickles)."""
    key, cfg = payload
    return run_cell(cfg, key=key)


class PoolExecutor:
    """Fans cells across a ``multiprocessing`` worker pool.

    Results come back in submission order; the progress callback fires in
    *completion* order from the parent process (workers never touch the
    store). Configs must pickle — a config carrying a lambda
    ``dag_factory`` is rejected up front with a clear error instead of a
    worker traceback.
    """

    def __init__(self, jobs: int):
        if jobs < 2:
            raise ConfigError(f"PoolExecutor needs >= 2 jobs, got {jobs} (use SerialExecutor)")
        self.jobs = jobs

    def run(self, cells: Sequence[Cell], progress: Optional[ProgressFn] = None) -> List[CellResult]:
        """Execute ``cells`` across the pool; order of results is stable."""
        cells = list(cells)
        if not cells:
            return []
        try:
            pickle.dumps([cfg for _, cfg in cells])
        except Exception as exc:
            raise ConfigError(
                f"campaign cells must pickle to cross the worker-pool boundary ({exc}); "
                "use module-level functions for dag_factory, or the serial executor"
            ) from None
        # the pool pulls in multiprocessing, socket and subprocess: only a
        # parallel campaign pays for them
        from concurrent.futures import ProcessPoolExecutor, as_completed

        results: List[Optional[CellResult]] = [None] * len(cells)
        done = 0
        with ProcessPoolExecutor(max_workers=min(self.jobs, len(cells))) as pool:
            futures = {pool.submit(_pool_entry, cell): i for i, cell in enumerate(cells)}
            for fut in as_completed(futures):
                res = fut.result()
                results[futures[fut]] = res
                done += 1
                if progress is not None:
                    progress(res, done, len(cells))
        return results  # type: ignore[return-value]


def make_executor(spec=None):
    """Resolve an executor strategy from a spec.

    Accepts ``None`` / ``"serial"`` / ``1`` (serial), an int ``n >= 2`` or
    the string ``"pool(n)"`` (a worker pool), or an existing executor
    instance (anything with a ``run`` method), which is passed through.
    """
    if spec is None:
        return SerialExecutor()
    if isinstance(spec, (SerialExecutor, PoolExecutor)):
        return spec
    if not isinstance(spec, (str, int)) and hasattr(spec, "run"):
        return spec
    if isinstance(spec, bool):  # bools are ints; reject explicitly
        raise ConfigError(f"bad executor spec {spec!r}")
    if isinstance(spec, int):
        if spec < 1:
            raise ConfigError(f"executor job count must be >= 1, got {spec}")
        return SerialExecutor() if spec == 1 else PoolExecutor(spec)
    text = str(spec).strip().lower()
    if text == "serial":
        return SerialExecutor()
    match = re.fullmatch(r"pool\((\d+)\)", text)
    if match:
        return make_executor(int(match.group(1)))
    raise ConfigError(f"unknown executor spec {spec!r}; want 'serial', 'pool(n)' or an int")


# -- orchestration -----------------------------------------------------------


def run_cells(
    cells: Iterable[Cell],
    executor=None,
    store: Optional[CampaignStore] = None,
    progress: Optional[ProgressFn] = None,
    skip_completed: bool = True,
) -> Dict[str, CellResult]:
    """Execute a cell matrix through an executor, backed by a store.

    * duplicate keys collapse (content-addressing: identical configs run
      once);
    * with a ``store`` and ``skip_completed`` (the resume semantics),
      cells whose key already has an ``ok`` record are returned from the
      store without executing — failed records are re-executed;
    * every executed result is appended to the store *as it finishes*, so
      an interrupted sweep resumes from its last completed cell;
    * ``progress`` fires only for executed cells.

    Returns ``key -> CellResult`` covering every requested cell. Raising
    on failures is the caller's choice (:func:`raise_on_failures`).
    """
    executor = make_executor(executor)
    unique: Dict[str, ExperimentConfig] = {}
    for key, cfg in cells:
        unique.setdefault(key, cfg)

    results: Dict[str, CellResult] = {}
    pending: List[Cell] = []
    if store is not None and skip_completed:
        stored = store.load()
        for key, cfg in unique.items():
            hit = stored.get(key)
            if hit is not None and hit.ok:
                results[key] = hit
            else:
                pending.append((key, cfg))
    else:
        pending = list(unique.items())

    def _on_result(res: CellResult, done: int, total: int) -> None:
        if store is not None:
            store.append(res)
        if progress is not None:
            progress(res, done, total)

    for res in executor.run(pending, progress=_on_result):
        results[res.key] = res
    return results


def same_metrics(a: CellResult, b: CellResult) -> bool:
    """True iff two results carry identical metric values, NaN-aware.

    Plain dict equality is the wrong tool here: undefined metrics (e.g.
    ``mean_acs_size`` with no distributed acceptances) are NaN, and
    ``NaN != NaN``. Canonical JSON renders every NaN identically, giving
    the bit-for-bit comparison the serial-vs-parallel identity contract
    needs (``tests/experiments/test_parallel.py``).
    """
    return json.dumps(a.metrics, sort_keys=True) == json.dumps(b.metrics, sort_keys=True)


def raise_on_failures(results: Mapping[str, CellResult]) -> None:
    """Raise :class:`~repro.errors.CampaignCellError` if any cell failed.

    Called after the whole matrix ran and every failure is persisted, so
    the error message ("rerun with resume to retry only the failed
    cells") is actionable.
    """
    failures = [r for r in results.values() if not r.ok]
    if failures:
        raise CampaignCellError(failures)
