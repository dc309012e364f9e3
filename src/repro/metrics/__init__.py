"""Measurement layer.

* :mod:`repro.metrics.collector` — the harness-level observer that records
  job outcomes and task completions (the protocol has no feedback loop; all
  accounting happens here);
* :mod:`repro.metrics.summary` — aggregation into the quantities the
  benchmarks report (guarantee ratio, effective ratio, messages per job,
  latencies);
* :mod:`repro.metrics.faults` — the fault-injection post-mortem
  (:func:`fault_report`);
* :mod:`repro.metrics.stats` — means, confidence intervals, comparison
  helpers (implemented with numpy, t-quantiles without scipy dependency at
  runtime).

Per-phase protocol latencies are not derived here: :func:`repro.obs.timeline`
reads them off a traced run as ``phase.enroll`` / ``phase.map`` /
``phase.validate`` spans.
"""

from repro.metrics.collector import MetricsCollector
from repro.metrics.faults import FaultReport, fault_report
from repro.metrics.summary import ExperimentSummary, summarize
from repro.metrics.stats import mean_confidence_interval

__all__ = [
    "MetricsCollector",
    "FaultReport",
    "fault_report",
    "ExperimentSummary",
    "summarize",
    "mean_confidence_interval",
]
