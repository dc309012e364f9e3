"""``repro.obs`` — a run's telemetry, read off its trace after the run.

A run has one instrument, the tracer (``ExperimentConfig(trace=True)``):
every protocol phase boundary is a trace event, and the hot path carries
nothing but the tracer's ``trace_on`` guard. This package reads that
record once the run is over:

* :func:`timeline` — simulated-time **spans** for the protocol phases
  (enroll, map, validate, execute, retransmission) of every job;
* :func:`run_telemetry` — those spans plus counters, gauges and
  reservoir/percentile timers (p50/p95/p99) as one :class:`Telemetry`;
* exporters — Chrome trace-event JSON and the flat metrics JSONL;
* the live campaign dashboard, and the :class:`ReservoirTimer` /
  percentile / RSS primitives the admission service and the soak use.

Both readers raise :class:`~repro.errors.ConfigError` on a run made with
``trace=False``. Reading is deterministic: the same run exports the same
timeline and metrics, byte for byte.

Entry points: ``rtds trace``, ``api.trace``, ``rtds stats``. See DESIGN.md
"Observability model".
"""

from repro.obs.dashboard import CampaignDashboard
from repro.obs.export import (
    chrome_trace,
    metrics_jsonl,
    metrics_records,
    parse_metrics_jsonl,
    validate_chrome_trace,
    write_chrome_trace,
    write_metrics_jsonl,
)
from repro.obs.telemetry import (
    ReservoirTimer,
    Span,
    Telemetry,
    percentile,
    percentiles,
    rss_mb,
    current_rss_mb,
)
from repro.obs.timeline import run_telemetry, timeline

__all__ = [
    "timeline",
    "run_telemetry",
    "Telemetry",
    "ReservoirTimer",
    "Span",
    "percentile",
    "percentiles",
    "rss_mb",
    "current_rss_mb",
    "chrome_trace",
    "write_chrome_trace",
    "metrics_jsonl",
    "metrics_records",
    "write_metrics_jsonl",
    "parse_metrics_jsonl",
    "validate_chrome_trace",
    "CampaignDashboard",
]
