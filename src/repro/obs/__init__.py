"""``repro.obs`` — zero-cost-when-off telemetry for the whole stack.

The observability layer the scale roadmap items lean on: counters, gauges,
reservoir/percentile timers (p50/p95/p99) and simulated-time **spans** for
the protocol phases (enroll, map, validate, execute, retransmission),
plus exporters (Chrome trace-event JSON, flat metrics JSONL) and the live
campaign dashboard.

The contract, in order of importance:

1. **Off is invisible.** ``ExperimentConfig(telemetry=False)`` — the
   default — must leave every identity golden byte-identical. Hot paths
   guard on plain boolean mirrors (``obs_on``) exactly like the tracer's
   ``trace_on``; the shared :data:`NULL_TELEMETRY` never mutates state.
2. **On is cheap.** <10% macro throughput overhead, gated by
   ``benchmarks/bench_e9_hotpath.py --check`` (``macro_obs`` against
   the same run's ``macro``; the e2e harness always runs with telemetry
   off, so it cannot hold this contract).
3. **On is deterministic.** Reservoir RNGs are locally seeded; a
   fixed-seed run reports bit-identical percentiles, and telemetry never
   feeds back into simulation behaviour.

Entry points: ``ExperimentConfig(telemetry=True)``, ``rtds trace``,
``rtds stats``, ``rtds profile --backend telemetry``. See DESIGN.md
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
    NULL_TELEMETRY,
    ReservoirTimer,
    Span,
    Telemetry,
    percentile,
    percentiles,
    rss_mb,
    current_rss_mb,
)

__all__ = [
    "Telemetry",
    "NULL_TELEMETRY",
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
