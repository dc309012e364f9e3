"""Telemetry exporters: Chrome trace-event JSON and flat metrics JSONL.

Two output formats, both produced from one :class:`~repro.obs.telemetry.Telemetry`
(for a run, the one :func:`repro.obs.run_telemetry` reads off its trace):

* :func:`chrome_trace` — the Chrome/Perfetto trace-event format
  (``{"traceEvents": [...]}``). Every closed sim-time span becomes one
  complete ("X") event; sites map to Perfetto *threads* (one lane per
  site, named by metadata events), so a paper run renders as a per-site
  timeline of enroll/validate/execute phases. Simulated time maps to
  microseconds 1:1 (the viewer only needs ordering and proportion).
  ``load <file>`` in https://ui.perfetto.dev or ``chrome://tracing``.
* :func:`metrics_jsonl` — one flat JSON object per line: every counter,
  gauge and timer summary (count/mean/min/max/p50/p95/p99) with a ``kind``
  discriminator. Greppable, ``jq``-able, diffable; the ``rtds stats``
  command renders the same records as a table.

:func:`validate_chrome_trace` is the schema check the CI telemetry smoke
runs — it asserts the structural invariants the viewers rely on, not just
well-formed JSON.
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict, Iterable, List

from repro.obs.telemetry import Telemetry

__all__ = [
    "chrome_trace",
    "metrics_jsonl",
    "validate_chrome_trace",
    "parse_metrics_jsonl",
]

#: sim-time unit -> trace microseconds. 1:1 keeps durations readable
#: (a 3.0-time-unit validate phase shows as 3 us) and exact for floats.
_US_PER_UNIT = 1.0

#: Perfetto orders lanes by tid; the control lane (spans with no site)
#: sorts after every real site.
_CONTROL_TID = 10_000_000


def _span_events(obs: Telemetry, pid: int = 1) -> List[Dict[str, Any]]:
    """Spans -> "X" (complete) trace events, one lane per site."""
    events: List[Dict[str, Any]] = []
    seen_tids: Dict[int, str] = {}
    for span in obs.spans:
        tid = _CONTROL_TID if span.site is None else int(span.site)
        seen_tids.setdefault(
            tid, "control" if span.site is None else f"site {span.site}"
        )
        args: Dict[str, Any] = {"ok": span.ok}
        if span.key is not None:
            args["key"] = span.key
        if span.labels:
            args.update(span.labels)
        events.append(
            {
                "name": span.category,
                "cat": span.category.split(".", 1)[0],
                "ph": "X",
                "ts": span.t0 * _US_PER_UNIT,
                "dur": span.duration * _US_PER_UNIT,
                "pid": pid,
                "tid": tid,
                "args": args,
            }
        )
    # thread-name metadata events give the lanes human names in the viewer
    meta = [
        {
            "name": "thread_name",
            "ph": "M",
            "pid": pid,
            "tid": tid,
            "args": {"name": label},
        }
        for tid, label in sorted(seen_tids.items())
    ]
    return meta + events


def _counter_events(obs: Telemetry, pid: int = 1) -> List[Dict[str, Any]]:
    """Final counter values as end-of-trace "C" events (viewer tracks)."""
    if not obs.counters:
        return []
    t_end = max((s.t1 for s in obs.spans), default=0.0) * _US_PER_UNIT
    return [
        {
            "name": name,
            "ph": "C",
            "ts": t_end,
            "pid": pid,
            "args": {name: value},
        }
        for name, value in sorted(obs.counters.items())
    ]


def chrome_trace(obs: Telemetry, pid: int = 1) -> Dict[str, Any]:
    """The full trace-event document for one run (JSON-serialisable)."""
    return {
        "traceEvents": _span_events(obs, pid) + _counter_events(obs, pid),
        "displayTimeUnit": "ms",
        "otherData": {
            "producer": "repro.obs",
            "spans": len(obs.spans),
        },
    }


def write_chrome_trace(obs: Telemetry, path: str, pid: int = 1) -> int:
    """Write :func:`chrome_trace` to ``path``; returns the event count."""
    doc = chrome_trace(obs, pid)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return len(doc["traceEvents"])


def _finite(value: float) -> Any:
    """NaN/inf -> None (JSON has no NaN; empty-stream stats serialise null)."""
    return value if math.isfinite(value) else None


def metrics_records(obs: Telemetry) -> List[Dict[str, Any]]:
    """Flat records for every counter, gauge and timer (sorted by name)."""
    records: List[Dict[str, Any]] = []
    for name, value in sorted(obs.counters.items()):
        records.append({"kind": "counter", "name": name, "value": value})
    for name, value in sorted(obs.gauges.items()):
        records.append({"kind": "gauge", "name": name, "value": _finite(value)})
    for name, timer in sorted(obs.timers.items()):
        rec: Dict[str, Any] = {"kind": "timer", "name": name}
        rec.update({k: _finite(v) for k, v in timer.summary().items()})
        rec["count"] = timer.count  # keep the count an int, not a float
        records.append(rec)
    return records


def metrics_jsonl(obs: Telemetry) -> str:
    """The metrics stream as JSONL text (one record per line)."""
    return "".join(
        json.dumps(rec, sort_keys=True) + "\n" for rec in metrics_records(obs)
    )


def write_metrics_jsonl(obs: Telemetry, path: str) -> int:
    """Write :func:`metrics_jsonl` to ``path``; returns the record count."""
    text = metrics_jsonl(obs)
    with open(path, "w") as fh:
        fh.write(text)
    return text.count("\n")


def parse_metrics_jsonl(lines: Iterable[str]) -> List[Dict[str, Any]]:
    """Parse a metrics JSONL stream back to records (blank-line tolerant)."""
    records = []
    for line in lines:
        line = line.strip()
        if line:
            records.append(json.loads(line))
    return records


def validate_chrome_trace(doc: Dict[str, Any]) -> List[str]:
    """Structural check of a trace document; returns problems (empty = ok).

    Asserts the invariants Perfetto/chrome relies on: a ``traceEvents``
    list; every event carries ``name``/``ph``/``pid``; "X" events carry
    numeric non-negative ``ts`` and ``dur``; metadata events name their
    threads. The CI smoke fails on any returned problem.
    """
    problems: List[str] = []
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents missing or not a list"]
    if not events:
        problems.append("traceEvents is empty")
    for i, ev in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            problems.append(f"{where}: not an object")
            continue
        for field in ("name", "ph", "pid"):
            if field not in ev:
                problems.append(f"{where}: missing {field!r}")
        ph = ev.get("ph")
        if ph == "X":
            for field in ("ts", "dur", "tid"):
                value = ev.get(field)
                if not isinstance(value, (int, float)) or value < 0:
                    problems.append(f"{where}: bad {field!r}={value!r}")
        elif ph == "M":
            if not ev.get("args", {}).get("name"):
                problems.append(f"{where}: metadata event without args.name")
        elif ph == "C":
            if not isinstance(ev.get("args"), dict):
                problems.append(f"{where}: counter event without args")
        elif ph is not None:
            problems.append(f"{where}: unsupported phase {ph!r}")
    return problems
