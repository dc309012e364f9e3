"""ASCII visualisation: Gantt charts (Figs 3/4) and DAG sketches (Fig 2).

What a finished run actually executed is read from
``res.collector.records()`` or rendered per site by ``rtds trace``."""

from repro.viz.gantt import render_gantt
from repro.viz.dagviz import render_dag

__all__ = [
    "render_gantt",
    "render_dag",
]
