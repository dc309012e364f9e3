"""Sporadic workload generation.

The paper's workload model: jobs (DAGs with deadlines) "arrive at any time
on any site and compete for the computational resources". This package
generates such workloads deterministically:

* :mod:`repro.workloads.jobs` — :class:`JobSpec` (dag, origin, arrival,
  deadline) and the workload container;
* :mod:`repro.workloads.arrivals` — per-site Poisson arrival processes;
* :mod:`repro.workloads.deadlines` — deadline assignment via laxity factor
  × ideal critical path (the standard model in the cited literature);
* :mod:`repro.workloads.load` — offered-load calibration (arrival rate ↔
  fraction of aggregate computing capacity);
* :mod:`repro.workloads.scenarios` — named mixed-DAG scenario builders used
  by examples and benches;
* :mod:`repro.workloads.traces` — trace-driven workflow streams (Montage /
  Epigenomics shapes with empirical per-task-type runtimes, E11);
* :mod:`repro.workloads.openloop` — open-loop (rate × duration) job
  streams over the Poisson / MMPP / diurnal arrival processes, feeding the
  admission service and the E12 soak.
"""

from repro.workloads.jobs import JobSpec, Workload
from repro.workloads.arrivals import (
    DiurnalProcess,
    MMPPProcess,
    PoissonProcess,
    parse_arrival_spec,
    poisson_arrivals,
)
from repro.workloads.openloop import (
    OpenLoopSpec,
    open_loop_jobs,
    open_loop_rate,
)
from repro.workloads.deadlines import assign_deadline
from repro.workloads.load import calibrate_rate
from repro.workloads.scenarios import WorkloadSpec, generate_workload, mixed_dag_factory
from repro.workloads.traces import trace_dag_factory, trace_names

__all__ = [
    "JobSpec",
    "Workload",
    "poisson_arrivals",
    "PoissonProcess",
    "MMPPProcess",
    "DiurnalProcess",
    "parse_arrival_spec",
    "OpenLoopSpec",
    "open_loop_jobs",
    "open_loop_rate",
    "assign_deadline",
    "calibrate_rate",
    "WorkloadSpec",
    "generate_workload",
    "mixed_dag_factory",
    "trace_dag_factory",
    "trace_names",
]
