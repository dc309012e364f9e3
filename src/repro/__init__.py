"""repro — reproduction of *Real-Time Distributed Scheduling of Precedence
Graphs on Arbitrary Wide Networks* (Butelle, Hakem, Finta; IPPS 2007).

Public API map:

* :mod:`repro.core` — the RTDS algorithm: :class:`~repro.core.rtds.RTDSSite`
  (the site and its initiator flow; its member side is
  :class:`~repro.core.member.MemberSide`, reached as ``site.member``),
  the Mapper, adjustment, validation, Computing-Sphere protocol;
* :mod:`repro.graphs` — job DAGs and generators;
* :mod:`repro.simnet` — the deterministic discrete-event network simulator;
* :mod:`repro.routing` — the interrupted distributed Bellman–Ford (§7);
* :mod:`repro.sched` — per-site local scheduling substrate;
* :mod:`repro.baselines` — local-only / centralized / focused-addressing /
  random-offload comparators;
* :mod:`repro.workloads`, :mod:`repro.metrics`, :mod:`repro.experiments` —
  sporadic workload generation (synthetic mixes and trace-driven workflow
  streams, :mod:`repro.workloads.traces`), measurement, and the E1–E11
  harness, including the parallel campaign runtime with its resumable
  result store (:mod:`repro.experiments.parallel`);
* :mod:`repro.faults` — fault injection (link/site outages, message loss,
  delay jitter) with deterministic seeded churn;
* :mod:`repro.viz` — ASCII Gantt/DAG rendering.

Quickstart::

    from repro import ExperimentConfig, run_experiment
    res = run_experiment(ExperimentConfig(algorithm="rtds", rho=0.5, seed=1))
    print(res.summary.row())
"""

from repro.core.config import RTDSConfig
from repro.core.events import JobOutcome, JobRecord
from repro.core.rtds import RTDSSite
from repro.experiments.runner import ExperimentConfig, RunResult, run_experiment
from repro.faults import FaultInjector, FaultPlan
from repro.graphs.dag import Dag, Task
from repro.metrics.collector import MetricsCollector
from repro.simnet.engine import Simulator
from repro.simnet.network import Network
from repro.simnet.topology import Topology, topology_factory

__version__ = "1.0.0"

__all__ = [
    "RTDSConfig",
    "RTDSSite",
    "JobOutcome",
    "JobRecord",
    "ExperimentConfig",
    "RunResult",
    "run_experiment",
    "FaultInjector",
    "FaultPlan",
    "Dag",
    "Task",
    "MetricsCollector",
    "Simulator",
    "Network",
    "Topology",
    "topology_factory",
    "__version__",
]
