"""Experiment harness.

* :mod:`repro.experiments.runner` — one entry point
  (:func:`run_experiment`) that builds topology + sites + workload from a
  declarative :class:`ExperimentConfig`, runs the simulation in two phases
  (setup/routing, then workload) and returns summaries;
* :mod:`repro.experiments.parallel` — the campaign runtime:
  content-addressed cell keys, serial/pool executor strategies, and the
  resumable on-disk JSONL result store;
* :mod:`repro.experiments.campaign` — the row-table function every sweep
  is declared over (:func:`~repro.experiments.campaign.sweep_table`: one
  pass through the parallel runtime, replicate confidence intervals), the
  paired per-seed comparison of two rows
  (:func:`~repro.experiments.campaign.paired_difference`) and the E7 fault
  sweep (:func:`sweep_fault_plans`);
* :mod:`repro.experiments.paper_example` — exact regeneration of the
  paper's worked example (Figs 2–4, Table 1) and a Figure-1-style protocol
  trace;
* :mod:`repro.experiments.evaluation` — the E1–E5 sweep drivers used by
  the benchmark files;
* :mod:`repro.experiments.widenet` — the E10 wide-network scale-out
  campaign (256-1024+ sites over geometric and scale-free topologies,
  oracle routing back end);
* :mod:`repro.experiments.hetero` — the E11 heterogeneity campaign
  (per-site speed profiles × trace-driven workflow workloads);
* :mod:`repro.experiments.soak` — the E12 long-lived admission soak:
  an open-loop stream through one resident network via the admission
  service (:mod:`repro.service`), with throughput / interval-latency /
  memory-flatness trajectory sampling;
* :mod:`repro.experiments.reporting` — plain-text tables.
"""

from repro.experiments.campaign import paired_difference, sweep_fault_plans
from repro.experiments.parallel import (
    CampaignStore,
    CellResult,
    PoolExecutor,
    ResultStore,
    SerialExecutor,
    cell_key,
    make_executor,
    run_cell,
    run_cells,
)
from repro.experiments.runner import (
    ExperimentConfig,
    ResidentNetwork,
    RunResult,
    build_resident,
    run_experiment,
)
from repro.experiments.soak import SoakConfig, SoakReport, SoakSample, run_soak
from repro.experiments.verify import verify_execution
from repro.experiments.paper_example import (
    PAPER_DEADLINE,
    PAPER_OMEGA,
    PAPER_SURPLUSES,
    paper_example_adjusted,
    paper_example_trial_mapping,
    run_fig1_scenario,
    table1_rows,
)
from repro.experiments.reporting import format_table
from repro.experiments.widenet import (
    E10_KINDS,
    E10_SIZES,
    sweep_widenet,
    widenet_config,
)
from repro.experiments.hetero import (
    E11_SPEEDS,
    E11_WORKLOADS,
    hetero_config,
    sweep_hetero,
)

__all__ = [
    "paired_difference",
    "sweep_fault_plans",
    "CampaignStore",
    "CellResult",
    "PoolExecutor",
    "ResultStore",
    "SerialExecutor",
    "cell_key",
    "make_executor",
    "run_cell",
    "run_cells",
    "ExperimentConfig",
    "ResidentNetwork",
    "RunResult",
    "build_resident",
    "run_experiment",
    "SoakConfig",
    "SoakReport",
    "SoakSample",
    "run_soak",
    "verify_execution",
    "E10_KINDS",
    "E10_SIZES",
    "sweep_widenet",
    "widenet_config",
    "E11_SPEEDS",
    "E11_WORKLOADS",
    "hetero_config",
    "sweep_hetero",
    "PAPER_DEADLINE",
    "PAPER_OMEGA",
    "PAPER_SURPLUSES",
    "paper_example_adjusted",
    "paper_example_trial_mapping",
    "run_fig1_scenario",
    "table1_rows",
    "format_table",
]
