"""Local scheduling substrate.

Every site owns a *scheduling plan* — the set of tasks it has already
guaranteed, laid out on its (single) compute processor as non-overlapping
reservations. The paper's protocol needs four operations on it:

1. the **local test** (§5): can a whole DAG be inserted "in-between tasks
   already accepted" before its deadline?
2. the **surplus** (§2): idle fraction of an observation window;
3. **validation** (§10): is a task set ``T_i`` with per-task release/deadline
   windows *locally satisfiable*?
4. **insertion** (§11): commit the reservations of an endorsed task set.

Modules:

* :mod:`repro.sched.intervals` — busy-interval timeline with earliest-fit
  queries (the core data structure, O(log n) lookup + O(n) insert);
* :mod:`repro.sched.plan` — the plan object (timeline + job bookkeeping +
  surplus);
* :mod:`repro.sched.feasibility` — the non-preemptive local test (the
  §10 window test runs in :mod:`repro.core.validation`);
* :mod:`repro.sched.preemptive` — preemptive-EDF variant (paper §13);
* :mod:`repro.sched.matching` — maximum bipartite matching (Hopcroft–Karp)
  for the validation "coupling";
* :mod:`repro.sched.executor` — the compute processor: runs reservations,
  tracks readiness (code + predecessor results), records lateness.
"""

from repro.sched.intervals import BusyTimeline, Reservation
from repro.sched.plan import SchedulingPlan
from repro.sched.feasibility import WindowTask, try_schedule_dag_locally
from repro.sched.preemptive import preemptive_chunks
from repro.sched.matching import hopcroft_karp, maximum_matching_bruteforce

__all__ = [
    "BusyTimeline",
    "Reservation",
    "SchedulingPlan",
    "WindowTask",
    "try_schedule_dag_locally",
    "preemptive_chunks",
    "hopcroft_karp",
    "maximum_matching_bruteforce",
]
