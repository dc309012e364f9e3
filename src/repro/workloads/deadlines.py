"""Deadline assignment.

The canonical model of the literature the paper builds on (Ramamritham &
Stankovic; Cheng et al.): a job's relative deadline is its ideal execution
time scaled by a *laxity factor* — ``d = arrival + laxity_factor × CP``,
where CP is the critical path length (the minimum possible makespan on
unit-speed processors with free communication). ``laxity_factor`` close to
1 means tight deadlines (little room to distribute); large factors make
almost everything feasible somewhere.
"""

from __future__ import annotations

import numpy as np

from repro.errors import WorkloadError
from repro.graphs.dag import Dag
from repro.types import Time


def assign_deadline(
    dag: Dag,
    arrival: Time,
    laxity_factor: float,
    rng: np.random.Generator | None = None,
    jitter: float = 0.0,
    reference_speed: float = 1.0,
) -> Time:
    """Absolute deadline for ``dag`` arriving at ``arrival``.

    ``jitter`` optionally randomises the factor uniformly in
    ``[factor·(1-jitter), factor·(1+jitter)]`` so deadlines are not all
    proportional (exercises different adjustment cases).

    ``reference_speed`` is the computing power the critical path is
    normalised against. The default 1.0 is the literature's model —
    deadlines come from the *application*, calibrated to a nominal
    processor, and do not loosen because a job happened to arrive on a
    slow site (that asymmetry is exactly what E11 measures). Pass an
    explicit speed to anchor deadlines to a different nominal machine
    (e.g. the network's slowest tier in a feasibility study).
    """
    if laxity_factor <= 0:
        raise WorkloadError(f"laxity_factor must be > 0, got {laxity_factor}")
    if not 0.0 <= jitter < 1.0:
        raise WorkloadError(f"jitter must be in [0, 1), got {jitter}")
    if reference_speed <= 0:
        raise WorkloadError(f"reference_speed must be > 0, got {reference_speed}")
    factor = laxity_factor
    if jitter > 0:
        if rng is None:
            raise WorkloadError("jitter needs an rng")
        factor *= float(rng.uniform(1.0 - jitter, 1.0 + jitter))
    cp = dag.critical_path_length() / reference_speed
    return arrival + factor * cp
