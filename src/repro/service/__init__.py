"""``repro.service`` — the long-lived admission service (E12, E13).

The paper's protocol is *online*: jobs arrive at arbitrary sites at
arbitrary times. The batch runner compresses that into one
``run_experiment`` call; this package keeps the network **resident** and
feeds it an open-loop stream instead, in two layers:

* :class:`~repro.experiments.runner.ResidentNetwork` (the runner's) — a
  built, routed, live network both paths submit jobs through;
* :class:`~repro.service.resident.ResidentSimulation` — the service over
  it: a synchronous bounded intake (backpressure by pumping a full queue,
  load shedding, a degraded breaker, admission/rejection counters), the
  pump that feeds a batch and advances simulated time, the periodic
  hygiene pass, and the graceful drain.

Identity contract: a stream of jobs pushed through the service produces
the **identical** schedule (and ``scalar_metrics``) as the same jobs
replayed as a batch through
:func:`~repro.experiments.runner.run_experiment` (``workload=``) — both
paths submit through ``ResidentNetwork.submit_spec``, submissions
outrank message deliveries in the event heap, so incremental scheduling
cannot reorder them, and the hygiene pass only prunes settled history.
The differential test layer pins this.
"""

from repro.service.resident import ResidentSimulation, ServiceStats

__all__ = ["ResidentSimulation", "ServiceStats"]
