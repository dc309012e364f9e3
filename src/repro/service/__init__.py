"""``repro.service`` — the long-lived admission frontend (E12).

The paper's protocol is *online*: jobs arrive at arbitrary sites at
arbitrary times. The batch runner compresses that into one
``run_experiment`` call; this package keeps the network **resident** and
feeds it an open-loop stream instead:

* :mod:`repro.service.resident` — :class:`ResidentSimulation`, a streaming
  facade over the runner's :class:`~repro.experiments.runner.ResidentNetwork`:
  feed jobs, advance simulated time, drain, audit leaks, fold metrics;
* :mod:`repro.service.admission` — :class:`AdmissionService`, the
  synchronous bounded intake: backpressure by pumping a full queue, load
  shedding, admission/rejection counters, graceful drain.

Identity contract: a stream of jobs pushed through the service produces
the **identical** schedule (and ``scalar_metrics``) as the same jobs
replayed as a batch through
:func:`~repro.experiments.runner.run_experiment` (``workload=``) — both
paths submit through ``ResidentNetwork.submit_spec``, and submissions
outrank message deliveries in the event heap, so incremental scheduling
cannot reorder them. The differential test layer pins this.
"""

from repro.service.admission import AdmissionService, ServiceStats
from repro.service.resident import ResidentSimulation

__all__ = ["ResidentSimulation", "AdmissionService", "ServiceStats"]
