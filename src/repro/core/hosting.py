"""§11 host side: what a site does with its share of a distributed job.

Whoever decided the placement — an RTDS initiator's EXECUTE or the
centralized coordinator's EXEC_ASSIGN — the hosting site does the same
three things, and :class:`HostSide` is their one implementation:

* **commit** its reservations with a *gate* per task: a ``("done", job,
  p)`` token for every predecessor hosted here, a ``("result", job, p)``
  token for every predecessor hosted elsewhere
  (:mod:`repro.sched.executor` holds a task until its gate is open);
* **forward** a RESULT message to every other site hosting a successor
  when one of its tasks completes (sized by the task's data volume);
* **deliver** the token when such a RESULT arrives.

The two users differ only in the RESULT message type and in whether
results are forwarded at all (``RTDSConfig.result_forwarding``; off, no
RESULT is sent and no task waits for one).
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.sched.intervals import Reservation
from repro.simnet.message import Message
from repro.types import JobId, SiteId, TaskId, Time


class HostSide:
    """The §11 host side of one site (which owns ``plan`` and ``executor``)."""

    def __init__(self, site, result_mtype: str, result_forwarding: bool = True) -> None:
        self.site = site
        self.result_mtype = result_mtype
        self.result_forwarding = result_forwarding
        #: job -> (host, succs, volumes) for RESULT forwarding
        self.exec_info: Dict[JobId, Tuple[Dict, Dict, Dict]] = {}
        site.executor.on_complete.append(self._on_task_complete)
        site.on(result_mtype, self._h_result)

    def commit(
        self,
        job: JobId,
        slots: List[Reservation],
        host: Dict[TaskId, SiteId],
        preds: Dict[TaskId, List[TaskId]],
        volumes: Dict[TaskId, float],
    ) -> None:
        """Commit this site's ``slots`` of ``job``, gated on its predecessors."""
        site = self.site
        gates: Dict[Tuple[JobId, TaskId], Set[Tuple[str, JobId, TaskId]]] = {}
        for t in {r.task for r in slots}:
            deps = set()
            for p in preds[t]:
                if host[p] == site.sid:
                    deps.add(("done", job, p))
                elif self.result_forwarding:
                    deps.add(("result", job, p))
            if deps:
                gates[(job, t)] = deps
        site.plan.commit(slots)
        site.executor.notify_committed(slots, gates)
        # Remember topology of the job for result forwarding.
        succs: Dict[TaskId, List[TaskId]] = {t: [] for t in host}
        for t, ps in preds.items():
            for p in ps:
                succs[p].append(t)
        self.exec_info[job] = (host, succs, volumes)

    def _h_result(self, msg: Message) -> None:
        self.site.executor.deliver_token(("result", msg.payload["job"], msg.payload["task"]))

    def _on_task_complete(self, job: JobId, task: TaskId, time: Time) -> None:
        info = self.exec_info.get(job)
        if info is None or not self.result_forwarding:
            return
        host, succs, volumes = info
        site = self.site
        notified: Set[SiteId] = set()
        for succ in succs.get(task, ()):
            dest = host[succ]
            if dest != site.sid and dest not in notified:
                notified.add(dest)
                site.send_to(
                    dest,
                    self.result_mtype,
                    {"job": job, "task": task},
                    size=max(1.0, volumes.get(task, 0.0)),
                )

    def prune(self, live_jobs: Set[JobId]) -> None:
        """Forget forwarding info of jobs with no local task left."""
        for job in list(self.exec_info):
            if job not in live_jobs:
                del self.exec_info[job]
