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

The two users differ only in the RESULT message type.

What a site remembers of a job is only what it still owes: per *local*
task with a successor elsewhere, the destination sites and the message
size — written at commit, popped when the task completes, and the job's
entry with its last task. A site never holds the job's task graph.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple

from repro.sched.intervals import Reservation
from repro.simnet.message import Message
from repro.types import JobId, SiteId, TaskId, Time


class HostSide:
    """The §11 host side of one site (which owns ``plan`` and ``executor``)."""

    def __init__(self, site, result_mtype: str) -> None:
        self.site = site
        self.result_mtype = result_mtype
        #: job -> unfinished local task -> (RESULT size, destination sites)
        self.exec_info: Dict[JobId, Dict[TaskId, Tuple[float, List[SiteId]]]] = {}
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
        local = {r.task for r in slots}
        gates: Dict[Tuple[JobId, TaskId], Set[Tuple[str, JobId, TaskId]]] = {}
        for t in local:
            deps = set()
            for p in preds[t]:
                if host[p] == site.sid:
                    deps.add(("done", job, p))
                else:
                    deps.add(("result", job, p))
            if deps:
                gates[(job, t)] = deps
        site.plan.commit(slots)
        site.executor.notify_committed(slots, gates)
        # Who must hear of each local task's result: the other sites hosting
        # one of its successors, each once, in first-seen order.
        dests_of: Dict[TaskId, List[SiteId]] = {}
        for t, ps in preds.items():
            dest = host[t]
            if dest == site.sid:
                continue
            for p in ps:
                if p in local:
                    dests = dests_of.setdefault(p, [])
                    if dest not in dests:
                        dests.append(dest)
        if dests_of:
            self.exec_info[job] = {
                p: (max(1.0, volumes.get(p, 0.0)), dests) for p, dests in dests_of.items()
            }

    def _h_result(self, msg: Message) -> None:
        self.site.executor.deliver_token(("result", msg.payload["job"], msg.payload["task"]))

    def _on_task_complete(
        self, job: JobId, task: TaskId, time: Time, site: SiteId, spans: Sequence[Tuple[Time, Time]]
    ) -> None:
        forward = self.exec_info.get(job)
        if forward is None or task not in forward:
            return
        size, dests = forward.pop(task)
        if not forward:
            del self.exec_info[job]
        for dest in dests:
            self.site.send_to(dest, self.result_mtype, {"job": job, "task": task}, size=size)

    def _orphaned(self) -> List[Tuple[JobId, TaskId]]:
        """Forwarding entries of local tasks that are no longer unfinished:
        a completed task pops its own entry, so these belonged to tasks
        that were reaped (a job's other tasks may still be running)."""
        if not self.exec_info:
            return []
        unfinished = self.site.executor.is_unfinished
        return [
            (job, task)
            for job, owed in self.exec_info.items()
            for task in owed
            if not unfinished(job, task)
        ]

    def prune(self) -> None:
        """Forget what is owed for local tasks that will never complete."""
        for job, task in self._orphaned():
            owed = self.exec_info[job]
            del owed[task]
            if not owed:
                del self.exec_info[job]

    def leaks(self) -> List[str]:
        """Forwarding entries that outlived their local task."""
        return [
            f"exec_info of job {job} task {task!r} with no unfinished local record"
            for job, task in self._orphaned()
        ]
