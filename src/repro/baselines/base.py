"""Shared machinery of baseline scheduler sites.

Every baseline site owns the same substrate an RTDS site does — a
scheduling plan, a compute-processor executor, the phased Bellman–Ford for
routing — so comparisons isolate the *policy*, not the infrastructure.
Baselines run the routing protocol long enough to cover the whole network
(they need arbitrary-destination routing; the experiment runner passes the
network's hop diameter), which is itself part of the contrast with RTDS's
2h-bounded flooding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.core.local_test import local_guarantee_test
from repro.core.substrate import SchedulerSite
from repro.graphs.dag import Dag
from repro.graphs.serialization import dag_from_dict, dag_to_dict
from repro.types import JobId, SiteId, Time


@dataclass
class BaselineJobCtx:
    """A job in flight inside a baseline protocol."""

    job: JobId
    dag: Dag
    deadline: Time
    arrival: Time
    origin: SiteId


class BaselineSite(SchedulerSite):
    """A baseline policy on the shared substrate (:mod:`repro.core.substrate`)."""

    def try_commit_whole_dag(self, ctx: BaselineJobCtx) -> bool:
        """Local test + commit of the entire DAG on this site."""
        fit = local_guarantee_test(
            self.plan.timeline,
            ctx.dag,
            ctx.job,
            release=self.now,
            deadline=ctx.deadline,
            now=self.now,
            speed=self.speed,
        )
        if fit is None:
            return False
        slots, gates = fit
        self.plan.commit(slots)
        self.executor.notify_committed(slots, gates)
        return True

    # -- wire helpers for shipping DAGs around ----------------------------------

    @staticmethod
    def pack_ctx(ctx: BaselineJobCtx) -> Dict:
        return {
            "job": ctx.job,
            "dag": dag_to_dict(ctx.dag),
            "deadline": ctx.deadline,
            "arrival": ctx.arrival,
            "origin": ctx.origin,
        }

    @staticmethod
    def unpack_ctx(payload: Dict) -> BaselineJobCtx:
        return BaselineJobCtx(
            job=payload["job"],
            dag=dag_from_dict(payload["dag"]),
            deadline=payload["deadline"],
            arrival=payload["arrival"],
            origin=payload["origin"],
        )
