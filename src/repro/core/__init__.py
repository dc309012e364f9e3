"""RTDS — the paper's contribution.

The algorithm, from the point of view of a site ``k`` (paper §4):

1. once, at system start: build the **PCS** (handled with
   :mod:`repro.routing` + :mod:`repro.spheres`);
2. on job arrival: **local test** (§5, :mod:`repro.core.local_test`);
3. if not guaranteed locally: **ACS construction** (§8,
   :mod:`repro.spheres.acs`);
4. **Trial-Mapping** by the Mapper (§9/§12, :mod:`repro.core.mapper`) with
   release/deadline **adjustment** (§12.2, :mod:`repro.core.adjustment`);
5. **validation** (§10, :mod:`repro.core.validation`) via maximum coupling;
6. **distributed execution** (§11: dispatch in :mod:`repro.core.rtds`,
   hosting in :mod:`repro.core.hosting`).

:class:`repro.core.rtds.RTDSSite` wires all of it to the simulator and is
the *initiator* of steps 2–6; what ``k`` does when another site's
initiator enrolls it — answer, lock, validate, commit or let go — is
:class:`repro.core.member.MemberSide`, and the loss-tolerant retransmission
of each ask→answer round is :mod:`repro.core.rounds`.
"""

from repro.core.config import RTDSConfig
from repro.core.trial_mapping import LogicalProcSpec, TrialMapping
from repro.core.mapper import build_trial_mapping
from repro.core.adjustment import AdjustmentResult, adjust_trial_mapping, schedule_sstar
from repro.core.validation import endorse_mapping, compute_permutation
from repro.core.local_test import local_guarantee_test
from repro.core.rtds import RTDSSite
from repro.core.events import JobOutcome, JobRecord

__all__ = [
    "RTDSConfig",
    "LogicalProcSpec",
    "TrialMapping",
    "build_trial_mapping",
    "AdjustmentResult",
    "adjust_trial_mapping",
    "schedule_sstar",
    "endorse_mapping",
    "compute_permutation",
    "local_guarantee_test",
    "RTDSSite",
    "JobOutcome",
    "JobRecord",
]
