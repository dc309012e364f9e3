"""RTDS protocol message types and payload schemas.

Message payloads are plain dicts (JSON-compatible) so their sizes can be
estimated realistically and traces stay readable. The asks (``ENROLL``,
``VALIDATE``, ``EXECUTE``, ``UNLOCK``) are handled by the member side
(:class:`repro.core.member.MemberSide`), the answers by the initiator
(:class:`repro.core.rtds.RTDSSite`), ``RESULT`` by the host side
(:class:`repro.core.hosting.HostSide`). Schema per type:

``SPHERE`` (tree broadcast envelope; §6 "local broadcast")
    ``targets``: remaining destination list, ``inner``: (mtype, payload).
``ENROLL`` (§8)
    ``job``, ``initiator``, ``members``: the PCS list so the receiver knows
    which pairwise distances to report. Hardened mode adds ``lease``: the
    lock lease the member should hold, sized by the initiator from the
    sphere's worst round trip.
``ENROLL_ACK``
    ``job``, ``site``, ``surplus``, ``busyness``, ``speed``,
    ``distances``: {member: delay} from the replier's routing table.
``ENROLL_REFUSE``
    ``job``, ``site`` (refuse mode only).
``VALIDATE`` (§10)
    ``job``, ``initiator``, ``procs``: per logical processor the list of
    ``(task, duration_c, release, deadline)`` — everything a site needs for
    the local-satisfiability test.
``VALIDATE_ACK``
    ``job``, ``site``, ``endorsed``: list of logical processor indices.
``EXECUTE`` (§11)
    ``job``, ``permutation``: {proc: site}, ``host``: {task: site},
    ``preds``: {task: [preds]}, ``succs``: {task: [succs]},
    ``deadline``: job deadline (metrics), code size is the message size.
``EXECUTE_ACK`` (hardening; only with ``RTDSConfig.ack_timeout`` set)
    ``job``, ``site`` — member confirms it processed EXECUTE, settling the
    initiator's EXECUTE round (:class:`repro.core.rounds.AckRound`).
``UNLOCK``
    ``job`` — rejection or non-involvement; receiver releases its lock.
``RESULT``
    ``job``, ``task`` — predecessor's output data for a remote successor.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

MSG_SPHERE = "SPHERE"
MSG_ENROLL = "ENROLL"
MSG_ENROLL_ACK = "ENROLL_ACK"
MSG_ENROLL_REFUSE = "ENROLL_REFUSE"
MSG_VALIDATE = "VALIDATE"
MSG_VALIDATE_ACK = "VALIDATE_ACK"
MSG_EXECUTE = "EXECUTE"
MSG_EXECUTE_ACK = "EXECUTE_ACK"
MSG_UNLOCK = "UNLOCK"
MSG_RESULT = "RESULT"

#: Message types a *locked* site may still process: everything belonging to
#: the session it is locked for, plus data-plane messages that do not touch
#: the plan. Job arrivals and foreign enrollments are deferred/refused.
LOCK_TRANSPARENT = {MSG_RESULT}


def enroll_payload(job: int, initiator: int, members: List[int]) -> Dict[str, Any]:
    return {"job": job, "initiator": initiator, "members": list(members)}


def enroll_ack_payload(
    job: int,
    site: int,
    surplus: float,
    busyness: float,
    speed: float,
    distances: Dict[int, float],
) -> Dict[str, Any]:
    return {
        "job": job,
        "site": site,
        "surplus": surplus,
        "busyness": busyness,
        "speed": speed,
        "distances": distances,
    }


def validate_payload(
    job: int,
    initiator: int,
    procs: Dict[int, List[Tuple[Any, float, float, float]]],
) -> Dict[str, Any]:
    return {"job": job, "initiator": initiator, "procs": procs}


def execute_payload(
    job: int,
    permutation: Dict[int, int],
    host: Dict[Any, int],
    preds: Dict[Any, List[Any]],
    succs: Dict[Any, List[Any]],
    deadline: float,
) -> Dict[str, Any]:
    return {
        "job": job,
        "permutation": permutation,
        "host": host,
        "preds": preds,
        "succs": succs,
        "deadline": deadline,
    }


def estimate_payload_entries(payload: Dict[str, Any]) -> float:
    """Rough size of a payload in abstract units (entries + nesting)."""
    size = 1.0
    for v in payload.values():
        if isinstance(v, dict):
            size += len(v)
        elif isinstance(v, (list, tuple)):
            size += len(v)
        else:
            size += 1
    return size
