"""RTDS protocol message types and payload schemas.

Message payloads are plain dicts built inline at each send site, which
also sets the message ``size``; traces stay readable. The asks
(``ENROLL``, ``VALIDATE``, ``EXECUTE``, ``UNLOCK``) are handled by the
member side (:class:`repro.core.member.MemberSide`), the answers by the
initiator (:class:`repro.core.rtds.RTDSSite`), ``RESULT`` by the host side
(:class:`repro.core.hosting.HostSide`). Schema per type, as sent on the
wire (``tests/core/test_messages.py`` checks it against a live run):

``SPHERE`` (tree broadcast envelope; §6 "local broadcast")
    ``targets``: the destinations left below this hop, ``inner_mtype``,
    ``inner_payload``: the wrapped message, ``origin``: the broadcasting
    site (what the targets see as the sender).
``ENROLL`` (§8)
    ``job``, ``initiator``, ``members``: the sorted asked ACS plus the
    initiator, so the receiver knows which pairwise distances to report.
    Hardened mode adds ``lease``: the lock lease the member should hold,
    sized by the initiator from the sphere's worst round trip.
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
    ``volumes``: {task: output data volume} (sizes the RESULT messages),
    ``deadline``: job deadline (metrics); code size is the message size.
``EXECUTE_ACK`` (hardening; only with ``RTDSConfig.ack_timeout`` set)
    ``job``, ``site`` — member confirms it processed EXECUTE, settling the
    initiator's EXECUTE round (:class:`repro.core.rounds.AckRound`).
``UNLOCK``
    ``job`` — rejection or non-involvement; receiver releases its lock.
``RESULT``
    ``job``, ``task`` — predecessor's output data for a remote successor.
"""

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
