"""RTDS algorithm configuration.

One frozen dataclass carries every tunable of the algorithm, so experiments
are fully described by (topology, workload, :class:`RTDSConfig`, seed). The
defaults follow the paper's base algorithm; the fields marked *§13* switch
on the generalizations it discusses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigError


@dataclass(frozen=True)
class RTDSConfig:
    """Tunables of the RTDS protocol.

    Attributes
    ----------
    h:
        Hop radius of the Potential Computing Sphere. PCS construction runs
        the phased Bellman–Ford for ``2h`` phases (§7.2).
    surplus_window:
        Observation window ``W`` of the surplus measure (§2).
    enroll_mode:
        ``"refuse"`` (default): a locked site answers enrollment with an
        explicit busy-refusal, so the initiator's collection terminates
        deterministically. ``"queue"``: the literal reading of §8 — the
        enrollment message is held until unlock; the initiator then needs
        ``enroll_timeout``.
    enroll_timeout:
        Queue-mode collection timeout, as a fraction of the job's remaining
        laxity (``None`` → 0.25).
    max_acs_size:
        If set, the initiator enrolls only the closest ``max_acs_size`` PCS
        members (the paper leaves ACS sizing open; bounding it trades
        acceptance for messages — ablation E5).
    validation_preemptive:
        §13 "Preemptive Case": local satisfiability and insertion use the
        preemptive-EDF scheduler instead of non-preemptive insertion.
    laxity_mode:
        §13 "Laxity Dispatching": ``"uniform"`` (eq. (4)'s ℓ = slack/η) or
        ``"busyness"`` (tasks on busier processors receive more laxity).
    local_knowledge:
        §13 "Local knowledge of k": the Mapper schedules k's own logical
        processor against k's *actual idle intervals* instead of its
        surplus.
    protocol_margin_factor:
        The §13 release augmentation: the Trial-Mapping's job release is
        ``now + factor × (delay radius of the ACS from k)``, covering
        validation round-trip + code dispatch. The Mapper itself runs
        inline, in zero simulated time.
    volume_aware_omega:
        §13 "Communication Delays": when links model finite throughput, the
        Mapper's ω over-estimate is augmented by ``max task data volume /
        min adjacent throughput`` (and the release margin by the task-code
        transfer time), so result transfers still fit inside the adjusted
        windows. Disable to measure the §13 motivation: without it, the
        pure propagation-delay model under-estimates transfers and accepted
        jobs start slipping.
    ack_timeout:
        Protocol hardening (DESIGN.md "Fault model"): grace beyond the
        sphere's physical round trip (propagation + §13 transfer time +
        management overhead, computed by the initiator) that an
        ENROLL_ACK / VALIDATE_ACK / EXECUTE_ACK round may take before
        retransmitting to the silent members. ``None`` (default) = the
        paper's loss-less model — wait forever, zero behaviour change.
        Required whenever a nonzero :class:`~repro.faults.plan.FaultPlan`
        is installed. In ``queue`` enroll mode the enrollment round keeps
        the queue-mode deadline-fraction timer instead (deferral is
        intentional there, not death); VALIDATE/EXECUTE hardening applies
        in both modes.
    ack_retries:
        Retransmissions per hardened phase before degrading: silent
        enrollees are treated as refusals, silent validators as empty
        endorsements, unreachable executors as lost members. A hardened
        initiator also ships a lock lease in ENROLL, sized from the
        sphere's worst round trip, which only it knows: the member
        releases its lock unilaterally after that long without contact
        from the initiator (VALIDATE/EXECUTE/UNLOCK all renew or settle
        it).
    """

    h: int = 2
    surplus_window: float = 200.0
    enroll_mode: str = "refuse"
    enroll_timeout: Optional[float] = None
    max_acs_size: Optional[int] = None
    validation_preemptive: bool = False
    laxity_mode: str = "uniform"
    local_knowledge: bool = False
    protocol_margin_factor: float = 3.0
    volume_aware_omega: bool = True
    #: §10 insertion order for local satisfiability: "edf" or "llf"
    validation_order: str = "edf"
    ack_timeout: Optional[float] = None
    ack_retries: int = 1

    def __post_init__(self) -> None:
        if self.h < 1:
            raise ConfigError(f"h must be >= 1, got {self.h}")
        if self.surplus_window <= 0:
            raise ConfigError(f"surplus_window must be > 0, got {self.surplus_window}")
        if self.enroll_mode not in ("refuse", "queue"):
            raise ConfigError(f"enroll_mode must be 'refuse' or 'queue', got {self.enroll_mode!r}")
        if self.enroll_timeout is not None and not 0 < self.enroll_timeout <= 1:
            raise ConfigError(
                f"enroll_timeout must be in (0, 1] (fraction of laxity), got {self.enroll_timeout}"
            )
        if self.max_acs_size is not None and self.max_acs_size < 1:
            raise ConfigError(f"max_acs_size must be >= 1, got {self.max_acs_size}")
        if self.laxity_mode not in ("uniform", "busyness"):
            raise ConfigError(f"laxity_mode must be 'uniform' or 'busyness', got {self.laxity_mode!r}")
        if self.protocol_margin_factor < 0:
            raise ConfigError(
                f"protocol_margin_factor must be >= 0, got {self.protocol_margin_factor}"
            )
        if self.validation_order not in ("edf", "llf"):
            raise ConfigError(
                f"validation_order must be 'edf' or 'llf', got {self.validation_order!r}"
            )
        if self.ack_timeout is not None and self.ack_timeout <= 0:
            raise ConfigError(f"ack_timeout must be > 0, got {self.ack_timeout}")
        if self.ack_retries < 0:
            raise ConfigError(f"ack_retries must be >= 0, got {self.ack_retries}")

    @property
    def hardened(self) -> bool:
        """True when the loss-tolerant protocol extensions are active."""
        return self.ack_timeout is not None

    @property
    def pcs_phases(self) -> int:
        """Total Bellman–Ford phases: the paper's 2h (§7.2)."""
        return 2 * self.h
