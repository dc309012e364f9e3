"""The declarative fault plan.

A :class:`FaultPlan` describes *what goes wrong and when*, independent of
any particular network instance:

* :class:`LinkDownWindow` — a link is severed during ``[start, end)``;
* :class:`SiteDownWindow` — a site is partitioned from the network during
  ``[start, end)`` (fail-silent: every message to or from it is lost, and
  jobs arriving on it are dropped; local timers and the compute processor
  keep running, modelling a network partition rather than a power cut);
* ``loss_prob`` / ``link_loss`` — i.i.d. per-transmission message loss,
  globally or per link;
* ``delay_jitter`` — extra uniform ``[0, jitter]`` delay per transmission
  (the link's FIFO clamp still preserves the order-preserving assumption);
* :class:`ChurnSpec` — random down/up windows generated at arm time from
  the plan's seed, so campaigns can say "≈6 link flaps over the run"
  without enumerating them;
* :class:`JoinSpec` / :class:`SiteJoinEvent` — membership *growth*: sites
  that join the network mid-run (the PR-8 survivability layer). A join
  wires a latent site into the live topology and triggers the incremental
  routing repair of :mod:`repro.membership`. Joins are expanded from a
  separate RNG stream than churn, so adding ``joins=K`` to an existing
  plan never reshuffles its churn windows.

All window times are **relative to workload start** (the experiment runner
arms the injector after the routing/setup phase), so PCS construction and
routing always complete on the pristine network — faults stress the
*protocol*, not the bootstrap.

The plan is a frozen dataclass: hashable up to its tuple fields, safe to
share across replicated campaign runs. ``FaultPlan.is_zero()`` is the
contract the injector relies on: a zero plan must never perturb a run.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

from repro.errors import ConfigError
from repro.types import SiteId, Time


@dataclass(frozen=True)
class LinkDownWindow:
    """Link ``u <-> v`` is down during ``[start, end)``."""

    u: SiteId
    v: SiteId
    start: Time
    end: Time

    def __post_init__(self) -> None:
        if self.u == self.v:
            raise ConfigError(f"link window on self-loop ({self.u},{self.v})")
        if self.start < 0 or self.end <= self.start:
            raise ConfigError(
                f"link window ({self.u},{self.v}) needs 0 <= start < end, "
                f"got [{self.start}, {self.end})"
            )
        if self.u > self.v:  # canonical order, like Link.key
            u, v = self.v, self.u
            object.__setattr__(self, "u", u)
            object.__setattr__(self, "v", v)

    @property
    def key(self) -> Tuple[SiteId, SiteId]:
        """The canonical ``(min, max)`` link identifier, like ``Link.key``."""
        return (self.u, self.v)


@dataclass(frozen=True)
class SiteDownWindow:
    """Site is partitioned from the network during ``[start, end)``."""

    site: SiteId
    start: Time
    end: Time

    def __post_init__(self) -> None:
        if self.start < 0 or self.end <= self.start:
            raise ConfigError(
                f"site window ({self.site}) needs 0 <= start < end, "
                f"got [{self.start}, {self.end})"
            )


@dataclass(frozen=True)
class ChurnSpec:
    """Randomly generated down windows, expanded at arm time.

    ``n_events`` windows start uniformly over ``[0, horizon)`` (horizon
    defaults to the workload duration when the injector arms); window
    lengths are exponential with mean ``mean_downtime``; victims are drawn
    uniformly from the live topology. Expansion uses the plan's seeded
    generator, so the same (plan, experiment seed) yields the same windows.
    """

    n_events: int
    mean_downtime: Time = 10.0
    horizon: Optional[Time] = None

    def __post_init__(self) -> None:
        if self.n_events < 0:
            raise ConfigError(f"churn n_events must be >= 0, got {self.n_events}")
        if self.mean_downtime <= 0:
            raise ConfigError(f"churn mean_downtime must be > 0, got {self.mean_downtime}")
        if self.horizon is not None and self.horizon <= 0:
            raise ConfigError(f"churn horizon must be > 0, got {self.horizon}")


@dataclass(frozen=True)
class JoinSpec:
    """Randomly generated site joins, expanded at arm time.

    The growth-side mirror of :class:`ChurnSpec`: ``n_sites`` new sites
    join at times uniform over ``[0, horizon)`` (horizon defaults to the
    workload duration when the membership manager arms). Each joiner wires
    ``links`` edges to distinct already-present sites with delays uniform
    in ``delay_range``. Expansion uses a dedicated seeded stream
    (``SeedSequence([entropy, plan.seed, 1])``) so the plan's churn
    windows stay byte-identical when joins are added.
    """

    n_sites: int
    links: int = 2
    delay_range: Tuple[float, float] = (0.2, 1.0)
    horizon: Optional[Time] = None

    def __post_init__(self) -> None:
        if self.n_sites < 0:
            raise ConfigError(f"join n_sites must be >= 0, got {self.n_sites}")
        if self.links < 1:
            raise ConfigError(f"join links must be >= 1, got {self.links}")
        lo, hi = self.delay_range
        if lo <= 0 or hi < lo:
            raise ConfigError(f"join delay_range must be 0 < lo <= hi, got {self.delay_range}")
        if self.horizon is not None and self.horizon <= 0:
            raise ConfigError(f"join horizon must be > 0, got {self.horizon}")


@dataclass(frozen=True)
class SiteJoinEvent:
    """One explicit membership join at ``time`` (relative to workload start).

    ``links`` is ``((peer, delay), ...)``. The joining site's id is
    assigned by the runner — latent sites get ids ``n_base, n_base+1, ...``
    in declaration order (explicit events first, then expanded
    :class:`JoinSpec` joins, time-ordered) — so plans stay portable across
    topologies of different sizes. Peers must be base sites or earlier
    joiners at apply time.
    """

    time: Time
    links: Tuple[Tuple[SiteId, Time], ...]

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ConfigError(f"join time must be >= 0, got {self.time}")
        if not self.links:
            raise ConfigError("a join event needs at least one link")
        peers = [p for p, _ in self.links]
        if len(set(peers)) != len(peers):
            raise ConfigError(f"join event has duplicate peers {peers}")
        for peer, delay in self.links:
            if delay <= 0:
                raise ConfigError(f"join link to {peer} needs delay > 0, got {delay}")


@dataclass(frozen=True)
class FaultPlan:
    """Declarative description of every fault a run will experience.

    The default instance is the **zero plan**: installing it is a no-op and
    every result stays bit-for-bit identical to a run without faults (the
    acceptance contract of the subsystem; asserted by the tier-1 identity
    tests and ``tests/claims/test_e7_faults.py``).
    """

    link_windows: Tuple[LinkDownWindow, ...] = ()
    site_windows: Tuple[SiteDownWindow, ...] = ()
    #: global per-transmission loss probability
    loss_prob: float = 0.0
    #: per-link overrides of ``loss_prob``, keyed by canonical (u, v)
    link_loss: Tuple[Tuple[Tuple[SiteId, SiteId], float], ...] = ()
    #: extra uniform [0, delay_jitter] delay per transmission
    delay_jitter: Time = 0.0
    #: random link flaps generated at arm time
    link_churn: Optional[ChurnSpec] = None
    #: random site partitions generated at arm time
    site_churn: Optional[ChurnSpec] = None
    #: explicit membership joins (applied by repro.membership)
    join_events: Tuple[SiteJoinEvent, ...] = ()
    #: random membership joins generated at arm time
    joins: Optional[JoinSpec] = None
    #: fault-stream seed, mixed with the experiment seed by the injector
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss_prob < 1.0:
            raise ConfigError(f"loss_prob must be in [0, 1), got {self.loss_prob}")
        for key, p in self.link_loss:
            if not 0.0 <= p < 1.0:
                raise ConfigError(f"link_loss[{key}] must be in [0, 1), got {p}")
        if self.delay_jitter < 0:
            raise ConfigError(f"delay_jitter must be >= 0, got {self.delay_jitter}")

    # -- classification -----------------------------------------------------

    def is_zero(self) -> bool:
        """True iff this plan can never perturb a run.

        Covers *both* sides of the contract: no message faults
        (:meth:`perturbs_network`) and no membership growth
        (:meth:`has_joins`). A zero plan through the resident service is
        bit-for-bit a no-faults run (pinned by the Hypothesis property in
        ``tests/membership/test_survivable_service.py``).
        """
        return not self.perturbs_network() and not self.has_joins()

    def perturbs_network(self) -> bool:
        """True iff the plan can lose, delay or partition messages.

        The hardened-protocol requirement keys off this, not
        :meth:`is_zero`: a join-only plan grows the network but never
        drops a message, so it does not need ack/retransmit hardening.
        """
        return bool(
            self.link_windows
            or self.site_windows
            or self.loss_prob != 0.0
            or any(p != 0.0 for _, p in self.link_loss)
            or self.delay_jitter != 0.0
            or (self.link_churn is not None and self.link_churn.n_events > 0)
            or (self.site_churn is not None and self.site_churn.n_events > 0)
        )

    def has_joins(self) -> bool:
        """True iff the plan adds members (explicit or expanded joins)."""
        return self.n_join_sites() > 0

    def n_join_sites(self) -> int:
        """How many latent sites the runner must pre-build for this plan."""
        n = len(self.join_events)
        if self.joins is not None:
            n += self.joins.n_sites
        return n

    def loss_for(self, key: Tuple[SiteId, SiteId]) -> float:
        """Loss probability of the canonical link ``key``."""
        for k, p in self.link_loss:
            if k == key:
                return p
        return self.loss_prob

    # -- construction helpers ------------------------------------------------

    @classmethod
    def from_spec(cls, spec: str) -> "FaultPlan":
        """Parse a compact CLI spec into a plan.

        Comma-separated ``key=value`` pairs::

            loss=0.05,jitter=0.5,links=6,sites=2,downtime=20,horizon=300,seed=3
            sites=4,joins=3,join_links=2,horizon=600

        ``links``/``sites`` are churn event counts; ``downtime`` and
        ``horizon`` parameterize both churn specs. ``joins`` is the number
        of sites joining mid-run (``join_links`` edges each; ``horizon``
        bounds the join times too). Unknown keys, and counts that are
        negative or not whole, raise :class:`~repro.errors.ConfigError`.
        """
        fields: Dict[str, float] = {}
        for part in filter(None, (p.strip() for p in spec.split(","))):
            if "=" not in part:
                raise ConfigError(f"bad fault spec element {part!r} (want key=value)")
            key, _, val = part.partition("=")
            try:
                fields[key.strip()] = float(val)
            except ValueError:
                raise ConfigError(f"bad fault spec value {part!r}") from None
        known = {
            "loss", "jitter", "links", "sites", "downtime", "horizon", "seed",
            "joins", "join_links",
        }
        unknown = set(fields) - known
        if unknown:
            raise ConfigError(f"unknown fault spec keys {sorted(unknown)}; known: {sorted(known)}")
        for key in ("links", "sites", "joins", "join_links"):
            count = fields.get(key, 0.0)
            if not (count >= 0 and count.is_integer()):
                raise ConfigError(f"fault spec {key} must be a whole count >= 0, got {count:g}")
        downtime = fields.get("downtime", 10.0)
        horizon = fields.get("horizon")
        churn = {}
        if fields.get("links", 0) > 0:
            churn["link_churn"] = ChurnSpec(int(fields["links"]), downtime, horizon)
        if fields.get("sites", 0) > 0:
            churn["site_churn"] = ChurnSpec(int(fields["sites"]), downtime, horizon)
        if fields.get("joins", 0) > 0:
            churn["joins"] = JoinSpec(
                int(fields["joins"]),
                links=int(fields.get("join_links", 2)),
                horizon=horizon,
            )
        return cls(
            loss_prob=fields.get("loss", 0.0),
            delay_jitter=fields.get("jitter", 0.0),
            seed=int(fields.get("seed", 0)),
            **churn,
        )

    def scaled(self, loss_prob: float) -> "FaultPlan":
        """This plan with a different global loss probability (sweeps)."""
        return replace(self, loss_prob=loss_prob)


def hardened(config, ack_timeout: Time = 5.0, ack_retries: int = 1):
    """An :class:`~repro.core.config.RTDSConfig` copy with the protocol
    hardening switched on — the required companion of a nonzero plan."""
    return replace(config, ack_timeout=ack_timeout, ack_retries=ack_retries)
