"""Arrival processes.

Jobs are *sporadic*: they arrive at any time on any site. We model each
site's arrival stream as a Poisson process (exponential inter-arrivals),
the standard model for open real-time workloads, vectorised with numpy.

Open-loop processes (E12)
-------------------------

The batch runner thinks in fixed job counts; the admission service
(:mod:`repro.service`) thinks in **rate × duration**: a first-class
:class:`ArrivalProcess` describes *how* jobs arrive, and the window
``[start, end)`` — not ``n_jobs`` — bounds how many. Three families:

* :class:`PoissonProcess` — the memoryless baseline (constant rate);
* :class:`MMPPProcess` — a cyclic-phase Markov-modulated Poisson process
  (exponential sojourns per phase, each phase its own rate) — the bursty
  sporadic-release model of Dong & Liu (arXiv:1808.00017) at workload
  granularity;
* :class:`DiurnalProcess` — a sinusoidal rate curve that integrates to a
  requested *daily volume*, the shape sustained services actually see.

All are frozen dataclasses (picklable across pool workers), draw only
through the caller's seeded generator, and share the exact spec grammar of
:func:`parse_arrival_spec` (``"poisson:2.5"``, ``"mmpp:0.5,8@20,5"``,
``"diurnal:500@100@0.8"``) so the soak CLI and campaign configs name them
declaratively.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.errors import WorkloadError
from repro.types import SiteId, Time


def poisson_arrivals(
    rng: np.random.Generator,
    rate: float,
    start: Time,
    end: Time,
) -> np.ndarray:
    """Arrival times of a Poisson process with ``rate`` on ``[start, end)``.

    Vectorised: draws ~N(expected + 6·sqrt) exponentials at once and tops up
    in the (rare) case the batch falls short.
    """
    if rate < 0:
        raise WorkloadError(f"rate must be >= 0, got {rate}")
    if end <= start:
        raise WorkloadError(f"empty arrival window [{start}, {end})")
    if rate == 0:
        return np.empty(0, dtype=float)
    expect = rate * (end - start)
    batch = int(expect + 6.0 * np.sqrt(expect) + 16)
    gaps = rng.exponential(1.0 / rate, size=batch)
    times = start + np.cumsum(gaps)
    while times.size and times[-1] < end:
        more = rng.exponential(1.0 / rate, size=batch)
        times = np.concatenate([times, times[-1] + np.cumsum(more)])
    return times[times < end]


def bursty_arrivals(
    rng: np.random.Generator,
    rate_on: float,
    rate_off: float,
    period: Time,
    duty: float,
    start: Time,
    end: Time,
) -> np.ndarray:
    """Two-state (on/off) modulated Poisson process — bursty sporadic jobs.

    Alternates ``duty × period`` at ``rate_on`` with the remainder at
    ``rate_off``. Models the arrival bursts (alarm showers, frame batches)
    that stress admission control far more than a smooth stream with the
    same mean rate.
    """
    if period <= 0 or not 0.0 < duty < 1.0:
        raise WorkloadError(f"need period > 0 and duty in (0,1), got {period}, {duty}")
    if rate_on < 0 or rate_off < 0:
        raise WorkloadError("rates must be >= 0")
    if end <= start:
        raise WorkloadError(f"empty arrival window [{start}, {end})")
    chunks = []
    t = start
    while t < end:
        on_end = min(t + duty * period, end)
        if rate_on > 0 and on_end > t:
            chunks.append(poisson_arrivals(rng, rate_on, t, on_end))
        off_end = min(t + period, end)
        if rate_off > 0 and off_end > on_end:
            chunks.append(poisson_arrivals(rng, rate_off, on_end, off_end))
        t += period
    if not chunks:
        return np.empty(0, dtype=float)
    return np.sort(np.concatenate(chunks))


def per_site_arrivals(
    rng: np.random.Generator,
    n_sites: int,
    total_rate: float,
    start: Time,
    end: Time,
    hot_fraction: float = 0.0,
    hot_sites: int = 0,
) -> List[Tuple[Time, SiteId]]:
    """Merged, time-sorted (arrival, origin) pairs across all sites.

    ``total_rate`` is the aggregate arrival rate; by default it splits
    uniformly. With ``hot_fraction`` > 0, that fraction of the rate
    concentrates on the first ``hot_sites`` sites — the skewed-arrival
    pattern where distribution matters most (hot sites overload and must
    offload into their spheres).
    """
    if n_sites < 1:
        raise WorkloadError("need at least one site")
    if not 0.0 <= hot_fraction <= 1.0:
        raise WorkloadError(f"hot_fraction must be in [0,1], got {hot_fraction}")
    if hot_fraction > 0 and not 0 < hot_sites <= n_sites:
        raise WorkloadError(f"hot_sites must be in (0, {n_sites}], got {hot_sites}")

    rates = np.full(n_sites, total_rate / n_sites)
    if hot_fraction > 0:
        hot_each = total_rate * hot_fraction / hot_sites
        cold_each = total_rate * (1 - hot_fraction) / max(1, n_sites - hot_sites)
        rates[:] = cold_each
        rates[:hot_sites] = hot_each

    out: List[Tuple[Time, SiteId]] = []
    for sid in range(n_sites):
        out += [(t, sid) for t in poisson_arrivals(rng, float(rates[sid]), start, end).tolist()]
    out.sort()  # by time, then site
    return out


# -- open-loop arrival processes (E12) ---------------------------------------


@dataclass(frozen=True)
class PoissonProcess:
    """Constant-rate Poisson arrivals: the open-loop baseline."""

    rate: float

    def __post_init__(self) -> None:
        if not 0 < self.rate < math.inf:
            raise WorkloadError(f"poisson rate must be > 0 and finite, got {self.rate}")

    def mean_rate(self) -> float:
        """Long-run arrivals per time unit."""
        return self.rate

    def times(self, rng: np.random.Generator, start: Time, end: Time) -> np.ndarray:
        """Sorted arrival times on ``[start, end)``."""
        return poisson_arrivals(rng, self.rate, start, end)


@dataclass(frozen=True)
class MMPPProcess:
    """Cyclic-phase Markov-modulated Poisson process.

    The process visits its phases in cyclic order; each visit to phase
    ``i`` lasts an exponential sojourn with mean ``sojourns[i]`` during
    which arrivals are Poisson at ``rates[i]``. Exponential sojourns make
    the (phase, residual) pair Markov, so this is a proper MMPP with a
    cyclic transition structure — two phases give the classic bursty
    on/off interrupted-Poisson shape.

    Determinism: phase-switch times are drawn from a child generator
    spawned off the caller's seed *before* any arrival draw, so the phase
    schedule for a window is a pure function of (seed, window) no matter
    how many arrivals each phase produces.
    """

    rates: Tuple[float, ...]
    sojourns: Tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.rates) < 2 or len(self.rates) != len(self.sojourns):
            raise WorkloadError(
                f"mmpp needs >= 2 phases with one sojourn each, got rates="
                f"{self.rates}, sojourns={self.sojourns}"
            )
        if not all(0 <= r < math.inf for r in self.rates) or all(r == 0 for r in self.rates):
            raise WorkloadError(
                f"mmpp rates must be finite and >= 0 with one > 0, got {self.rates}"
            )
        if not all(0 < s < math.inf for s in self.sojourns):
            raise WorkloadError(f"mmpp sojourns must be > 0 and finite, got {self.sojourns}")

    def mean_rate(self) -> float:
        """Sojourn-weighted mean rate (the long-run arrivals/time)."""
        weight = sum(self.sojourns)
        return sum(r * s for r, s in zip(self.rates, self.sojourns)) / weight

    def phase_schedule(
        self, rng: np.random.Generator, start: Time, end: Time
    ) -> List[Tuple[Time, Time, int]]:
        """The ``(t0, t1, phase)`` intervals covering ``[start, end)``.

        Consumes exactly one ``integers`` draw from ``rng`` (the child
        seed); all sojourn draws come from the child.
        """
        child = np.random.default_rng(int(rng.integers(2**63)))
        out: List[Tuple[Time, Time, int]] = []
        t = start
        phase = 0
        k = len(self.rates)
        while t < end:
            stay = float(child.exponential(self.sojourns[phase]))
            t1 = min(t + stay, end)
            out.append((t, t1, phase))
            t = t + stay
            phase = (phase + 1) % k
        return out

    def times(self, rng: np.random.Generator, start: Time, end: Time) -> np.ndarray:
        """Sorted arrival times on ``[start, end)``."""
        if end <= start:
            raise WorkloadError(f"empty arrival window [{start}, {end})")
        chunks = [
            poisson_arrivals(rng, self.rates[phase], t0, t1)
            for t0, t1, phase in self.phase_schedule(rng, start, end)
            if self.rates[phase] > 0 and t1 > t0
        ]
        if not chunks:
            return np.empty(0, dtype=float)
        return np.sort(np.concatenate(chunks))


@dataclass(frozen=True)
class DiurnalProcess:
    """Sinusoidal daily rate curve integrating to ``daily_volume`` jobs.

    ``rate(t) = (daily_volume / day_length) * (1 + amplitude *
    sin(2π t / day_length))`` — the sine integrates to zero over any whole
    day, so the expected volume per day is exactly ``daily_volume``
    (pinned by the Hypothesis property suite). ``amplitude`` in [0, 1)
    keeps the rate strictly positive; 0 degenerates to Poisson.

    Sampling uses Lewis–Shedler thinning against the peak rate: exact for
    a non-homogeneous Poisson process, deterministic under a fixed seed.
    """

    daily_volume: float
    day_length: float = 24.0
    amplitude: float = 0.8

    def __post_init__(self) -> None:
        if not (0 < self.daily_volume < math.inf and 0 < self.day_length < math.inf):
            raise WorkloadError(
                f"need finite daily_volume > 0 and day_length > 0, got "
                f"{self.daily_volume}, {self.day_length}"
            )
        if not 0.0 <= self.amplitude < 1.0:
            raise WorkloadError(f"amplitude must be in [0, 1), got {self.amplitude}")

    def mean_rate(self) -> float:
        """Arrivals per time unit averaged over one day."""
        return self.daily_volume / self.day_length

    def times(self, rng: np.random.Generator, start: Time, end: Time) -> np.ndarray:
        """Sorted arrival times on ``[start, end)`` (thinning)."""
        if end <= start:
            raise WorkloadError(f"empty arrival window [{start}, {end})")
        peak = self.mean_rate() * (1.0 + self.amplitude)
        candidates = poisson_arrivals(rng, peak, start, end)
        if candidates.size == 0:
            return candidates
        base = self.mean_rate()
        rates = base * (
            1.0 + self.amplitude * np.sin(2.0 * np.pi * candidates / self.day_length)
        )
        accept = rng.random(candidates.size) * peak <= rates
        return candidates[accept]


def parse_arrival_spec(spec: str):
    """Parse a declarative arrival-process spec into a process object.

    Grammar (groups ``@``-separated, values ``,``-separated)::

        poisson:RATE                 e.g. "poisson:2.5"
        mmpp:R1,R2[,...]@S1,S2[,...] e.g. "mmpp:0.5,8@20,5"
        diurnal:VOLUME@DAY[@AMP]     e.g. "diurnal:500@100@0.8"

    Raises :class:`~repro.errors.WorkloadError` on anything malformed —
    campaign configs validate specs before shipping cells to workers.
    """
    if not isinstance(spec, str) or ":" not in spec:
        raise WorkloadError(
            f"arrival spec must look like 'poisson:RATE', 'mmpp:RATES@SOJOURNS' "
            f"or 'diurnal:VOLUME@DAY[@AMP]', got {spec!r}"
        )
    kind, _, body = spec.partition(":")
    try:
        if kind == "poisson":
            return PoissonProcess(rate=float(body))
        if kind == "mmpp":
            rates_s, _, sojourns_s = body.partition("@")
            if not sojourns_s:
                raise WorkloadError(f"mmpp spec needs RATES@SOJOURNS, got {spec!r}")
            rates = tuple(float(x) for x in rates_s.split(","))
            sojourns = tuple(float(x) for x in sojourns_s.split(","))
            return MMPPProcess(rates=rates, sojourns=sojourns)
        if kind == "diurnal":
            parts = body.split("@")
            if len(parts) not in (2, 3):
                raise WorkloadError(f"diurnal spec needs VOLUME@DAY[@AMP], got {spec!r}")
            return DiurnalProcess(
                daily_volume=float(parts[0]),
                day_length=float(parts[1]),
                amplitude=float(parts[2]) if len(parts) == 3 else 0.8,
            )
    except ValueError:
        raise WorkloadError(f"malformed arrival spec {spec!r}") from None
    raise WorkloadError(
        f"unknown arrival process {kind!r} in {spec!r}; known: poisson, mmpp, diurnal"
    )
