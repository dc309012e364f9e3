"""Per-site speed profiles (heterogeneous sites, paper §13 "uniform machines").

The paper's base protocol assumes identical sites; §13 sketches the
*related machines* relaxation where every site ``k`` has a computing power
``speed_k`` and a task of complexity ``c`` takes ``c / speed_k`` there.
This module is the single place that turns a declarative *speed spec* into
the concrete per-site vector the rest of the system consumes (carried on
:class:`~repro.simnet.topology.Topology` and each
:class:`~repro.simnet.site.SiteBase`):

* ``None`` — homogeneous (all 1.0); the byte-identical default path.
* an explicit sequence — cycled over the sites (``speeds[sid % len]``).
* ``"uniform"`` / ``"uniform:X"`` — every site at speed ``X`` (default 1.0).
* ``"skew:K"`` — a two-tier network: even sites run at ``K`` times the
  speed of odd sites (``sqrt(K)`` vs ``1/sqrt(K)`` before normalisation),
  normalised so the *mean* speed is exactly 1.0. ``K`` is the fast/slow
  speed ratio; ``skew:1`` is homogeneous.
* ``"tiers:a,b,c"`` — an explicit speed cycle (``tiers:1`` ≡ uniform).
* ``"lognormal:SIGMA"`` — i.i.d. lognormal speeds with shape ``SIGMA``,
  drawn from the experiment seed and normalised to mean 1.0.

The *randomised-imbalance* profiles (``skew:K``, ``lognormal:SIGMA``) keep
the aggregate capacity ``Σ speed_k = n`` (mean 1.0), so offered-load
calibration (ρ) stays comparable across levels — a sweep over ``skew:K``
varies *imbalance*, not total capacity. The literal profiles
(``uniform:X``, ``tiers:a,b,...``, explicit vectors) are taken verbatim:
asking for speed-2 sites means total capacity really doubles, and ρ
calibrates against that larger capacity (``repro.workloads.load``).

Determinism: everything derives from ``(spec, n, seed)``; the lognormal
profile uses a dedicated ``numpy`` generator so it perturbs no other
stream.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import ConfigError

#: what an experiment may put in ``ExperimentConfig.site_speeds``
SpeedSpec = Union[None, str, Sequence[float]]

#: seed offset of the lognormal profile's private RNG stream (keeps the
#: draws independent from topology delays and workload arrivals)
_LOGNORMAL_STREAM = 0x5EED


def _validated(speeds: Sequence[float], origin: str) -> Tuple[float, ...]:
    out = []
    for i, s in enumerate(speeds):
        s = float(s)
        if not np.isfinite(s) or s <= 0.0:
            raise ConfigError(f"{origin}: site speed {i} must be finite and > 0, got {s}")
        out.append(s)
    if not out:
        raise ConfigError(f"{origin}: speed vector must not be empty")
    return tuple(out)


def _normalized(speeds: np.ndarray) -> np.ndarray:
    """Scale a positive vector so its arithmetic mean is exactly 1.0.

    An infinite or NaN entry yields NaNs here, quietly: the caller's
    :func:`_validated` names the bad profile instead.
    """
    with np.errstate(invalid="ignore"):
        return speeds / speeds.mean()


def _float(spec: str, token: str) -> float:
    """Parse one numeric profile argument; bad input raises ConfigError."""
    try:
        return float(token)
    except ValueError:
        raise ConfigError(
            f"site_speeds {spec!r}: {token!r} is not a number"
        ) from None


def _parse_spec_string(spec: str, n: int, seed: int) -> Tuple[float, ...]:
    kind, _, arg = spec.partition(":")
    if kind == "uniform":
        x = _float(spec, arg) if arg else 1.0
        if x <= 0:
            raise ConfigError(f"site_speeds {spec!r}: uniform speed must be > 0")
        return (x,) * n
    if kind == "skew":
        if not arg:
            raise ConfigError(f"site_speeds {spec!r}: skew needs a ratio, e.g. 'skew:4'")
        k = _float(spec, arg)
        if k < 1.0:
            raise ConfigError(f"site_speeds {spec!r}: skew ratio must be >= 1, got {k}")
        fast, slow = float(np.sqrt(k)), float(1.0 / np.sqrt(k))
        base = np.array([fast if i % 2 == 0 else slow for i in range(n)])
        return tuple(float(s) for s in _normalized(base))
    if kind == "tiers":
        if not arg:
            raise ConfigError(f"site_speeds {spec!r}: tiers needs values, e.g. 'tiers:1,2,4'")
        tiers = _validated([_float(spec, x) for x in arg.split(",")], f"site_speeds {spec!r}")
        return tuple(tiers[i % len(tiers)] for i in range(n))
    if kind == "lognormal":
        if not arg:
            raise ConfigError(f"site_speeds {spec!r}: lognormal needs a sigma, e.g. 'lognormal:0.5'")
        sigma = _float(spec, arg)
        if sigma < 0:
            raise ConfigError(f"site_speeds {spec!r}: sigma must be >= 0, got {sigma}")
        rng = np.random.default_rng((seed, _LOGNORMAL_STREAM))
        draws = rng.lognormal(mean=0.0, sigma=sigma, size=n)
        return tuple(float(s) for s in _normalized(draws))
    raise ConfigError(
        f"unknown site_speeds spec {spec!r}; known profiles: "
        "'uniform[:X]', 'skew:K', 'tiers:a,b,...', 'lognormal:SIGMA'"
    )


def split_speed_specs(arg: str) -> Tuple[str, ...]:
    """Split a comma-separated list of profile specs (the CLI's
    ``--speeds`` flag), keeping the commas that belong to a
    ``tiers:a,b,...`` argument: a bare-number token continues the
    preceding tiers profile, since profile names are never numeric.

    ``"uniform,tiers:1,2,4,skew:2"`` → ``("uniform", "tiers:1,2,4",
    "skew:2")``.
    """
    out = []
    for token in arg.split(","):
        token = token.strip()
        if not token:
            continue
        is_number = True
        try:
            float(token)
        except ValueError:
            is_number = False
        if is_number and out and out[-1].startswith("tiers:"):
            out[-1] += "," + token
        else:
            out.append(token)
    if not out:
        raise ConfigError(f"empty speed-profile list {arg!r}")
    return tuple(out)


def resolve_site_speeds(spec: SpeedSpec, n: int, seed: int = 0) -> Optional[Tuple[float, ...]]:
    """Resolve a speed spec into a length-``n`` per-site vector.

    Returns ``None`` for ``spec=None`` — the homogeneous fast path the
    identity goldens pin (no vector is materialised, no code path changes).
    """
    if spec is None:
        return None
    if n < 1:
        raise ConfigError(f"site speeds need n >= 1 sites, got {n}")
    if isinstance(spec, str):
        # the same check explicit vectors get: a profile argument can
        # resolve to NaN or infinite speeds ("uniform:nan", "skew:inf") or
        # underflow to zero ("lognormal:1000")
        return _validated(_parse_spec_string(spec, n, seed), f"site_speeds {spec!r}")
    explicit = _validated(list(spec), "site_speeds")
    return tuple(explicit[i % len(explicit)] for i in range(n))

