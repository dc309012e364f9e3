"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import RTDSConfig
from repro.metrics.collector import MetricsCollector
from repro.simnet.engine import Simulator
from repro.simnet.network import Network
from repro.simnet.site import SiteBase
from repro.simnet.trace import Tracer


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def tracer() -> Tracer:
    return Tracer(enabled=True)


@pytest.fixture
def net(sim: Simulator, tracer: Tracer) -> Network:
    return Network(sim, tracer)


class RecordingSite(SiteBase):
    """A bare site that records every message it handles."""

    def __init__(self, sid, network):
        super().__init__(sid, network)
        self.received = []
        self.on("PING", self._on_ping)
        self.on("DATA", self._on_ping)

    def _on_ping(self, msg):
        self.received.append((self.sim.now, msg.mtype, msg.origin, dict(msg.payload)))


@pytest.fixture
def recording_site_cls():
    return RecordingSite


def make_line_network(sim, n: int, delay: float = 1.0, site_cls=RecordingSite):
    """0 - 1 - 2 - ... - (n-1) with uniform delays."""
    net = Network(sim)
    sites = [site_cls(i, net) for i in range(n)]
    for i in range(n - 1):
        net.add_link(i, i + 1, delay)
    return net, sites


@pytest.fixture
def rtds_config() -> RTDSConfig:
    return RTDSConfig(h=2)


@pytest.fixture
def metrics() -> MetricsCollector:
    return MetricsCollector()


@pytest.fixture
def soak_residents(monkeypatch):
    """The ``ResidentSimulation`` of every ``run_soak`` made while the
    fixture is active — their reports carry numbers only, and the per-site
    ``leaks()`` audit needs the sites."""
    from repro.experiments import soak

    built = []

    class Capturing(soak.ResidentSimulation):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(soak, "ResidentSimulation", Capturing)
    return built
