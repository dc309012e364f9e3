"""Exception hierarchy for the RTDS reproduction.

All library errors derive from :class:`ReproError` so callers can catch a
single base type. Subsystems raise the most specific subclass available;
messages always identify the offending entity (task id, site id, ...) to keep
large-simulation failures diagnosable.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class DagError(ReproError):
    """Malformed DAG: cycles, unknown task references, negative weights."""


class CycleError(DagError):
    """The precedence relation contains a cycle (so it is not a DAG)."""


class TopologyError(ReproError):
    """Invalid network topology: disconnected, bad parameters, self loops."""


class SimulationError(ReproError):
    """Internal simulator invariant violated (event ordering, FIFO links)."""


class RoutingError(ReproError):
    """Routing-table or distributed shortest-path protocol error."""


class SchedulingError(ReproError):
    """Local scheduler invariant violated (overlapping reservations, ...)."""


class MappingError(ReproError):
    """The Mapper could not produce a Trial-Mapping (e.g. no processors)."""


class ProtocolError(ReproError):
    """RTDS protocol state-machine violation (unexpected message, lock)."""


class ConfigError(ReproError):
    """Invalid experiment or algorithm configuration."""


class CampaignCellError(ReproError):
    """One or more campaign cells failed (raised after the whole sweep ran).

    Carries the failed
    :class:`~repro.experiments.parallel.CellResult` records in
    ``failures``; the message names every cell key and seed so a single
    broken replication is diagnosable without a bare mid-sweep traceback.
    """

    def __init__(self, failures):
        self.failures = list(failures)
        detail = "; ".join(
            f"cell {r.key} ({r.label}, seed={r.seed}): {r.error}" for r in self.failures
        )
        super().__init__(
            f"{len(self.failures)} campaign cell(s) failed — {detail} "
            "(when a result store is attached, failures are recorded there "
            "and a resumed run retries only them)"
        )


class WorkloadError(ReproError):
    """Invalid workload specification (negative rates, bad laxity factor)."""
