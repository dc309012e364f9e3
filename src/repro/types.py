"""Common type aliases and small shared constants.

Keeping these in one leaf module avoids import cycles between the graph,
network and scheduling packages.
"""

from __future__ import annotations

import sys
from typing import Hashable

#: ``@dataclass(**DATACLASS_SLOTS)`` adds ``slots=True`` where the runtime
#: supports it (3.10+). The hot-path record types (trace events, route
#: entries, reservations) are slotted for memory and attribute-access
#: speed; on 3.9 they silently fall back to dict-backed instances with
#: identical semantics.
DATACLASS_SLOTS = {"slots": True} if sys.version_info >= (3, 10) else {}

#: Identifier of a task inside one job DAG. Any hashable works; the worked
#: example from the paper uses the integers 1..5.
TaskId = Hashable

#: Identifier of a site (network node). Sites are created by the topology
#: generators as consecutive integers starting at 0.
SiteId = int

#: Identifier of a *logical* processor produced by the Mapper. Logical
#: processors are indexed 0..|U|-1 by descending surplus (the paper writes
#: U = 1..|U|; we use 0-based indices internally and 1-based in reports).
LogicalProc = int

#: Identifier of a job instance (unique across a simulation run).
JobId = int

#: Simulated time and durations; continuous, in arbitrary units.
Time = float

#: Numeric tolerance used by schedule/feasibility comparisons. All protocol
#: arithmetic is float; EPS absorbs representation noise without hiding
#: genuine deadline violations (paper quantities are O(1)..O(1e4)).
EPS: float = 1e-9

