"""Sharded multi-process PDES engine (E14).

Partitions a topology across worker processes, runs one
:class:`~repro.simnet.engine.Simulator` per shard and synchronizes the
shards with a conservative time-window protocol whose lookahead is the
minimum inter-shard link delay. Enabled through
``ExperimentConfig(shards=N)`` with ``N >= 2``; see DESIGN.md §16
for the model and its determinism contract.
"""

from repro.simnet.sharded.coordinator import ShardRunInfo, run_sharded
from repro.simnet.sharded.partition import ShardPlan, partition_topology
from repro.simnet.sharded.tables import shard_tables

__all__ = [
    "ShardPlan",
    "ShardRunInfo",
    "partition_topology",
    "run_sharded",
    "shard_tables",
]
