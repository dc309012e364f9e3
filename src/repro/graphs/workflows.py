"""Scientific-workflow-shaped DAG generators.

The structured families in :mod:`repro.graphs.generators` cover classic
kernels; this module adds the *workflow* shapes used by grid-scheduling
evaluations — the application class the paper's "loosely coupled
distributed systems" motivation points at.

* :func:`mapreduce_dag` — split → M maps → shuffle fan-in groups → R
  reduces → merge;
* :func:`montage_shape` — the astronomy mosaicking shape: N projections →
  pairwise overlap fits (one per *adjacent* pair) → model fit → N
  background corrections → co-add;
* :func:`epigenomics_shape` — the USC Epigenomics shape: split → ``lanes``
  independent per-lane stage chains → merge → final index (the layered
  fan-out with *deep lanes* that Montage's shallow layers lack).

Montage and Epigenomics are pure *shape* functions (name, task count,
edges). The trace workloads of :mod:`repro.workloads.traces` build one DAG
per shape and re-weight it per job, drawing each job's complexities with
:func:`~repro.graphs.generators.draw_complexities` over
:data:`WORKFLOW_C_RANGE` to keep the RNG stream where a per-job build
would leave it.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.errors import DagError
from repro.graphs.dag import Dag
from repro.graphs.generators import draw_complexities

#: default task-complexity range of the workflow generators
WORKFLOW_C_RANGE: Tuple[float, float] = (1.0, 8.0)

#: a workflow's structure: (DAG name, task count, edges in generator order)
WorkflowShape = Tuple[str, int, List[Tuple[int, int]]]


def mapreduce_dag(
    maps: int,
    reduces: int,
    rng: Optional[np.random.Generator] = None,
    c_range: Tuple[float, float] = WORKFLOW_C_RANGE,
) -> Dag:
    """split → maps → reduces (all-to-all shuffle) → merge."""
    if maps < 1 or reduces < 1:
        raise DagError("mapreduce needs maps >= 1 and reduces >= 1")
    rng = rng or np.random.default_rng(0)
    n = 1 + maps + reduces + 1
    cs = draw_complexities(rng, n, c_range)
    split, merge = 0, n - 1
    map_ids = list(range(1, 1 + maps))
    red_ids = list(range(1 + maps, 1 + maps + reduces))
    edges = [(split, m) for m in map_ids]
    edges += [(m, r) for m in map_ids for r in red_ids]
    edges += [(r, merge) for r in red_ids]
    return Dag.from_weights(cs.tolist(), edges, f"mapreduce-{maps}x{reduces}")


def montage_shape(tiles: int) -> WorkflowShape:
    """Name, task count and edges of the Montage mosaicking shape over
    ``tiles`` input tiles.

    project(i) → diff(i, i+1) for adjacent pairs → bgmodel → bgcorrect(i)
    → coadd. (Adjacency is a ring so every projection feeds two diffs.)
    """
    if tiles < 2:
        raise DagError("montage needs tiles >= 2")
    n_diff = tiles if tiles > 2 else 1
    n = tiles + n_diff + 1 + tiles + 1
    proj = list(range(tiles))
    diff = list(range(tiles, tiles + n_diff))
    bgmodel = tiles + n_diff
    bgcorr = list(range(bgmodel + 1, bgmodel + 1 + tiles))
    coadd = n - 1
    edges = []
    for k in range(n_diff):
        a, b = proj[k], proj[(k + 1) % tiles]
        edges.append((a, diff[k]))
        if b != a:
            edges.append((b, diff[k]))
    edges += [(d, bgmodel) for d in diff]
    for i in range(tiles):
        edges.append((proj[i], bgcorr[i]))
        edges.append((bgmodel, bgcorr[i]))
    edges += [(c, coadd) for c in bgcorr]
    return f"montage-{tiles}", n, edges


def epigenomics_shape(lanes: int, stages: int = 4) -> WorkflowShape:
    """Name, task count and edges of the Epigenomics genome-sequencing
    shape over ``lanes`` read lanes.

    split → per-lane chains of ``stages`` tasks (filter → sol2sanger →
    fastq2bfq → map, in the 4-stage reference shape) → merge → final
    index. Task ids are laid out ``[split, lane0-stage0..stage(S-1),
    lane1-..., merge, final]`` — the layout :mod:`repro.workloads.traces`
    relies on to attach per-stage empirical runtimes.
    """
    if lanes < 1 or stages < 1:
        raise DagError("epigenomics needs lanes >= 1 and stages >= 1")
    n = 1 + lanes * stages + 2
    split, merge, final = 0, n - 2, n - 1
    edges = []
    for lane in range(lanes):
        first = 1 + lane * stages
        edges.append((split, first))
        for s in range(stages - 1):
            edges.append((first + s, first + s + 1))
        edges.append((first + stages - 1, merge))
    edges.append((merge, final))
    return f"epigenomics-{lanes}x{stages}", n, edges
