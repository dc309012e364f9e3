"""Job-DAG generators.

The paper's workload is "sporadic jobs with arbitrary precedence relations";
it gives no benchmark suite, so — as in the DAG-scheduling literature it
cites (Sih & Lee, Iverson & Özgüner) — we provide the standard structured
families (chains, fork-join, Gaussian elimination) plus two random families
(layered and Erdős–Rényi-ordered). All generators:

* take a ``numpy.random.Generator`` for determinism (never the global RNG),
* draw complexities from a configurable range,
* return an immutable :class:`~repro.graphs.dag.Dag` whose task ids are
  ``0..n-1`` in a topological order (except :func:`paper_example_dag`, which
  uses the paper's 1..5 ids).

Generation cost: a workload draws thousands of jobs, and the families whose
structure depends only on their size (chain, fork-join, Gaussian
elimination) build and validate that structure once per size — a cached
unit-weight :func:`_template` — and give each job its own weight vector
over it with :meth:`~repro.graphs.dag.Dag.with_weights`. A job then costs
its weight draw and one tuple of floats. Every other family draws a new
structure per job and hands its drawn floats and edges to the construction
core, :meth:`~repro.graphs.dag.Dag.from_weights`. No generator builds a
:class:`~repro.graphs.dag.Task`, and no ``Dag`` keeps one: a random job
(layered, Erdős–Rényi) costs its draws, its adjacency and its topological
sort.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import DagError
from repro.graphs.dag import Dag


def draw_complexities(
    rng: np.random.Generator, n: int, c_range: Tuple[float, float]
) -> np.ndarray:
    """The ``n`` uniform task complexities a generator draws from ``c_range``."""
    lo, hi = c_range
    if lo <= 0 or hi < lo:
        raise DagError(f"invalid complexity range {c_range}")
    # Uniform draw, vectorised; values are strictly positive because lo > 0.
    return rng.uniform(lo, hi, size=n)


#: a fixed-shape family's structure: (task count, edges in generator order)
Shape = Tuple[int, List[Tuple[int, int]]]


def _chain_shape(n: int) -> Shape:
    return n, [(i, i + 1) for i in range(n - 1)]


def _fork_join_shape(width: int) -> Shape:
    edges = [(0, i) for i in range(1, width + 1)]
    edges += [(i, width + 1) for i in range(1, width + 1)]
    return width + 2, edges


def _gaussian_elimination_shape(size: int) -> Shape:
    ids = {}
    nid = 0
    for k in range(size - 1):
        ids[("P", k)] = nid
        nid += 1
        for j in range(k + 1, size):
            ids[("U", k, j)] = nid
            nid += 1
    edges = []
    for k in range(size - 1):
        for j in range(k + 1, size):
            edges.append((ids[("P", k)], ids[("U", k, j)]))
            if k + 1 < size - 1:
                if j == k + 1:
                    edges.append((ids[("U", k, j)], ids[("P", k + 1)]))
                else:
                    edges.append((ids[("U", k, j)], ids[("U", k + 1, j)]))
    return nid, edges


#: fixed-shape family -> (shape function, DAG name pattern)
_FAMILIES: Dict[str, Tuple[Callable[[int], Shape], str]] = {
    "chain": (_chain_shape, "chain-{}"),
    "forkjoin": (_fork_join_shape, "forkjoin-{}"),
    "gauss": (_gaussian_elimination_shape, "gauss-{}"),
}


@lru_cache(maxsize=256)
def _template(family: str, size: int) -> Dag:
    """The validated unit-weight DAG of one fixed-shape ``(family, size)``.

    Built from the generator's own edge sequence, so a job made with
    ``with_weights`` equals the DAG the full constructor would build.
    """
    shape, name = _FAMILIES[family]
    n, edges = shape(size)
    return Dag.from_weights([1.0] * n, edges, name.format(size))


def _draw_job(
    family: str, size: int, rng: np.random.Generator, c_range: Tuple[float, float]
) -> Dag:
    """One job of a fixed-shape family: fresh weights over the shared template."""
    template = _template(family, size)
    return template.with_weights(draw_complexities(rng, len(template), c_range).tolist())


def paper_example_dag() -> Dag:
    """The exact instance of Figure 2 (reconstructed, see DESIGN.md §4).

    Five tasks with complexities ``c = (6, 4, 4, 2, 5)`` (ids 1..5 as in the
    paper) and arcs ``1→3, 2→3, 1→4, 3→5, 4→5``.
    """
    edges = [(1, 3), (2, 3), (1, 4), (3, 5), (4, 5)]
    return Dag.from_weights([6.0, 4.0, 4.0, 2.0, 5.0], edges, "paper-fig2", ids=[1, 2, 3, 4, 5])


def linear_chain_dag(
    n: int,
    rng: Optional[np.random.Generator] = None,
    c_range: Tuple[float, float] = (1.0, 10.0),
) -> Dag:
    """A pure sequential chain ``0 → 1 → ... → n-1`` (zero parallelism)."""
    if n < 1:
        raise DagError("chain needs n >= 1")
    return _draw_job("chain", n, rng or np.random.default_rng(0), c_range)


def fork_join_dag(
    width: int,
    rng: Optional[np.random.Generator] = None,
    c_range: Tuple[float, float] = (1.0, 10.0),
) -> Dag:
    """Source → ``width`` parallel tasks → sink (max parallelism)."""
    if width < 1:
        raise DagError("fork-join needs width >= 1")
    return _draw_job("forkjoin", width, rng or np.random.default_rng(0), c_range)


def gaussian_elimination_dag(
    size: int,
    rng: Optional[np.random.Generator] = None,
    c_range: Tuple[float, float] = (1.0, 10.0),
) -> Dag:
    """Task graph of column-wise Gaussian elimination on a ``size×size`` matrix.

    For each step k there is one pivot task P(k) and update tasks U(k, j) for
    j > k; P(k) → U(k, j) and U(k, j) → P(k+1), U(k, j') of the next step —
    the standard dense-LU task graph used throughout the scheduling
    literature.
    """
    if size < 2:
        raise DagError("gaussian elimination needs size >= 2")
    return _draw_job("gauss", size, rng or np.random.default_rng(0), c_range)


def layered_dag(
    layers: int,
    width: int,
    rng: Optional[np.random.Generator] = None,
    c_range: Tuple[float, float] = (1.0, 10.0),
    p_edge: float = 0.5,
    jitter: bool = True,
) -> Dag:
    """Random layered DAG (the workhorse of scheduling evaluations).

    ``layers`` layers of ``width`` tasks (±50% if ``jitter``); each task gets
    at least one predecessor in the previous layer, plus extra edges with
    probability ``p_edge``.
    """
    if layers < 1 or width < 1:
        raise DagError("layered DAG needs layers >= 1 and width >= 1")
    if not 0.0 <= p_edge <= 1.0:
        raise DagError(f"p_edge must be in [0,1], got {p_edge}")
    rng = rng or np.random.default_rng(0)
    if jitter and width > 1:
        # one vector draw: the same integers, and the same generator state
        # after them, as one rng.integers call per layer
        layer_sizes = rng.integers(max(1, width // 2), width + width // 2 + 1, size=layers).tolist()
    else:
        layer_sizes = [width] * layers
    ids_per_layer = []
    nid = 0
    for sz in layer_sizes:
        ids_per_layer.append(list(range(nid, nid + sz)))
        nid += sz
    cs = draw_complexities(rng, nid, c_range)
    edges = []
    for li in range(1, layers):
        prev, cur = ids_per_layer[li - 1], ids_per_layer[li]
        for v in cur:
            # Guaranteed predecessor keeps the graph layered-connected.
            u = prev[int(rng.integers(len(prev)))]
            edges.append((u, v))
            others = [u2 for u2 in prev if u2 != u]
            if others:
                # one coin per other task, drawn as one vector: the same
                # doubles, in the same order, as one rng.random() each
                coins = rng.random(len(others)).tolist()
                edges += [(u2, v) for u2, x in zip(others, coins) if x < p_edge]
    return Dag.from_weights(cs.tolist(), edges, f"layered-{layers}x{width}")


@lru_cache(maxsize=128)
def _upper_triangle(n: int) -> Tuple[np.ndarray, List[Tuple[int, int]]]:
    """The cells above the diagonal of an ``n x n`` matrix, once per ``n``:
    their row-major positions (read-only) and their ``(i, j)`` pairs, both
    in ``np.triu_indices(n, k=1)`` order."""
    iu, ju = np.triu_indices(n, k=1)
    flat = iu * n + ju
    flat.flags.writeable = False
    return flat, list(zip(iu.tolist(), ju.tolist()))


def random_dag(
    n: int,
    rng: Optional[np.random.Generator] = None,
    c_range: Tuple[float, float] = (1.0, 10.0),
    p_edge: float = 0.15,
) -> Dag:
    """Erdős–Rényi DAG: order tasks 0..n-1, add each forward edge w.p. ``p``.

    Transitively redundant edges are kept (they are legal precedence
    constraints and exercise the scheduler's handling of dense Γ⁻ sets).
    """
    if n < 1:
        raise DagError("random DAG needs n >= 1")
    if not 0.0 <= p_edge <= 1.0:
        raise DagError(f"p_edge must be in [0,1], got {p_edge}")
    rng = rng or np.random.default_rng(0)
    cs = draw_complexities(rng, n, c_range)
    # Vectorised coin flips, one per cell of the n x n matrix; the cells
    # above the diagonal decide the edges.
    edges = []
    if n > 1:
        flat, pairs = _upper_triangle(n)
        coins = rng.random((n, n)).ravel()[flat]
        edges = list(compress(pairs, (coins < p_edge).tolist()))
    return Dag.from_weights(cs.tolist(), edges, f"er-{n}-p{p_edge}")
