"""Network topology generators.

The paper targets *arbitrary* connected graphs with weighted bidirectional
links whose delays need not satisfy the triangle inequality. These
generators cover the standard families used in distributed-systems
evaluations. Each returns a :class:`Topology` — a plain description
(site count + weighted edge list) that :func:`build_network` turns into a
live :class:`~repro.simnet.network.Network` with whatever site class an
experiment uses.

All randomness flows through an explicit ``numpy.random.Generator``;
generators that can produce disconnected graphs repair connectivity
deterministically: the abstract families (Erdős–Rényi, Watts–Strogatz)
chain their components together in label order, the geometric family
links the closest pair of sites in different components until one is left.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import TopologyError
from repro.simnet.engine import Simulator
from repro.simnet.network import Network
from repro.simnet.trace import Tracer
from repro.types import SiteId, Time


@dataclass(frozen=True)
class Topology:
    """A weighted undirected graph description.

    ``edges`` holds ``(u, v, delay)`` with ``u < v`` and no duplicates.
    ``site_speeds`` optionally carries per-site computing powers (§13
    heterogeneous sites); ``None`` means the homogeneous network of the
    paper's base model (every site at speed 1.0).
    """

    n: int
    edges: Tuple[Tuple[SiteId, SiteId, Time], ...]
    name: str = "topology"
    site_speeds: Optional[Tuple[float, ...]] = None

    def __post_init__(self) -> None:
        if self.edges:
            self._validate_edges()
        if self.site_speeds is not None:
            if len(self.site_speeds) != self.n:
                raise TopologyError(
                    f"{self.name}: site_speeds has {len(self.site_speeds)} entries "
                    f"for {self.n} sites"
                )
            for sid, s in enumerate(self.site_speeds):
                if s <= 0:
                    raise TopologyError(f"{self.name}: site {sid} speed must be > 0, got {s}")

    def _validate_edges(self) -> None:
        """Range, canonical form, uniqueness and sign of every edge, as
        array comparisons; names the first edge failing the first check."""
        u, v, d = np.array(self.edges, dtype=np.float64).T
        key = u * self.n + v
        order = np.argsort(key, kind="stable")
        dup = np.zeros(len(key), dtype=bool)
        dup[order[1:]] = key[order[1:]] == key[order[:-1]]
        for bad, what in (
            ((np.minimum(u, v) < 0) | (np.maximum(u, v) >= self.n), "edge {} out of range"),
            (u >= v, "edge {} not canonical (u<v)"),
            (dup, "duplicate edge {}"),
            (d < 0, "negative delay on {}"),
        ):
            if bad.any():
                a, b, _ = self.edges[int(np.argmax(bad))]
                raise TopologyError(f"{self.name}: " + what.format(f"({a},{b})"))

    def speed_of(self, sid: SiteId) -> float:
        """Computing power of ``sid`` (1.0 when no speeds are carried)."""
        if self.site_speeds is None:
            return 1.0
        return self.site_speeds[sid]

    def with_site_speeds(self, speeds: Optional[Sequence[float]]) -> "Topology":
        """A copy of this topology carrying ``speeds`` (length-``n``)."""
        return Topology(
            self.n,
            self.edges,
            self.name,
            tuple(float(s) for s in speeds) if speeds is not None else None,
        )

    def adjacency(self) -> Dict[SiteId, Dict[SiteId, Time]]:
        adj: Dict[SiteId, Dict[SiteId, Time]] = {i: {} for i in range(self.n)}
        for u, v, d in self.edges:
            adj[u][v] = d
            adj[v][u] = d
        return adj

    def is_connected(self) -> bool:
        if self.n == 0:
            return True
        adj = self.adjacency()
        seen = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return len(seen) == self.n


# ---------------------------------------------------------------------------
# delay models
# ---------------------------------------------------------------------------


def _uniform_delays(rng: np.random.Generator, m: int, delay_range: Tuple[float, float]) -> np.ndarray:
    lo, hi = delay_range
    if lo < 0 or hi < lo:
        raise TopologyError(f"invalid delay range {delay_range}")
    return rng.uniform(lo, hi, size=m)


def _components(n: int, pairs) -> List[int]:
    """Component label per site: union-find over the links in ``pairs``."""
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in pairs:
        parent[find(u)] = find(v)
    return [find(i) for i in range(n)]


def _repair_connectivity(n: int, edges: set) -> None:
    """Chain the components together, lowest label first (mutates ``edges``)."""
    roots = sorted(set(_components(n, edges)))
    edges.update(zip(roots, roots[1:]))


def _finish(
    name: str,
    n: int,
    pairs: Sequence[Tuple[int, int]],
    rng: np.random.Generator,
    delay_range: Tuple[float, float],
) -> Topology:
    canonical = sorted({(min(u, v), max(u, v)) for u, v in pairs if u != v})
    delays = _uniform_delays(rng, len(canonical), delay_range)
    edges = tuple((u, v, float(d)) for (u, v), d in zip(canonical, delays))
    topo = Topology(n, edges, name)
    if not topo.is_connected():
        raise TopologyError(f"{name}: generated graph is disconnected (internal error)")
    return topo


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def line(n: int, rng: Optional[np.random.Generator] = None, delay_range=(1.0, 1.0)) -> Topology:
    """Path graph 0-1-...-(n-1) — worst-case diameter."""
    if n < 1:
        raise TopologyError("line needs n >= 1")
    rng = rng or np.random.default_rng(0)
    return _finish(f"line-{n}", n, [(i, i + 1) for i in range(n - 1)], rng, delay_range)


def ring(n: int, rng: Optional[np.random.Generator] = None, delay_range=(1.0, 1.0)) -> Topology:
    """Cycle of n sites."""
    if n < 3:
        raise TopologyError("ring needs n >= 3")
    rng = rng or np.random.default_rng(0)
    pairs = [(i, (i + 1) % n) for i in range(n)]
    return _finish(f"ring-{n}", n, pairs, rng, delay_range)


def star(n: int, rng: Optional[np.random.Generator] = None, delay_range=(1.0, 1.0)) -> Topology:
    """Hub-and-spoke: site 0 is the hub."""
    if n < 2:
        raise TopologyError("star needs n >= 2")
    rng = rng or np.random.default_rng(0)
    return _finish(f"star-{n}", n, [(0, i) for i in range(1, n)], rng, delay_range)


def complete(n: int, rng: Optional[np.random.Generator] = None, delay_range=(1.0, 1.0)) -> Topology:
    """Complete graph (small n only; useful in unit tests)."""
    if n < 2:
        raise TopologyError("complete needs n >= 2")
    rng = rng or np.random.default_rng(0)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return _finish(f"complete-{n}", n, pairs, rng, delay_range)


def grid(rows: int, cols: int, rng: Optional[np.random.Generator] = None, delay_range=(1.0, 1.0)) -> Topology:
    """rows × cols mesh."""
    if rows < 1 or cols < 1:
        raise TopologyError("grid needs rows, cols >= 1")
    rng = rng or np.random.default_rng(0)
    pairs = []
    for r in range(rows):
        for c in range(cols):
            i = r * cols + c
            if c + 1 < cols:
                pairs.append((i, i + 1))
            if r + 1 < rows:
                pairs.append((i, i + cols))
    return _finish(f"grid-{rows}x{cols}", rows * cols, pairs, rng, delay_range)


def torus(rows: int, cols: int, rng: Optional[np.random.Generator] = None, delay_range=(1.0, 1.0)) -> Topology:
    """rows × cols mesh with wrap-around links."""
    if rows < 3 or cols < 3:
        raise TopologyError("torus needs rows, cols >= 3")
    rng = rng or np.random.default_rng(0)
    pairs = []
    for r in range(rows):
        for c in range(cols):
            i = r * cols + c
            pairs.append((i, r * cols + (c + 1) % cols))
            pairs.append((i, ((r + 1) % rows) * cols + c))
    return _finish(f"torus-{rows}x{cols}", rows * cols, pairs, rng, delay_range)


def hypercube(dim: int, rng: Optional[np.random.Generator] = None, delay_range=(1.0, 1.0)) -> Topology:
    """dim-dimensional hypercube (2^dim sites)."""
    if dim < 1:
        raise TopologyError("hypercube needs dim >= 1")
    rng = rng or np.random.default_rng(0)
    n = 1 << dim
    pairs = [(i, i ^ (1 << b)) for i in range(n) for b in range(dim) if i < i ^ (1 << b)]
    return _finish(f"hypercube-{dim}", n, pairs, rng, delay_range)


def random_tree(n: int, rng: Optional[np.random.Generator] = None, delay_range=(1.0, 5.0)) -> Topology:
    """Uniform random recursive tree (each new site attaches to a random
    earlier one)."""
    if n < 1:
        raise TopologyError("tree needs n >= 1")
    rng = rng or np.random.default_rng(0)
    pairs = [(int(rng.integers(0, i)), i) for i in range(1, n)]
    return _finish(f"tree-{n}", n, pairs, rng, delay_range)


def erdos_renyi(
    n: int, p: float, rng: Optional[np.random.Generator] = None, delay_range=(1.0, 5.0)
) -> Topology:
    """G(n, p) with deterministic connectivity repair."""
    if n < 2:
        raise TopologyError("erdos_renyi needs n >= 2")
    if not 0.0 <= p <= 1.0:
        raise TopologyError(f"p must be in [0,1], got {p}")
    rng = rng or np.random.default_rng(0)
    iu, ju = np.triu_indices(n, k=1)
    mask = rng.random(len(iu)) < p
    edges = {(int(a), int(b)) for a, b in zip(iu[mask], ju[mask])}
    _repair_connectivity(n, edges)
    return _finish(f"er-{n}-p{p}", n, sorted(edges), rng, delay_range)


def barabasi_albert(
    n: int, m: int, rng: Optional[np.random.Generator] = None, delay_range=(1.0, 5.0)
) -> Topology:
    """Preferential attachment: each new site links to ``m`` earlier sites."""
    if n < 2 or m < 1 or m >= n:
        raise TopologyError(f"barabasi_albert needs n >= 2 and 1 <= m < n, got n={n} m={m}")
    rng = rng or np.random.default_rng(0)
    edges = set()
    # Seed: star over the first m+1 sites.
    targets: List[int] = []
    for i in range(1, m + 1):
        edges.add((0, i))
        targets += [0, i]
    for i in range(m + 1, n):
        chosen: set = set()
        while len(chosen) < m:
            pick = targets[int(rng.integers(len(targets)))]
            chosen.add(pick)
        for t in chosen:
            edges.add((min(i, t), max(i, t)))
            targets += [i, t]
    return _finish(f"ba-{n}-m{m}", n, sorted(edges), rng, delay_range)


def _cell_pairs(pts: np.ndarray, radius: float) -> Tuple[np.ndarray, np.ndarray]:
    """Every site pair ``a < b`` that can lie within ``radius``: a cell list.

    Sites are binned into square cells at least ``radius`` wide (and no
    finer than ~one site per cell), so both ends of a link sit in the same
    3x3 block of cells; each site is paired only with that block — work
    and memory follow the number of links, not ``n**2``. The 1e-9 margin
    keeps rounding in ``pts * cells`` from putting the ends of a
    ``radius``-long link two cells apart.
    """
    n = len(pts)
    cells = max(1, min(int((1.0 - 1e-9) / radius), int(np.sqrt(n))))
    cxy = np.minimum((pts * cells).astype(np.int64), cells - 1)
    key = cxy[:, 0] * cells + cxy[:, 1]
    order = np.argsort(key, kind="stable")
    start = np.searchsorted(key[order], np.arange(cells * cells + 1))
    cx, cy = cxy[order, 0], cxy[order, 1]
    firsts, seconds = [], []
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            nx, ny = cx + dx, cy + dy
            src = np.flatnonzero((nx >= 0) & (nx < cells) & (ny >= 0) & (ny < cells))
            block = nx[src] * cells + ny[src]
            lo = start[block]
            count = start[block + 1] - lo
            # expand (site, its neighbouring cell) into (site, each site there)
            within = np.arange(int(count.sum())) - np.repeat(np.cumsum(count) - count, count)
            firsts.append(order[np.repeat(src, count)])
            seconds.append(order[np.repeat(lo, count) + within])
    a, b = np.concatenate(firsts), np.concatenate(seconds)
    keep = a < b
    return a[keep], b[keep]


def _distances(pts: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    dx = pts[a, 0] - pts[b, 0]
    dy = pts[a, 1] - pts[b, 1]
    return np.sqrt(dx * dx + dy * dy)


def _closest_cross_pair(
    pts: np.ndarray, comp: np.ndarray, outside: np.ndarray
) -> Tuple[float, int, int]:
    """``min (distance, a, b)`` over site pairs ``a < b`` in different
    components with an end in ``outside``, queried in bounded row blocks."""
    n = len(pts)
    everyone = np.arange(n)[None, :]
    step = max(1, (1 << 18) // n)
    best = None
    for lo in range(0, len(outside), step):
        rows = outside[lo : lo + step]
        dist = _distances(pts, rows[:, None], everyone)
        dist[comp[rows][:, None] == comp[None, :]] = np.inf
        d = float(dist.min())
        if not np.isfinite(d) or (best is not None and d > best[0]):
            continue
        r, c = np.nonzero(dist == d)
        ends = zip(np.minimum(rows[r], c).tolist(), np.maximum(rows[r], c).tolist())
        found = (d, *min(ends))
        if best is None or found < best:
            best = found
    if best is None:
        raise TopologyError("random_geometric repair failed (internal error)")
    return best


def random_geometric(
    n: int,
    radius: float,
    rng: Optional[np.random.Generator] = None,
    delay_scale: float = 10.0,
) -> Topology:
    """Sites uniform in the unit square; link iff within ``radius``.

    Delays are proportional to Euclidean distance (``delay_scale`` × dist),
    the natural "propagation delay" model. Connectivity is repaired by
    linking nearest pairs of components (delay = scaled distance), so the
    result stays geometrically meaningful: while more than one component
    is left, the closest cross-component pair — ties to the lowest
    ``(a, b)`` — gains a link. Every such pair has an end outside the
    largest initial component, so only those sites are ever queried.
    """
    if n < 2:
        raise TopologyError("random_geometric needs n >= 2")
    if radius <= 0:
        raise TopologyError("radius must be > 0")
    rng = rng or np.random.default_rng(0)
    pts = rng.random((n, 2))
    a, b = _cell_pairs(pts, radius)
    dist = _distances(pts, a, b)
    linked = dist <= radius
    a, b, dist = a[linked], b[linked], dist[linked]

    comp = np.array(_components(n, zip(a.tolist(), b.tolist())))
    outside = np.flatnonzero(comp != np.bincount(comp).argmax())
    repairs = []
    while (comp != comp[0]).any():
        d, u, v = _closest_cross_pair(pts, comp, outside)
        repairs.append((d, u, v))
        comp[comp == comp[v]] = comp[u]
    if repairs:
        d_new, a_new, b_new = zip(*repairs)
        a, b = np.append(a, a_new), np.append(b, b_new)
        dist = np.append(dist, d_new)

    order = np.lexsort((b, a))
    edges = zip(a[order].tolist(), b[order].tolist(), (delay_scale * dist[order]).tolist())
    return Topology(n, tuple(edges), f"geo-{n}-r{radius}")


def watts_strogatz(
    n: int,
    k: int,
    beta: float,
    rng: Optional[np.random.Generator] = None,
    delay_range=(1.0, 5.0),
) -> Topology:
    """Small-world rewiring of a ring lattice (k nearest neighbours)."""
    if n < 4 or k < 2 or k % 2 or k >= n:
        raise TopologyError(f"watts_strogatz needs n >= 4, even k in [2, n), got n={n} k={k}")
    if not 0.0 <= beta <= 1.0:
        raise TopologyError(f"beta must be in [0,1], got {beta}")
    rng = rng or np.random.default_rng(0)
    edges = set()
    for i in range(n):
        for j in range(1, k // 2 + 1):
            edges.add((min(i, (i + j) % n), max(i, (i + j) % n)))
    rewired = set()
    for u, v in sorted(edges):
        if rng.random() < beta:
            w = int(rng.integers(n))
            attempts = 0
            while (w == u or (min(u, w), max(u, w)) in edges or (min(u, w), max(u, w)) in rewired) and attempts < 4 * n:
                w = int(rng.integers(n))
                attempts += 1
            if attempts < 4 * n:
                rewired.add((min(u, w), max(u, w)))
                continue
        rewired.add((u, v))
    _repair_connectivity(n, rewired)
    return _finish(f"ws-{n}-k{k}-b{beta}", n, sorted(rewired), rng, delay_range)


# ---------------------------------------------------------------------------
# factory & network construction
# ---------------------------------------------------------------------------

_FACTORIES: Dict[str, Callable[..., Topology]] = {
    "line": line,
    "ring": ring,
    "star": star,
    "complete": complete,
    "grid": grid,
    "torus": torus,
    "hypercube": hypercube,
    "tree": random_tree,
    "erdos_renyi": erdos_renyi,
    "barabasi_albert": barabasi_albert,
    "geometric": random_geometric,
    "watts_strogatz": watts_strogatz,
}


def topology_factory(kind: str, **kwargs) -> Topology:
    """Build a topology by name; see ``_FACTORIES`` for the catalogue."""
    try:
        fn = _FACTORIES[kind]
    except KeyError:
        raise TopologyError(f"unknown topology kind {kind!r}; known: {sorted(_FACTORIES)}") from None
    return fn(**kwargs)


def build_network(
    topo: Topology,
    sim: Simulator,
    site_factory: Callable[[SiteId, Network], object],
    tracer: Optional[Tracer] = None,
    throughput: Optional[float] = None,
    admission_cache=None,
) -> Network:
    """Instantiate a live network from a topology description.

    ``site_factory(sid, network)`` must construct (and thereby register) the
    site object for each id — this is how experiments plug in RTDS sites vs
    baseline sites over identical topologies.

    When the topology carries ``site_speeds``, they are installed on every
    site after construction (the topology is the source of truth for the
    heterogeneity it describes); a factory that already passed the same
    speed — the experiment runner does — sees no change.
    """
    net = Network(sim, tracer)
    if admission_cache is not None:
        # installed before any site is built: RTDS sites bind the shared
        # network-level cache (repro.core.admission_cache) at construction
        net.admission_cache = admission_cache
    for sid in range(topo.n):
        site_factory(sid, net)
    for u, v, d in topo.edges:
        net.add_link(u, v, d, throughput)
    if topo.site_speeds is not None:
        for sid in range(topo.n):
            net.site(sid).speed = topo.site_speeds[sid]
    return net
