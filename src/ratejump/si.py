"""SI epidemic (unit-rate exponential edge clocks) on an undirected graph.

Infection spreads from a source vertex; each edge between an infected and
a susceptible vertex rings after an independent Exponential(1) waiting
time.  The infection counting process N(t) then behaves locally like an
inhomogeneous Poisson process whose rate is the size of the cut between
infected and susceptible vertices, and the infection of a vertex of
degree d changes that rate by d - 2*(already-infected neighbors): a lone
high-degree vertex produces a detectable upward rate jump.

The simulator is first-passage percolation: it draws one Exponential
weight per edge up front, and a vertex's infection time is its
shortest-path distance from the source under those weights.  This is
equal in law to running the clocks.  An edge's clock matters only from
the moment its first endpoint is infected, and then only until it rings,
and by memorylessness its remaining wait at that moment is again
Exponential and independent of the past, just like a weight drawn in
advance.  So the infection time of v is the minimum over paths of the
summed weights, which Dijkstra computes.  The i-th weight belongs to the
i-th edge of ``Graph.edges()``.

On a tree (a connected graph with n - 1 edges) there is one path to each
vertex, so its time is its BFS parent's time plus the weight of the edge
between them.  The simulator then sums the weights down one breadth-first
order from the source a level at a time, with the same floating-point
additions Dijkstra would make, so the times are bit-identical.  A level
costs a few numpy calls, so a tree with more levels than a measured
cut-off (path-like trees) keeps Dijkstra.  Both read the int32 arc CSR
and edge list a ``Graph`` builds once, which scipy takes without a copy.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from itertools import chain

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order, connected_components, dijkstra

from .process import EventTimes
from .seeding import generator

__all__ = [
    "Graph",
    "CascadeTrace",
    "build_tree_with_hub",
    "simulate_si",
    "infection_count_process",
    "rate_at",
    "jump_at_infection",
    "load_edge_list",
    "save_edge_list",
    "load_trace_csv",
    "save_trace_csv",
]


class Graph:
    """Undirected simple connected graph, stored once as int32 arrays.

    ``indptr``/``indices`` hold each edge {u, v} as the arcs u -> v and
    v -> u; the neighbors of v are ``indices[indptr[v]:indptr[v + 1]]`` in
    the order given.  Edge i is ``edge_u[i] < edge_v[i]``, the i-th arc with
    u < v in CSR order; ``edges()`` yields this order and edge weights are
    indexed by it.  Build one from adjacency lists with ``Graph(adjacency)``
    or from arc arrays with ``Graph.from_arcs``; both validate simplicity
    (no self-loops, no parallel edges), symmetry, and connectivity.
    """

    def __init__(self, adjacency, hub: "int | None" = None):
        n = len(adjacency)
        lengths = np.fromiter(map(len, adjacency), dtype=np.int64, count=n)
        src = np.repeat(np.arange(n, dtype=np.int64), lengths)
        dst = np.fromiter(chain.from_iterable(adjacency), dtype=np.int64, count=src.size)
        self._set_arcs(n, src, dst, hub)

    @classmethod
    def from_arcs(cls, n: int, src, dst, hub: "int | None" = None) -> "Graph":
        """Graph on vertices 0..n-1 with one arc src[i] -> dst[i] per entry."""
        graph = cls.__new__(cls)
        graph._set_arcs(n, np.asarray(src, dtype=np.int64), np.asarray(dst, dtype=np.int64), hub)
        return graph

    def _set_arcs(self, n: int, src: np.ndarray, dst: np.ndarray, hub) -> None:
        if n == 0:
            raise ValueError("graph must have at least one vertex")
        if max(n, src.size) > np.iinfo(np.int32).max:
            raise ValueError(f"{n} vertices and {src.size} arcs do not fit int32 indices")
        if src.size:
            if min(src.min(), dst.min()) < 0 or max(src.max(), dst.max()) >= n:
                raise ValueError("adjacency references a vertex id out of range")
            loops = src == dst
            if loops.any():
                raise ValueError(f"self-loop at vertex {int(src[np.argmax(loops)])}")
            key_fwd = np.sort(src * n + dst)
            if np.any(key_fwd[1:] == key_fwd[:-1]):
                raise ValueError("parallel edge: some neighbor is listed twice")
            if not np.array_equal(key_fwd, np.sort(dst * n + src)):
                raise ValueError("adjacency is not symmetric")
            del key_fwd  # before the stored arrays are built, to keep peak memory down
        self.hub = hub
        self.indices = dst.astype(np.int32)[np.argsort(src, kind="stable")]
        self.indptr = _row_pointers(src, n)
        tails = np.repeat(np.arange(n, dtype=np.int32), np.diff(self.indptr))
        upper = np.flatnonzero(tails < self.indices)
        self.edge_u, self.edge_v = tails[upper], self.indices[upper]
        if n > 1:
            arcs = csr_matrix((np.ones(src.size), self.indices, self.indptr), shape=(n, n))
            n_comp, _ = connected_components(arcs, directed=False)
            if n_comp != 1:
                raise ValueError(f"graph must be connected; found {n_comp} components")

    @property
    def n(self) -> int:
        return self.indptr.size - 1

    def neighbors(self, v: int) -> np.ndarray:
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range for {self.n} vertices")
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    @property
    def n_edges(self) -> int:
        return self.edge_u.size

    def edges(self):
        """Iterate over each undirected edge once as (u, v), u < v; weights[i] is edge i's."""
        return zip(self.edge_u.tolist(), self.edge_v.tolist())


def _row_pointers(rows: np.ndarray, n: int) -> np.ndarray:
    """int32 CSR row pointers of n rows holding the entries with these row ids."""
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return indptr


@dataclass(frozen=True)
class CascadeTrace:
    """Infection times of every vertex of one cascade; source at time 0."""

    times: np.ndarray
    source: int

    def __post_init__(self) -> None:
        times = np.ascontiguousarray(self.times, dtype=np.float64)
        object.__setattr__(self, "times", times)
        if times.ndim != 1 or times.size == 0:
            raise ValueError("times must be a non-empty one-dimensional array")
        if not (0 <= self.source < times.size):
            raise ValueError(f"source {self.source} out of range for {times.size} vertices")
        if times[self.source] != 0.0:
            raise ValueError(f"source must be infected at time 0, got {times[self.source]}")
        if not np.all(np.isfinite(times)) or np.any(times < 0):
            raise ValueError("infection times must be finite and non-negative")

    @property
    def n(self) -> int:
        return int(self.times.size)


def build_tree_with_hub(height: int, extra_leaves: int) -> Graph:
    """Perfect binary tree of the given height plus a planted high-degree hub.

    Vertices 0 .. 2^(height+1)-2 form the perfect tree in heap order
    (children of i are 2i+1 and 2i+2); ``extra_leaves`` new leaf vertices
    are attached to the hub, the leftmost vertex at depth height-1
    (index 2^(height-1) - 1).  The hub's final degree is extra_leaves + 3
    (parent + two subtree children + the new leaves), while every other
    vertex has degree <= 3.
    """
    if not (isinstance(height, (int, np.integer)) and height >= 1):
        raise ValueError(f"height must be an integer >= 1, got {height}")
    if not (isinstance(extra_leaves, (int, np.integer)) and extra_leaves >= 0):
        raise ValueError(f"extra_leaves must be >= 0, got {extra_leaves}")
    n_tree = 2 ** (height + 1) - 1
    hub = 2 ** (height - 1) - 1
    n = n_tree + extra_leaves
    # every vertex but the root hangs off one parent: its heap parent, or the hub
    child = np.arange(1, n, dtype=np.int64)
    parent = np.where(child < n_tree, (child - 1) // 2, hub)
    return Graph.from_arcs(
        n, np.concatenate((child, parent)), np.concatenate((parent, child)), hub=hub
    )


def simulate_si(graph: Graph, source: int, seed, rate: float = 1.0) -> CascadeTrace:
    """Run one SI cascade from ``source`` until every vertex is infected.

    ``seed`` may be an integer, a SimSeed, or a numpy Generator; equal
    seeds give identical traces.  Edge clocks are Exponential(rate).
    """
    n = graph.n
    if isinstance(source, (bool, np.bool_)) or not isinstance(source, (int, np.integer)):
        raise ValueError(f"source must be an integer vertex id, got {source!r}")
    if not (0 <= source < n):
        raise ValueError(f"source {source} out of range for {n} vertices")
    if not (rate > 0 and np.isfinite(rate)):
        raise ValueError(f"rate must be positive and finite, got {rate}")
    rng = seed if isinstance(seed, np.random.Generator) else generator(seed)
    weights = rng.exponential(1.0 / float(rate), graph.n_edges)
    return CascadeTrace(times=_first_passage(graph, weights, source), source=source)


def _first_passage(graph: Graph, weights: np.ndarray, source: int) -> np.ndarray:
    """Shortest-path distances from ``source`` when the i-th edge of
    ``graph.edges()`` has length ``weights[i]``.

    Trees with few enough BFS levels go to ``_tree_fold``.  Deeper trees
    and every other graph go to Dijkstra: each edge is one entry (u, v),
    u < v, of an upper-triangular matrix that the undirected search reads
    both ways.  A weight of exactly 0.0 stays an explicit entry, so the edge
    still joins its endpoints; an edge lost as an implicit zero would leave
    a vertex at distance inf, which raises.
    """
    n = graph.n
    times = _tree_fold(graph, weights, source) if graph.n_edges == n - 1 else None
    if times is None:
        matrix = csr_matrix((weights, graph.edge_v, _row_pointers(graph.edge_u, n)), shape=(n, n))
        times = dijkstra(matrix, directed=False, indices=source)
    unreached = int(np.count_nonzero(np.isinf(times)))
    if unreached:
        raise RuntimeError(
            f"cascade stalled with {unreached} vertices never infected; "
            "the graph is not connected"
        )
    return times


# A tree of n vertices is folded when it has at most
# _FOLD_FREE_LEVELS + n // _FOLD_VERTICES_PER_LEVEL levels from the source.
# Each level costs the fold about 3.5 us of numpy calls, against 0.1-0.4 us
# per vertex for Dijkstra and about 50 us more fixed cost per Dijkstra call.
# Timed on trees of uniform width (2-core x86-64, numpy 2.4, scipy 1.17), the
# fold stops winning at 12-16 levels when narrow and at about n/32 levels
# when 32 or more vertices wide.
_FOLD_FREE_LEVELS = 12
_FOLD_VERTICES_PER_LEVEL = 32


def _tree_fold(graph: Graph, weights: np.ndarray, source: int) -> "np.ndarray | None":
    """First-passage times on a tree, or None when it has too many levels.

    On a tree the only path to a vertex runs through its BFS parent, so its
    time is t[parent] + w(parent, vertex): the one addition Dijkstra makes
    when it settles the vertex (a relaxation back from a child never wins,
    as d + w >= d for w >= 0).  Folding the BFS levels in order therefore
    gives the same bits as Dijkstra.
    """
    n = graph.n
    max_levels = _FOLD_FREE_LEVELS + n // _FOLD_VERTICES_PER_LEVEL
    # every vertex of a level has a leaf of its own below it, so a tree with
    # few leaves has many levels: n - 1 <= levels * leaves
    leaves = int(np.count_nonzero(np.diff(graph.indptr) == 1))
    if n - 1 > leaves * max_levels:
        return None
    # float64 data is what the search converts any matrix to
    arcs = csr_matrix((np.ones(graph.indices.size), graph.indices, graph.indptr), shape=(n, n))
    order, pred = breadth_first_order(arcs, source, directed=True, return_predecessors=True)
    # the last vertex in BFS order lies on the last level; walk up from it,
    # reading parents as Python ints through a memoryview
    parents = memoryview(pred)
    vertex, levels = int(order[-1]), 0
    while vertex != source:
        if levels == max_levels:
            return None
        vertex, levels = parents[vertex], levels + 1
    # below, everything is indexed by BFS rank
    rank = np.empty(n, dtype=np.intp)
    rank[order] = np.arange(n)
    pred[source] = source
    parent = rank[pred[order]]  # non-decreasing: BFS takes parents in order
    u, v = graph.edge_u, graph.edge_v
    step = np.zeros(n)  # weight of the edge from each vertex's parent
    step[rank[np.where(pred[v] == u, v, u)]] = weights
    ranked = np.zeros(n)
    start = 1
    while start < n:
        # the level starting at rank start: the vertices whose parents rank below it
        end = int(parent.searchsorted(start))
        ranked[start:end] = ranked[parent[start:end]] + step[start:end]
        start = end
    return ranked[rank]


def infection_count_process(trace: CascadeTrace) -> EventTimes:
    """The cascade's counting process: one event per infection (source included)."""
    times = np.sort(trace.times)
    return EventTimes(times=times, horizon=float(times[-1]))


def rate_at(graph: Graph, infected) -> int:
    """Size of the cut between ``infected`` and the rest = current infection rate."""
    infected = set(infected)
    return sum(u not in infected for v in infected for u in graph.neighbors(v).tolist())


def jump_at_infection(graph: Graph, infected, v: int) -> int:
    """Change in the cut when susceptible ``v`` (adjacent to the cut) is infected.

    Equals degree(v) - 2 * |neighbors of v already infected|.
    """
    infected = set(infected)
    if v in infected:
        raise ValueError(f"vertex {v} is already infected")
    neighbors = graph.neighbors(v).tolist()
    overlap = sum(u in infected for u in neighbors)
    if overlap == 0:
        raise ValueError(f"vertex {v} has no infected neighbor, so it cannot be next")
    return len(neighbors) - 2 * overlap


# ---------------------------------------------------------------------------
# file formats


def load_edge_list(path) -> Graph:
    """Read an undirected graph from text: one ``u v`` pair per line (0-indexed).

    Blank lines and ``#`` comments are ignored.  A self-loop or an edge
    listed twice (in either orientation) is rejected with its line, and the
    resulting graph must pass the usual validation (connected).
    """
    first_line = {}  # (min, max) endpoint pair -> line it was first listed on
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"{path}: line {lineno}: expected 'u v', got {line!r}")
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: vertex ids must be integers") from None
            if u < 0 or v < 0:
                raise ValueError(f"{path}: line {lineno}: vertex ids must be >= 0")
            if u == v:
                raise ValueError(f"{path}: line {lineno}: self-loop at vertex {u}")
            earlier = first_line.setdefault((min(u, v), max(u, v)), lineno)
            if earlier != lineno:
                raise ValueError(
                    f"{path}: line {lineno}: edge {u} {v} repeats the edge on line {earlier}"
                )
    if not first_line:
        raise ValueError(f"{path}: no edges")
    ends = np.asarray(list(first_line), dtype=np.int64)
    return Graph.from_arcs(int(ends.max()) + 1, ends.ravel(), ends[:, ::-1].ravel())


def save_edge_list(graph: Graph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# undirected edge list, {graph.n} vertices\n")
        for u, v in graph.edges():
            fh.write(f"{u} {v}\n")


def load_trace_csv(path) -> CascadeTrace:
    """Read a cascade trace from CSV with header ``vertex,time``.

    The source is the vertex with the smallest infection time (0 for any
    trace written by this package).
    """
    rows = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip().lower() for h in header[:2]] != ["vertex", "time"]:
            raise ValueError(f"{path}: expected header 'vertex,time', got {header}")
        for rowno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                v, t = int(row[0]), float(row[1])
            except (ValueError, IndexError):
                raise ValueError(f"{path}: row {rowno}: expected 'vertex,time'") from None
            if v < 0:
                raise ValueError(f"{path}: row {rowno}: vertex must be >= 0, got {v}")
            if not (np.isfinite(t) and t >= 0):
                raise ValueError(f"{path}: row {rowno}: time must be finite and >= 0, got {t}")
            if v in rows:
                raise ValueError(f"{path}: row {rowno}: duplicate vertex {v}")
            rows[v] = t
    if not rows:
        raise ValueError(f"{path}: no data rows")
    n = max(rows) + 1
    if set(rows) != set(range(n)):
        missing = sorted(set(range(n)) - set(rows))[:5]
        raise ValueError(f"{path}: missing vertices, e.g. {missing}")
    times = np.asarray([rows[v] for v in range(n)])
    return CascadeTrace(times=times, source=int(np.argmin(times)))


def save_trace_csv(trace: CascadeTrace, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["vertex", "time"])
        for v, t in enumerate(trace.times):
            writer.writerow([v, repr(float(t))])
