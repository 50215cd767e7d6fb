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
i-th edge of ``_edge_ends``.

On a tree (a connected graph with n - 1 edges) there is one path to each
vertex, so its time is its BFS parent's time plus the weight of the edge
between them.  The simulator then sums the weights down one breadth-first
order from the source a level at a time, with the same floating-point
additions Dijkstra would make, so the times are bit-identical.  The BFS,
its levels and the permutations that carry weights to BFS ranks and times
back depend only on the tree and the source, so the graph keeps them for
the last source asked: the first cascade from a source pays for the BFS,
and later cascades on the same graph from that source only fold the
weights.  A cascade on a tree allocates two float64 arrays of n: the
weights are drawn into the first, which the fold reads once and then
reuses for the times, and the second holds the times by BFS rank, to
which each level adds its parents' times in place.  Every gather through
the plan's int32 indices goes through ``_gather``, which writes into its
``out`` with ``np.take(..., mode="clip")`` a chunk of indices at a time:
clipping skips numpy's per-call bounds check and the copy that check
costs, and a chunk of 2**16 indices (``_GATHER_CHUNK``) bounds the intp
copy numpy makes of int32 indices to 512 KB, which stays in cache.
Clipping is safe because the plan's every index was checked once, when
the plan was built, and an index out of range there is a RuntimeError.
A level costs a few numpy calls, so a tree with more levels than a
measured cut-off (path-like trees) keeps Dijkstra, and the graph
remembers that verdict too.  A ``Graph`` holds one int32 arc
CSR, built once; the fold plan's build and Dijkstra derive the edge list
from it (``_edge_ends``), as int32 arrays that scipy takes without a copy.

Building a graph from its edges, each listed once (``Graph(n, u, v)``,
connectivity check included), and folding a tree use numpy alone.  Two
refusals come before any array of size n: a graph with fewer than n - 1
edges, which no connected graph has, and a planted-hub tree too large for
the int32 indices (``build_tree_with_hub``), named by its height and
extra_leaves.  Only the Dijkstra search needs scipy (``scipy.sparse`` and
``csgraph``), and it imports them on first use: a cascade on a graph that
is not a tree, or on a tree too deep to fold, loads scipy, and
``import ratejump``, a graph build or a tree cascade does not.
"""

from __future__ import annotations

import array
import csv
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .process import (EventTimes, _blank_row, _check_finite, _check_indices, _check_integer,
                      _fields_equal, _file_error, _first_repeat, _input_file, _parse_number,
                      _text_lines, _write_csv)
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
    "load_trace_csv",
    "save_trace_csv",
]

# The largest vertex id that a Graph's int32 CSR indexes (``_check_indices``),
# so the largest a graph or trace file may name
_MAX_VERTEX = np.iinfo(np.int32).max - 1


class Graph:
    """Undirected simple connected graph, stored once as int32 arrays.

    ``Graph(n, u, v)`` builds the graph on vertices 0..n-1 with edge i
    between u[i] and v[i], each edge listed once and in either orientation.
    It validates simplicity (no self-loops, no edge listed twice), naming
    the first edge at fault in input order (``_repeated_edge``), and
    connectivity: fewer than n - 1 edges are refused before any array of
    size n is built.  ``hub`` is the planted hub it was given
    (``build_tree_with_hub``), a vertex id, else None.

    ``indptr``/``indices``, the graph's one representation, hold each edge
    {u, v} as the arcs u -> v and v -> u; the neighbors of x are
    ``indices[indptr[x]:indptr[x + 1]]``: first those of the edges given as
    (x, y), then those of the edges given as (y, x), each in input order.
    No edge list is stored: the fold plan's build and Dijkstra derive it
    from the CSR, and ``_edge_ends`` alone states its order.

    A graph is not changed after it is built: its CSR is read-only, and so
    are the arrays of the tree fold's plan that ``simulate_si`` keeps on it
    for the last source asked (``_fold_plan``), in a pickled copy too.
    """

    def __init__(self, n: int, u, v, hub: "int | None" = None):
        u, v = np.asarray(u), np.asarray(v)
        if (u.ndim != 1 or u.shape != v.shape
                or (u.size and {u.dtype.kind, v.dtype.kind} - set("iu"))):
            raise ValueError(f"u and v must be one-dimensional integer arrays of one length, "
                             f"got {u.dtype} {u.shape} and {v.dtype} {v.shape}")
        n = _check_integer(n, "n", high=math.inf)
        _check_indices(n, 2 * u.size)
        if u.size:
            if min(u.min(), v.min()) < 0 or max(u.max(), v.max()) >= n:
                raise ValueError("an edge references a vertex id out of range")
            loops = np.flatnonzero(u == v)
            if loops.size:
                raise ValueError(f"self-loop at vertex {int(u[loops[0]])}")
            if repeat := _repeated_edge(u, v, n):
                low, high = sorted((int(u[repeat[0]]), int(v[repeat[0]])))
                raise ValueError(f"parallel edge: edge {{{low}, {high}}} is listed twice")
        if u.size < n - 1:
            # no such graph is connected: its components are counted before anything
            # of size n is built, as the isolated vertices and those of the edges' ends
            ends, pairs = np.unique(np.concatenate((u, v)), return_inverse=True)
            components = n - ends.size + _component_count(ends.size, pairs[:u.size],
                                                          pairs[u.size:])
            raise ValueError(f"graph must be connected; found {components} components")
        self.hub = None if hub is None else _check_integer(hub, "hub", low=0, high=n - 1)
        self._fold_memo = None  # (source, _fold_plan(self, source)) once a tree is folded
        # arc i is u[i] -> v[i] and arc m + i its reverse; ids are in range, so int32 is exact
        src = np.concatenate((u, v), dtype=np.int32, casting="unsafe")
        self.indices = np.concatenate((v, u), dtype=np.int32, casting="unsafe")[
            np.argsort(src, kind="stable")]
        self.indptr = _row_pointers(src, n)
        components = _component_count(n, src[:u.size], src[u.size:])
        del src
        if components != 1:
            raise ValueError(f"graph must be connected; found {components} components")
        self._freeze()

    def __setstate__(self, state) -> None:
        # pickle hands arrays back writeable; the copy is read-only as the graph was
        self.__dict__.update(state)
        self._freeze()

    def _freeze(self) -> None:
        """Make the CSR and a kept fold plan read-only: edge ids are derived
        from the CSR on every read, and the fold's gathers trust the plan's
        indices, checked once when it was built."""
        plan = self._fold_memo and self._fold_memo[1]
        for array in (self.indptr, self.indices, *(plan or ())):
            array.flags.writeable = False

    @property
    def n(self) -> int:
        return self.indptr.size - 1

    def neighbors(self, v: int) -> np.ndarray:
        v = _check_integer(v, "vertex", low=0, high=self.n - 1)
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    @property
    def n_edges(self) -> int:
        return self.indices.size // 2


def _repeated_edge(u, v, n: int) -> "tuple[int, int] | None":
    """``_first_repeat`` of the edges u[i] -- v[i] on n vertices: edge {u, v}
    has the one int64 key min(u, v) * n + max(u, v) in either orientation."""
    key = np.minimum(u, v, dtype=np.int64)
    key *= n
    key += np.maximum(u, v, dtype=np.int64)
    return _first_repeat(key)


def _edge_ends(graph: Graph) -> "tuple[np.ndarray, np.ndarray]":
    """int32 arrays (u, v) of the graph's edges: edge i is the i-th arc
    u -> v with u < v in CSR order, so u is sorted, and edge weights are
    indexed by it.  They are derived from the CSR on each call; the graph
    keeps no edge list."""
    tails = np.repeat(np.arange(graph.n, dtype=np.int32), np.diff(graph.indptr))
    # take at flatnonzero's positions: about twice as fast here as a boolean mask
    upper = np.flatnonzero(tails < graph.indices)
    return tails.take(upper), graph.indices.take(upper)


def _row_pointers(rows: np.ndarray, n: int) -> np.ndarray:
    """int32 CSR row pointers of n rows holding the entries with these row ids."""
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return indptr


def _component_count(n: int, u: np.ndarray, v: np.ndarray) -> int:
    """Number of connected components of the graph on 0..n-1 with the
    edges u[i] -- v[i].

    Hook and shortcut: every vertex points at a root, at first itself.  A
    round hooks the larger root of each edge whose ends have different
    roots onto the smallest root joined to it, then jumps pointers until
    every tree is a star.  Hooks only lower a pointer, so no cycle forms;
    the rounds stop when no edge joins two roots, and each root is then
    one component.
    """
    root = np.arange(n, dtype=np.int32)
    while True:
        ru, rv = root.take(u), root.take(v)
        joins = ru != rv
        if not joins.any():
            return int(np.count_nonzero(root == np.arange(n, dtype=np.int32)))
        ru, rv = ru[joins], rv[joins]
        np.minimum.at(root, np.maximum(ru, rv), np.minimum(ru, rv))
        del ru, rv, joins
        while True:
            up = root.take(root)
            if np.array_equal(up, root):
                break
            root = up


@dataclass(frozen=True)
class CascadeTrace:
    """Infection times of every vertex of one cascade; source at time 0."""

    times: np.ndarray
    source: int

    __eq__ = _fields_equal

    def __post_init__(self) -> None:
        times = np.ascontiguousarray(self.times, dtype=np.float64)
        object.__setattr__(self, "times", times)
        if times.ndim != 1 or times.size == 0:
            raise ValueError("times must be a non-empty one-dimensional array")
        _check_integer(self.source, "source", low=0, high=times.size - 1)
        if times[self.source] != 0.0:
            raise ValueError(f"source must be infected at time 0, got {times[self.source]}")
        # two reductions and no temporary of size n; a NaN fails both comparisons
        if not (times.min() >= 0 and times.max() < math.inf):
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

    A tree beyond ``Graph``'s int32 bound is a ValueError naming height and
    extra_leaves, raised before any array is made: height 29 with 1 extra
    leaf is the largest that fits.
    """
    height = _check_integer(height, "height", high=math.inf)
    extra_leaves = _check_integer(extra_leaves, "extra_leaves", low=0, high=math.inf)
    n_tree = 2 ** (height + 1) - 1
    hub = 2 ** (height - 1) - 1
    n = n_tree + extra_leaves
    _check_indices(n, 2 * (n - 1), f"height {height} and extra_leaves {extra_leaves}: ")
    # every vertex but the root hangs off one parent: its heap parent, or the hub
    child = np.arange(1, n, dtype=np.int32)
    parent = np.full(n - 1, hub, dtype=np.int32)
    np.subtract(child[:n_tree - 1], 1, out=parent[:n_tree - 1])
    parent[:n_tree - 1] //= 2
    return Graph(n, child, parent, hub=hub)


def simulate_si(graph: Graph, source: int, seed) -> CascadeTrace:
    """Run one SI cascade from ``source`` until every vertex is infected.

    ``seed`` may be an integer, a SimSeed, or a numpy Generator; equal
    seeds give identical traces.  Edge clocks are Exponential(1).

    The weights are drawn into one array of max(n, n_edges), with the bits
    of ``rng.standard_exponential(n_edges)``.  On a tree the fold reads
    them once and then writes the times into that same array, so the
    cascade holds it and the fold's array of times by BFS rank, and no
    third array of n; Dijkstra returns times of its own.
    """
    _check_integer(source, "source", low=0, high=graph.n - 1)
    rng = generator(seed)
    buffer = np.empty(max(graph.n, graph.n_edges))
    weights = buffer[:graph.n_edges]
    # the doubles of rng.exponential(1.0, ...), without its scale pass
    rng.standard_exponential(out=weights)
    return CascadeTrace(times=_first_passage(graph, weights, source, buffer), source=source)


def _first_passage(graph: Graph, weights: np.ndarray, source: int,
                   buffer: "np.ndarray | None" = None) -> np.ndarray:
    """Shortest-path distances from ``source`` when the i-th edge of
    ``_edge_ends(graph)`` has length ``weights[i]``.

    Trees with few enough BFS levels go to ``_tree_fold``.  Deeper trees
    and every other graph go to Dijkstra, the one search that imports
    scipy: each edge is one entry (u, v), u < v, of an upper-triangular
    matrix that the undirected search reads both ways.  A weight of exactly
    0.0 stays an explicit entry, so the edge still joins its endpoints; an
    edge lost as an implicit zero would leave a vertex at distance inf,
    which raises.

    The fold writes the times into an array of n of its own, or, when
    ``buffer`` is given, into its first n: ``simulate_si``'s array, whose
    front holds the weights, which the fold has read by its first write.
    Without a buffer the weights are never written.  Dijkstra leaves the
    buffer alone.
    """
    n = graph.n
    weights = np.asarray(weights, dtype=np.float64)
    plan = _memo_plan(graph, source) if graph.n_edges == n - 1 else None
    if plan is not None:
        times = _tree_fold(plan, weights, np.empty(n) if buffer is None else buffer[:n])
    else:
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import dijkstra

        u, v = _edge_ends(graph)
        matrix = csr_matrix((weights, v, _row_pointers(u, n)), shape=(n, n))
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


class _FoldPlan(NamedTuple):
    """What folding a tree from one source needs besides the weights.

    Each is a read-only int32 array.  ``rank[v]`` is vertex v's place in
    the BFS order from the source (the source is rank 0), ``parent[r]`` the
    rank of rank r's BFS parent (the source's is itself), ``edge[r - 1]``
    the index of the edge from rank r's parent to it, and ``level_ends``
    the first rank of each level after the source's, then n.  The fold
    only gathers through them, with ``_gather``, whose ``np.take`` copies
    int32 indices to intp a chunk at a time.  ``_fold_plan`` checks that
    every index is in range before the fold's unchecked gathers read
    through it.
    """

    rank: np.ndarray
    parent: np.ndarray
    edge: np.ndarray
    level_ends: np.ndarray


def _memo_plan(graph: Graph, source: int) -> "_FoldPlan | None":
    """``_fold_plan(graph, source)``, kept on the graph for the last source
    asked, None (Dijkstra) included: a cascade bundle or a heatmap trial
    runs many cascades from one source, and the plan never changes.  The
    source and its plan sit in one tuple read once, so no caller can pair
    one source with another's plan."""
    memo = graph._fold_memo
    if memo is None or memo[0] != source:
        memo = graph._fold_memo = (int(source), _fold_plan(graph, source))
    return memo[1]


def _fold_plan(graph: Graph, source: int) -> "_FoldPlan | None":
    """The BFS tree of a tree from ``source``, or None when it has more
    than a cut-off number of levels to fold.

    Before any BFS, a tree with so few leaves that it must have too many
    levels is ruled out; otherwise the BFS stops at the cut-off.  The plan
    is checked once here: a rank, parent or edge index outside its range,
    or levels that do not rise from rank 1 to n, is a RuntimeError, since
    the fold's gathers clip rather than check.
    """
    n = graph.n
    max_levels = _FOLD_FREE_LEVELS + n // _FOLD_VERTICES_PER_LEVEL
    # every vertex of a level has a leaf of its own below it, so a tree with
    # few leaves has many levels: n - 1 <= levels * leaves
    leaves = int(np.count_nonzero(np.diff(graph.indptr) == 1))
    if n - 1 > leaves * max_levels:
        return None
    bfs = _tree_bfs(graph, source, max_levels)
    if bfs is None:
        return None
    rank, parent, level_ends = bfs
    _refuse_stray_indices(rank=rank, parent=parent, bound=n)
    # a tree edge leads from its end of lower rank, the parent, to the other;
    # a graph's edge ends are in [0, n) and so is rank, checked above.  Each
    # end is overwritten by its rank: np.take reads an index before it writes
    # that place, so a gather may write over its own indices
    child, other = _edge_ends(graph)
    _gather(rank, child, child)
    np.maximum(child, _gather(rank, other, other), out=child)
    del other
    edge = np.empty(n - 1, dtype=np.int32)
    edge[child - 1] = np.arange(n - 1, dtype=np.int32)
    _refuse_stray_indices(edge=edge, bound=n - 1)
    starts = np.concatenate(([1], level_ends))
    if starts[-1] != n or np.any(starts[1:] <= starts[:-1]):
        raise RuntimeError(f"internal consistency failure: the fold plan's levels "
                           f"do not rise from rank 1 to {n}")
    plan = _FoldPlan(rank, parent, edge, level_ends)
    for array in plan:
        array.flags.writeable = False
    return plan


def _refuse_stray_indices(bound: int, **arrays: np.ndarray) -> None:
    """Refuse a plan array holding an index outside [0, bound): the one
    check that lets ``_gather`` use ``mode="clip"``."""
    for name, array in arrays.items():
        if array.size and not (array.min() >= 0 and array.max() < bound):
            raise RuntimeError(f"internal consistency failure: the fold plan's {name} "
                               f"holds an index outside [0, {bound})")


def _tree_bfs(graph: Graph, source: int, max_levels: int):
    """``(rank, parent, level_ends)`` of ``_FoldPlan`` for a breadth-first
    search of a tree from ``source``, or None once a vertex lies more than
    ``max_levels`` levels below it.

    The search runs a level at a time.  A level's vertices are the
    neighbors of the level before, taken parent by parent in rank order
    and each parent's neighbors in CSR order, less those already ranked:
    the order in which a queue-driven search (scipy's
    ``breadth_first_order``) visits them.  On a tree a vertex's one ranked
    neighbor is its parent, so no vertex turns up twice in a level.
    """
    n, indptr, indices = graph.n, graph.indptr, graph.indices
    order = np.empty(n, dtype=np.int32)  # the vertex of each rank
    parent = np.empty(n, dtype=np.int32)
    rank = np.full(n, -1, dtype=np.int32)
    order[0], parent[0], rank[source] = source, 0, 0
    level_ends, start, end = [], 0, 1
    while end < n:
        if len(level_ends) == max_levels:
            return None
        level = order[start:end]
        first = indptr.take(level)
        degree = indptr.take(level + 1) - first
        ends = np.cumsum(degree)
        # the arc positions of each vertex's row, rows in rank order
        arcs = np.arange(ends[-1]) + np.repeat(first - (ends - degree), degree)
        neighbors = indices.take(arcs)
        fresh = rank.take(neighbors) < 0
        children = neighbors[fresh]
        parents = np.repeat(np.arange(start, end, dtype=np.int32), degree)[fresh]
        start, end = end, end + children.size
        order[start:end], parent[start:end] = children, parents
        rank[children] = np.arange(start, end, dtype=np.int32)
        level_ends.append(end)
    return rank, parent, np.asarray(level_ends, dtype=np.int32)


def _tree_fold(plan: _FoldPlan, weights: np.ndarray, times: np.ndarray) -> np.ndarray:
    """First-passage times on a tree from the source of ``plan``, written
    into ``times``, a float64 array of n, which is returned.

    On a tree the only path to a vertex runs through its BFS parent, so its
    time is t[parent] + w(parent, vertex): the one addition Dijkstra makes
    when it settles the vertex (a relaxation back from a child never wins,
    as d + w >= d for w >= 0).  Folding the BFS levels in order therefore
    gives the same bits as Dijkstra.

    The fold allocates one float64 array of n, ``ranked``, and no other
    float array.  Its first gather moves each rank's edge weight into it
    (the source's 0.0 ahead of them): that is the fold's one read of
    ``weights``, which may therefore share memory with ``times``.  Each
    level then adds its parents' times to its weights in place, w +
    t[parent] having the bits of t[parent] + w; the parents' times are
    gathered into the front of ``times``, which is free until the last
    gather puts the times back in vertex order.
    """
    parent = plan.parent
    n = parent.size
    if weights.shape != (n - 1,):
        raise ValueError(f"expected {n - 1} edge weights, got shape {weights.shape}")
    ranked = np.empty(n)  # times by BFS rank
    ranked[0] = 0.0
    _gather(weights, plan.edge, ranked[1:])
    start = 1
    for end in plan.level_ends.tolist():
        gathered = _gather(ranked, parent[start:end], times[:end - start])
        ranked[start:end] += gathered
        start = end
    return _gather(ranked, plan.rank, times)


# _gather hands np.take this many indices at a time.  np.take copies int32
# indices to intp for each call, so a chunk bounds that copy to 512 KB, which
# stays in a core's L2 cache; unchunked, one cascade on the 532k-vertex
# benchmark tree copied 4.3 MB at a time.  Timed on that tree (one
# simulate_si, median of 15, 2 shared x86-64 cores, numpy 2.4): 2**15 and
# 2**16 alike at 5.3-5.8 ms, 2**14 and 2**17-2**18 up to 0.5 ms slower.
_GATHER_CHUNK = 2 ** 16


def _gather(source: np.ndarray, index: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out[i] = source[index[i]]`` for int32 indices known to be in range,
    ``out`` returned.

    Each chunk of ``_GATHER_CHUNK`` indices is one ``np.take(..., out=,
    mode="clip")``, which writes straight into ``out``: with numpy's default
    ``mode="raise"`` it would gather into a fresh temporary and copy that
    into ``out``.  Clipping cannot move a read, since every index a caller
    passes was checked to lie in range: ``_fold_plan`` checked the plan's
    once, when it built it, and ``Graph`` the vertex ids of its read-only
    CSR, from which the edge ends are derived.
    """
    for start in range(0, index.size, _GATHER_CHUNK):
        stop = start + _GATHER_CHUNK
        np.take(source, index[start:stop], out=out[start:stop], mode="clip")
    return out


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
    neighbors = graph.neighbors(v).tolist()
    infected = set(infected)
    if v in infected:
        raise ValueError(f"vertex {v} is already infected")
    overlap = sum(u in infected for u in neighbors)
    if overlap == 0:
        raise ValueError(f"vertex {v} has no infected neighbor, so it cannot be next")
    return len(neighbors) - 2 * overlap


# ---------------------------------------------------------------------------
# file formats


def load_edge_list(path) -> Graph:
    """Read an undirected graph from text: one edge ``u v`` per line
    (0-indexed), each edge once, in either orientation.

    Blank lines, ``#`` comments and a leading byte-order mark are ignored.
    Each id is read by the vertex rule (``_check_integer``, in [0,
    ``_MAX_VERTEX``]).  A bad id, a self-loop, an edge listed twice (in
    either orientation) or a byte that is not UTF-8 is rejected with its
    line, and the resulting graph must pass the usual validation
    (connected).  The ids and each edge's line are held in integer arrays,
    not one object per edge; a repeat is looked for once every line is
    read, so a bad line after it is the error reported, and the first
    repeat in the file is named with the line of the edge it repeats.
    """
    given, lines = array.array("q"), array.array("q")  # each edge's u, v as listed; its line
    with _input_file(path, "line", lambda: lineno) as fh:
        for lineno, line in _text_lines(fh):
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"expected 'u v', got {line!r}")
            u, v = (_check_integer(_parse_number(part), "vertex", low=0, high=_MAX_VERTEX)
                    for part in parts)
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            given.extend((u, v))
            lines.append(lineno)
    if not lines:
        raise ValueError(f"{path}: no edges")
    ends = np.frombuffer(given, dtype=np.int64).reshape(-1, 2)
    n = int(ends.max()) + 1
    if repeat := _repeated_edge(ends[:, 0], ends[:, 1], n):
        i, j = repeat
        raise _file_error(path, "line", lines[i],
                          f"edge {ends[i, 0]} {ends[i, 1]} repeats the edge on line {lines[j]}")
    # ids are at most _MAX_VERTEX, so int32 is exact
    low = np.minimum(ends[:, 0], ends[:, 1], dtype=np.int32, casting="unsafe")
    high = np.maximum(ends[:, 0], ends[:, 1], dtype=np.int32, casting="unsafe")
    del ends, given, lines
    return Graph(n, low, high)


def load_trace_csv(path) -> CascadeTrace:
    """Read a cascade trace from CSV with header ``vertex,time``.

    The source is the vertex with the smallest infection time (0 for any
    trace written by this package).  Errors name the offending row by its
    file line (``reader.line_num``) and the field at fault: ``vertex`` by
    the vertex rule, as in ``load_edge_list``, and ``time``, finite and >= 0.
    The ids, times and row numbers are held in arrays, as ``load_edge_list``
    holds its edges, and a repeated vertex is looked for once every row is
    read, so a bad row after it is the error reported.  The missing ids are
    found from the sorted ids, so a trace that skips most ids costs its rows,
    not its largest id.
    """
    ids, times, rows = array.array("q"), array.array("d"), array.array("q")
    with _input_file(path, "row", lambda: reader.line_num) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip().lower() for h in header[:2]] != ["vertex", "time"]:
            raise ValueError(f"expected header 'vertex,time', got {header}")
        for row in itertools.filterfalse(_blank_row, reader):
            if len(row) < 2:
                raise ValueError(f"expected 'vertex,time', got {row}")
            ids.append(_check_integer(_parse_number(row[0]), "vertex", low=0, high=_MAX_VERTEX))
            times.append(_check_finite(_parse_number(row[1]), "time", 0.0))
            rows.append(reader.line_num)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    vertex = np.frombuffer(ids, dtype=np.int64)
    if repeat := _first_repeat(vertex):
        raise _file_error(path, "row", rows[repeat[0]], f"duplicate vertex {vertex[repeat[0]]}")
    n = int(vertex.max()) + 1
    if vertex.size != n:  # the first ids absent, from the gaps between the sorted ids
        present = itertools.chain([-1], np.sort(vertex).tolist())
        gaps = (range(a + 1, b) for a, b in itertools.pairwise(present))
        missing = list(itertools.islice(itertools.chain.from_iterable(gaps), 5))
        raise ValueError(f"{path}: missing vertices, e.g. {missing}")
    # the ids are distinct and n of them, so they place every time once
    placed = np.empty(n)
    placed[vertex] = np.frombuffer(times, dtype=np.float64)
    return CascadeTrace(times=placed, source=int(np.argmin(placed)))


def save_trace_csv(trace: CascadeTrace, path) -> None:
    _write_csv(path, ["vertex", "time"], ([v, repr(float(t))] for v, t in enumerate(trace.times)))
