import heapq
import math
import pickle
import re
import tracemalloc

import numpy as np
import pytest
from scipy import stats
from scipy.sparse import coo_matrix, csgraph, csr_matrix

from ratejump import si
from ratejump.process import EventTimes
from ratejump.seeding import SimSeed, generator
from ratejump.si import (
    CascadeTrace,
    Graph,
    build_tree_with_hub,
    infection_count_process,
    jump_at_infection,
    load_edge_list,
    load_trace_csv,
    rate_at,
    save_trace_csv,
    simulate_si,
)
from ratejump.si import _component_count, _edge_ends, _first_passage, _fold_plan
from small_graphs import edge_list, from_adjacency


def path_graph(n):
    return from_adjacency([[v for v in (i - 1, i + 1) if 0 <= v < n] for i in range(n)])


def star_graph(leaves):
    adj = [list(range(1, leaves + 1))] + [[0] for _ in range(leaves)]
    return from_adjacency(adj)


def triangle():
    return from_adjacency([[1, 2], [0, 2], [0, 1]])


def tree_from_parents(parent):
    """Tree on 0..len(parent) where vertex i + 1 hangs off parent[i]."""
    child = np.arange(1, len(parent) + 1)
    parent = np.asarray(parent)
    return Graph(child.size + 1, child, parent)


def random_recursive_tree(rng, n):
    """Vertex v >= 1 hangs off a uniform vertex below it; also returns depths."""
    parent = [int(rng.integers(0, v)) for v in range(1, n)]
    depth = [0]
    for p in parent:
        depth.append(depth[p] + 1)
    return tree_from_parents(parent), depth


def random_connected_graph(rng, n):
    """Random tree plus a few extra edges: always connected and simple."""
    adj = [set() for _ in range(n)]
    for v in range(1, n):
        u = int(rng.integers(0, v))
        adj[v].add(u)
        adj[u].add(v)
    for _ in range(int(rng.integers(0, n))):
        u, v = rng.integers(0, n, size=2)
        if u != v:
            adj[int(u)].add(int(v))
            adj[int(v)].add(int(u))
    return from_adjacency([sorted(s) for s in adj])


# ---------------------------------------------------------------------------
# graph construction


def test_graph_validation():
    with pytest.raises(ValueError, match="self-loop"):
        from_adjacency([[0, 1], [0]])
    with pytest.raises(ValueError, match="parallel"):
        from_adjacency([[1, 1], [0, 0]])
    with pytest.raises(ValueError, match="connected"):
        from_adjacency([[1], [0], [3], [2]])
    with pytest.raises(ValueError, match=r"^n must be >= 1, got 0$"):
        from_adjacency([])
    # edge arrays go through the same checks
    with pytest.raises(ValueError, match="parallel"):
        Graph(2, [0, 1], [1, 0])
    with pytest.raises(ValueError, match="out of range"):
        Graph(2, [0, 1], [1, 2])
    with pytest.raises(ValueError, match="out of range"):
        Graph(2, [-1], [1])
    with pytest.raises(ValueError, match="connected"):
        Graph(3, [0], [1])
    for u, v in (([0, 1], [1]), ([[0, 1]], [[1, 2]]), ([0.5, 1.0], [1, 2]), ([True], [False])):
        with pytest.raises(ValueError, match="one-dimensional integer arrays of one length"):
            Graph(3, u, v)
    assert Graph(1, [], []).n_edges == 0
    assert edge_list(Graph(3, *np.array([[2, 1], [1, 0]], dtype=np.uint64))) == [(0, 1), (1, 2)]
    with pytest.raises(ValueError, match=r"^vertex must be >= 0, got -1$"):
        triangle().neighbors(-1)
    for n, message in ((2.5, "n must be an integer, got 2.5"),
                       (True, "n must be an integer, got True"),
                       (-1, "n must be >= 1, got -1"),
                       ("2", "n must be an integer, got '2'")):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Graph(n, [0], [1])
    for hub, message in ((0.0, "hub must be an integer, got 0.0"),
                         (2, "hub must be <= 1, got 2")):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Graph(2, [0], [1], hub=hub)


@pytest.mark.parametrize("n,u,v,message", [
    (2, [0, 1], [1, 0], "parallel edge: edge {0, 1} is listed twice"),
    (3, [2, 0, 1], [1, 1, 2], "parallel edge: edge {1, 2} is listed twice"),
    (3, [0, 2, 0], [1, 1, 1], "parallel edge: edge {0, 1} is listed twice"),
    (3, [0, 1, 2], [1, 2, 2], "self-loop at vertex 2"),
], ids=["parallel", "parallel-later", "parallel-same-orientation", "self-loop"])
def test_graph_errors_name_the_arc(n, u, v, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Graph(n, u, v)


def test_graph_names_the_first_repeat_in_input_order():
    # {2, 3} repeats at position 2 and {0, 1} at position 3: the first repeat
    # in the order given is named, not the smallest repeated edge
    with pytest.raises(ValueError, match=r"^parallel edge: edge \{2, 3\} is listed twice$"):
        Graph(4, [2, 0, 2, 0, 1], [3, 1, 3, 1, 2])


def test_neighbor_order_follows_the_input():
    # a row lists the edges given from its vertex, then those given to it,
    # each in input order; the edge list takes each row's larger neighbors
    g = Graph(4, [1, 0, 1, 3], [2, 1, 3, 0])
    assert [g.neighbors(x).tolist() for x in range(4)] == [[1, 3], [2, 3, 0], [1], [0, 1]]
    assert edge_list(g) == [(0, 1), (0, 3), (1, 2), (1, 3)]


def component_cases():
    """Edge lists (n, u, v) with u < v, many of them in more than one piece."""
    rng = np.random.default_rng(81)
    for n, m in ((50, 20), (500, 300), (2000, 1900), (2000, 5000)):
        u, v = rng.integers(0, n, size=(2, m))
        u, v = u[u != v], v[u != v]
        pairs = np.unique(np.stack((np.minimum(u, v), np.maximum(u, v)), axis=1), axis=0)
        yield pytest.param(n, pairs[:, 0], pairs[:, 1], id=f"random-{n}-{m}")
    # five disjoint paths of 40 and five disjoint stars of 40, labels shuffled
    label = rng.permutation(400)
    path = [(b + i, b + i + 1) for b in range(0, 200, 40) for i in range(39)]
    star = [(b, b + i) for b in range(200, 400, 40) for i in range(1, 40)]
    ends = label[np.asarray(path + star)]
    yield pytest.param(400, ends.min(axis=1), ends.max(axis=1), id="paths-and-stars")
    bits = 12
    for name, label in (("random", rng.permutation(2 ** bits)),
                        ("bit-reversed", np.asarray(
                            [int(f"{i:0{bits}b}"[::-1], 2) for i in range(2 ** bits)]))):
        ends = label[np.stack((np.arange(2 ** bits - 1), np.arange(1, 2 ** bits)), axis=1)]
        yield pytest.param(2 ** bits, ends.min(axis=1), ends.max(axis=1), id=f"path-{name}")
    g = build_tree_with_hub(8, 60)
    yield pytest.param(g.n, *_edge_ends(g), id="planted-hub-tree")


@pytest.mark.parametrize("n,u,v", list(component_cases()))
def test_component_count_matches_scipy(n, u, v):
    u, v = np.asarray(u, dtype=np.int32), np.asarray(v, dtype=np.int32)
    want, _ = csgraph.connected_components(
        coo_matrix((np.ones(u.size), (u, v)), shape=(n, n)), directed=False)
    assert _component_count(n, u, v) == want
    if want > 1:
        with pytest.raises(ValueError, match=f"found {want} components$"):
            Graph(n, u, v)


def test_build_tree_no_extras():
    g = build_tree_with_hub(2, 0)
    assert g.n == 7
    assert g.n_edges == 6
    assert max(g.degree(v) for v in range(g.n)) == 3
    assert g.hub == 1  # leftmost vertex one level above the leaves


def test_build_tree_with_extras():
    g = build_tree_with_hub(2, 5)
    assert g.n == 12  # 7 tree vertices + 5 planted leaves
    assert g.degree(g.hub) == 5 + 3  # parent + 2 children + planted leaves
    others = [g.degree(v) for v in range(g.n) if v != g.hub]
    assert max(others) <= 3


def test_build_tree_benchmark_shape():
    g = build_tree_with_hub(6, 40)
    assert g.n == 2**7 - 1 + 40
    assert g.hub == 2**5 - 1
    assert g.degree(g.hub) == 43
    # planted leaves hang off the hub
    assert all(g.neighbors(v).tolist() == [g.hub] for v in range(2**7 - 1, g.n))


def loop_built_tree(height, extra_leaves):
    """The tree built with Python lists, vertex by vertex, and its hub."""
    n_tree = 2 ** (height + 1) - 1
    hub = 2 ** (height - 1) - 1
    adjacency = [[] for _ in range(n_tree + extra_leaves)]
    for i in range(n_tree):
        if i > 0:
            adjacency[i].append((i - 1) // 2)
        for c in (2 * i + 1, 2 * i + 2):
            if c < n_tree:
                adjacency[i].append(c)
    for leaf in range(n_tree, n_tree + extra_leaves):
        adjacency[leaf].append(hub)
        adjacency[hub].append(leaf)
    return from_adjacency(adjacency), hub


@pytest.mark.parametrize("height,extra_leaves", [(1, 0), (1, 3), (2, 5), (5, 0), (7, 60)])
def test_build_tree_matches_loop_build(height, extra_leaves):
    g = build_tree_with_hub(height, extra_leaves)
    ref, hub = loop_built_tree(height, extra_leaves)
    assert g.hub == hub
    assert g.n == ref.n
    assert sorted(edge_list(g)) == sorted(edge_list(ref))


def test_build_tree_validation():
    with pytest.raises(ValueError, match="height"):
        build_tree_with_hub(0, 5)
    with pytest.raises(ValueError, match="extra_leaves"):
        build_tree_with_hub(3, -1)


class Allocated(Exception):
    """Raised in place of the tree's first array."""


def test_a_tree_beyond_the_int32_bound_is_refused_before_any_array(monkeypatch):
    def refuse(*args, **kwargs):
        raise Allocated

    monkeypatch.setattr(np, "arange", refuse)
    monkeypatch.setattr(np, "full", refuse)
    with pytest.raises(ValueError, match=r"^height 40 and extra_leaves 0: 2199023255551 "
                                         r"vertices and 4398046511100 arcs"):
        build_tree_with_hub(40, 0)
    with pytest.raises(ValueError, match=r"^height 3 and extra_leaves 3000000000: "):
        build_tree_with_hub(3, 3_000_000_000)
    # 2**30 vertices and 2**31 - 2 arcs fit; one more leaf does not
    with pytest.raises(Allocated):
        build_tree_with_hub(29, 1)
    with pytest.raises(ValueError, match=r"^height 29 and extra_leaves 2: 1073741825 "
                                         r"vertices and 2147483648 arcs do not fit int32"):
        build_tree_with_hub(29, 2)


def test_too_few_edges_are_refused_before_anything_of_size_n(tmp_path):
    # two edges cannot connect 3000001 vertices; counting the components on
    # the three vertices the edges touch builds nothing that large
    path = tmp_path / "far.txt"
    path.write_text("0 1\n0 3000000\n")
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"connected; found 2999999 components$"):
            load_edge_list(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


# ---------------------------------------------------------------------------
# cascade law


def test_two_vertex_mean():
    g = path_graph(2)
    times = [simulate_si(g, 0, SimSeed(0, s)).times[1] for s in range(3000)]
    assert np.mean(times) == pytest.approx(1.0, abs=0.06)


def test_triangle_second_gap():
    # after the first infection two edges point at the last vertex: gap ~ Exp(2)
    g = triangle()
    gaps = []
    for s in range(3000):
        t = np.sort(simulate_si(g, 0, SimSeed(1, s)).times)
        gaps.append(t[2] - t[1])
    assert np.mean(gaps) == pytest.approx(0.5, abs=0.04)


def test_star_binomial_infected_count():
    leaves, t_query, runs = 50, 1.0, 1500
    g = star_graph(leaves)
    p = 1 - math.exp(-t_query)
    counts = [
        int(np.sum(simulate_si(g, 0, SimSeed(2, s)).times[1:] <= t_query))
        for s in range(runs)
    ]
    se = math.sqrt(leaves * p * (1 - p) / runs)
    assert np.mean(counts) == pytest.approx(leaves * p, abs=3 * se)


def test_determinism():
    g = build_tree_with_hub(5, 10)
    a = simulate_si(g, 0, SimSeed(9, 1))
    b = simulate_si(g, 0, SimSeed(9, 1))
    c = simulate_si(g, 0, SimSeed(9, 2))
    assert np.array_equal(a.times, b.times)
    assert not np.array_equal(a.times, c.times)


def test_all_infected_and_source_zero():
    g = random_connected_graph(np.random.default_rng(4), 20)
    trace = simulate_si(g, 3, SimSeed(0, 0))
    assert trace.times[3] == 0.0
    assert np.all(np.isfinite(trace.times))
    assert trace.n == g.n


def test_simulate_validation():
    g = triangle()
    with pytest.raises(ValueError, match="source"):
        simulate_si(g, 5, 0)
    # numpy integers are vertex ids like ints
    assert simulate_si(g, np.int64(1), 0).source == 1


@pytest.mark.parametrize("field,kwargs", [
    ("source", {"source": 1.5}),
    ("source", {"source": True}),
    ("source", {"source": np.bool_(False)}),
], ids=["source-float", "source-bool", "source-numpy-bool"])
def test_simulate_rejects_bad_field(field, kwargs):
    args = {"graph": triangle(), "source": 0, "seed": 0, **kwargs}
    with pytest.raises(ValueError, match=field):
        simulate_si(**args)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1e-300],
                         ids=["nan", "inf", "minus-inf", "minus-tiny"])
def test_trace_refuses_times_that_are_not_finite_and_non_negative(bad):
    with pytest.raises(ValueError, match=r"^infection times must be finite and non-negative$"):
        CascadeTrace(times=np.array([0.0, 1.0, bad, 2.0]), source=0)


def test_trace_takes_minus_zero_at_a_vertex_that_is_not_the_source():
    trace = CascadeTrace(times=np.array([0.0, -0.0, 1.0]), source=0)
    assert trace.times[1] == 0.0


# ---------------------------------------------------------------------------
# counting process, cut sizes, jumps


def test_infection_count_process_example():
    trace = CascadeTrace(times=np.array([0.0, 1.2, 0.7]), source=0)
    counting = infection_count_process(trace)
    assert counting.times.tolist() == [0.0, 0.7, 1.2]
    assert counting.count_at(0.0) == 1
    assert counting.count_at(1.0) == 2


def test_rate_at_and_jump_examples():
    g = star_graph(5)
    assert rate_at(g, {0}) == 5
    # infecting a leaf removes one cut edge
    assert jump_at_infection(g, {0}, 1) == -1
    assert rate_at(g, {0, 1}) == 4
    # infecting the center from one leaf exposes the other leaves
    assert jump_at_infection(g, {1}, 0) == 5 - 2
    with pytest.raises(ValueError, match="already infected"):
        jump_at_infection(g, {0}, 0)
    with pytest.raises(ValueError, match="no infected neighbor"):
        jump_at_infection(g, {1}, 2)


def test_cut_identity_telescopes():
    # cut after each infection = previous cut + jump_at_infection, exactly
    rng = np.random.default_rng(77)
    for trial in range(30):
        g = random_connected_graph(rng, int(rng.integers(2, 11)))
        trace = simulate_si(g, 0, SimSeed(3, trial))
        order = np.argsort(trace.times)
        assert order[0] == 0
        infected = {0}
        cut = rate_at(g, infected)
        assert cut == g.degree(0)
        for v in order[1:]:
            v = int(v)
            cut += jump_at_infection(g, infected, v)
            infected.add(v)
            assert cut == rate_at(g, infected)
        assert cut == 0  # everyone infected


def exact_order_distribution(graph, source):
    """Enumerate P(infection order) via the next-infection law."""
    n = graph.n
    out = {}

    def rec(infected, order, prob):
        if len(infected) == n:
            out[order] = out.get(order, 0.0) + prob
            return
        weights = {}
        for v in range(n):
            if v not in infected:
                c = sum(1 for u in graph.neighbors(v) if u in infected)
                if c:
                    weights[v] = c
        cut = sum(weights.values())
        for v, c in weights.items():
            rec(infected | {v}, order + (v,), prob * c / cut)

    rec(frozenset([source]), (), 1.0)
    return out


@pytest.mark.parametrize("graph,source", [(triangle(), 0), (path_graph(5), 2)])
def test_next_infection_law_chi_square(graph, source):
    expected = exact_order_distribution(graph, source)
    runs = 4000
    observed = {order: 0 for order in expected}
    for s in range(runs):
        trace = simulate_si(graph, source, SimSeed(4, s))
        order = tuple(int(v) for v in np.argsort(trace.times)[1:])
        observed[order] += 1
    orders = sorted(expected)
    obs = np.array([observed[o] for o in orders], dtype=float)
    exp = np.array([expected[o] * runs for o in orders])
    assert stats.chisquare(obs, exp).pvalue > 0.01


def first_passage_times(n, edges, weights, source):
    """Dijkstra over fixed edge weights: the cascade law given the clocks."""
    adj = {v: [] for v in range(n)}
    for (u, v) in edges:
        w = weights[(min(u, v), max(u, v))]
        adj[u].append((v, w))
        adj[v].append((u, w))
    dist = [math.inf] * n
    dist[source] = 0.0
    heap = [(0.0, source)]
    while heap:
        d, v = heapq.heappop(heap)
        if d > dist[v]:
            continue
        for u, w in adj[v]:
            if d + w < dist[u]:
                dist[u] = d + w
                heapq.heappush(heap, (d + w, u))
    return dist


def test_adding_edge_never_slows_first_passage():
    # with clocks held fixed, an extra edge can only create shortcuts
    rng = np.random.default_rng(123)
    for trial in range(40):
        n = int(rng.integers(3, 9))
        tree_edges = [(int(rng.integers(0, v)), v) for v in range(1, n)]
        weights = {
            (min(u, v), max(u, v)): float(rng.exponential(1.0)) for u, v in tree_edges
        }
        base = first_passage_times(n, tree_edges, weights, source=0)
        # add one non-tree edge with its own fresh clock
        candidates = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if (u, v) not in weights
        ]
        if not candidates:
            continue
        extra = candidates[int(rng.integers(0, len(candidates)))]
        weights[extra] = float(rng.exponential(1.0))
        faster = first_passage_times(n, tree_edges + [extra], weights, source=0)
        assert all(f <= b + 1e-12 for f, b in zip(faster, base))


def test_first_passage_matches_reference_dijkstra():
    # fixed weights, some exactly 0.0: a zero edge must still join its ends
    rng = np.random.default_rng(31)
    for trial in range(40):
        g = random_connected_graph(rng, int(rng.integers(2, 12)))
        edges = edge_list(g)
        weights = rng.exponential(1.0, len(edges))
        weights[rng.random(len(edges)) < 0.3] = 0.0
        source = int(rng.integers(0, g.n))
        got = _first_passage(g, weights, source)
        want = first_passage_times(g.n, edges, dict(zip(edges, weights.tolist())), source)
        assert got.tolist() == want


def weights_with_zeros(rng, m):
    """Exp(1) edge weights with about 30% of them exactly 0.0."""
    weights = rng.exponential(1.0, m)
    weights[rng.random(m) < 0.3] = 0.0
    return weights


def reference_times(graph, weights, source):
    edges = edge_list(graph)
    return first_passage_times(graph.n, edges, dict(zip(edges, weights.tolist())), source)


def wide_trees():
    """Trees the fold must take, each with sources at the root, the hub or
    a random vertex, and a deepest leaf."""
    rng = np.random.default_rng(61)
    for height, extra in ((6, 40), (11, 100)):
        g = build_tree_with_hub(height, extra)
        deep_leaf = 2 ** (height + 1) - 2  # last vertex of the perfect tree
        yield pytest.param(g, (0, g.hub, deep_leaf), id=f"hub-{height}-{extra}")
    for n in (2000, 5000):
        g, depth = random_recursive_tree(rng, n)
        sources = (0, int(rng.integers(1, n)), int(np.argmax(depth)))
        yield pytest.param(g, sources, id=f"recursive-{n}")


@pytest.mark.parametrize("graph,sources", list(wide_trees()))
def test_tree_fold_matches_reference_dijkstra(monkeypatch, graph, sources):
    # the fold must run on these trees, and give the reference's exact bits
    dijkstra_calls = count_calls(monkeypatch, "dijkstra")
    rng = np.random.default_rng(graph.n)
    for source in sources:
        weights = weights_with_zeros(rng, graph.n_edges)
        got = _first_passage(graph, weights, source)
        assert got.tolist() == reference_times(graph, weights, source)
    assert dijkstra_calls == [], "the tree fold should not fall back to Dijkstra here"


@pytest.mark.parametrize("graph", [
    path_graph(20_000),
    # caterpillar: a 1000-vertex spine with one leaf on each spine vertex, so
    # the leaf count does not rule the fold out but the BFS depth does
    tree_from_parents(list(range(999)) + list(range(1000))),
], ids=["path", "caterpillar"])
def test_deep_tree_keeps_dijkstra(monkeypatch, graph):
    calls = count_calls(monkeypatch, "dijkstra")
    weights = weights_with_zeros(np.random.default_rng(62), graph.n_edges)
    got = _first_passage(graph, weights, 0)
    assert calls == [1]
    assert got.tolist() == reference_times(graph, weights, 0)


def count_calls(monkeypatch, name):
    """Patch scipy.sparse.csgraph.<name> to record each call in the returned
    list; si imports it where it is used, so it reads the patched name."""
    calls = []
    real = getattr(csgraph, name)
    monkeypatch.setattr(csgraph, name, lambda *a, **k: calls.append(1) or real(*a, **k))
    return calls


def count_bfs(monkeypatch):
    """Patch the fold plan's BFS to record each call in the returned list."""
    calls = []
    real = si._tree_bfs
    monkeypatch.setattr(si, "_tree_bfs", lambda *a: calls.append(1) or real(*a))
    return calls


def test_fold_plan_built_once_per_source(monkeypatch):
    # the graph keeps the BFS for the last source: a change of source runs
    # one BFS, a repeat runs none, and every fold keeps the reference's bits
    graph = build_tree_with_hub(6, 40)
    bfs = count_bfs(monkeypatch)
    dijkstra_calls = count_calls(monkeypatch, "dijkstra")
    rng = np.random.default_rng(63)
    a, b = graph.hub, 2 ** 7 - 2
    for source, expected_bfs in ((a, 1), (b, 2), (a, 3), (a, 3), (b, 4)):
        weights = weights_with_zeros(rng, graph.n_edges)
        got = _first_passage(graph, weights, source)
        assert got.tolist() == reference_times(graph, weights, source)
        assert len(bfs) == expected_bfs
    assert dijkstra_calls == []


def test_deep_tree_pays_its_bfs_once(monkeypatch):
    # the caterpillar of test_deep_tree_keeps_dijkstra: the BFS finds it too
    # deep once, and the graph remembers that Dijkstra runs from that source
    graph = tree_from_parents(list(range(999)) + list(range(1000)))
    bfs = count_bfs(monkeypatch)
    dijkstra_calls = count_calls(monkeypatch, "dijkstra")
    rng = np.random.default_rng(64)
    for expected in (1, 2):
        weights = weights_with_zeros(rng, graph.n_edges)
        got = _first_passage(graph, weights, 0)
        assert got.tolist() == reference_times(graph, weights, 0)
        assert (len(bfs), len(dijkstra_calls)) == (1, expected)


def test_pickled_graph_keeps_its_fold_plan(monkeypatch):
    graph = build_tree_with_hub(8, 60)
    first = simulate_si(graph, graph.hub, SimSeed(5, 0))
    copy = pickle.loads(pickle.dumps(graph))
    bfs = count_bfs(monkeypatch)
    again = [simulate_si(copy, graph.hub, SimSeed(5, i)).times for i in range(2)]
    assert bfs == []  # the copy keeps the plan it was pickled with
    assert np.array_equal(again[0], first.times)
    assert np.array_equal(again[1], simulate_si(graph, graph.hub, SimSeed(5, 1)).times)


HUB_6_40_VERTICES = 2 ** 7 - 1 + 40  # build_tree_with_hub(6, 40).n


@pytest.mark.parametrize("array,bad", [("parent", HUB_6_40_VERTICES),
                                       ("parent", HUB_6_40_VERTICES + 1), ("rank", -1)])
def test_a_plan_index_out_of_range_is_refused_not_clipped(monkeypatch, array, bad):
    # the fold gathers with mode="clip", so the plan is checked once, when it
    # is built: an index of n or more, or below 0, must raise
    graph = build_tree_with_hub(6, 40)
    real = si._tree_bfs

    def stray_bfs(*args):
        bfs = dict(zip(("rank", "parent", "level_ends"), real(*args)))
        bfs[array][-1] = bad
        return tuple(bfs.values())

    monkeypatch.setattr(si, "_tree_bfs", stray_bfs)
    with pytest.raises(RuntimeError, match=rf"^internal consistency failure: the fold plan's "
                                           rf"{array} holds an index outside \[0, {graph.n}\)$"):
        simulate_si(graph, graph.hub, 0)


def test_fold_plan_levels_must_end_at_n(monkeypatch):
    graph = build_tree_with_hub(6, 40)
    real = si._tree_bfs
    monkeypatch.setattr(si, "_tree_bfs", lambda *a: (*real(*a)[:2], real(*a)[2][:-1]))
    with pytest.raises(RuntimeError, match="internal consistency failure: the fold plan's "
                                           "levels do not rise"):
        simulate_si(graph, 0, 0)


def test_tree_fold_refuses_weights_of_another_length():
    # a short weight vector would be clipped, not refused, by the gathers
    graph = build_tree_with_hub(4, 3)
    for m in (graph.n_edges - 1, graph.n_edges + 1):
        with pytest.raises(ValueError, match=rf"^expected {graph.n_edges} edge weights"):
            _first_passage(graph, np.ones(m), 0)


def test_first_passage_leaves_its_weights_as_they_are():
    graph = build_tree_with_hub(6, 40)
    weights = np.random.default_rng(65).exponential(1.0, graph.n_edges)
    before = weights.copy()
    _first_passage(graph, weights, graph.hub)
    assert np.array_equal(weights, before)


def test_a_pickled_fold_plan_stays_read_only():
    # the fold trusts the plan's indices, checked once when it was built, so
    # no copy of the graph may hand out a plan that can be written
    graph = build_tree_with_hub(5, 3)
    simulate_si(graph, 0, 0)
    copy = pickle.loads(pickle.dumps(graph))
    assert [array.flags.writeable for array in copy._fold_memo[1]] == [False] * 4
    # a graph that keeps Dijkstra's verdict, and one never folded, copy too
    deep = tree_from_parents(list(range(999)) + list(range(1000)))
    simulate_si(deep, 0, 0)
    assert pickle.loads(pickle.dumps(deep))._fold_memo == (0, None)
    assert pickle.loads(pickle.dumps(triangle()))._fold_memo is None


@pytest.mark.parametrize("copied", [False, True], ids=["built", "pickled"])
def test_the_csr_is_read_only(copied):
    # edge ids are derived from the CSR on every read, so writing through
    # neighbors() must fail rather than change the graph
    graph = build_tree_with_hub(3, 2)
    simulate_si(graph, 0, 1)
    if copied:
        graph = pickle.loads(pickle.dumps(graph))
    with pytest.raises(ValueError, match="read-only"):
        graph.neighbors(1)[0] = 7
    assert not (graph.indptr.flags.writeable or graph.indices.flags.writeable)
    assert simulate_si(graph, 1, 1) == simulate_si(build_tree_with_hub(3, 2), 1, 1)


def test_first_passage_zero_weight_bridges():
    g = path_graph(4)
    times = _first_passage(g, np.array([0.0, 0.0, 0.5]), 3)
    assert times.tolist() == [0.5, 0.5, 0.5, 0.0]
    # every edge of weight 0.0: the whole graph is infected at once
    times = _first_passage(star_graph(5), np.zeros(5), 0)
    assert times.tolist() == [0.0] * 6


def test_first_passage_unreachable_vertex_raises():
    with pytest.raises(RuntimeError, match="not connected"):
        _first_passage(path_graph(3), np.array([0.5, np.inf]), 0)


def unsorted_graphs():
    """Trees and non-trees built from shuffled adjacency rows, and the same
    graphs from edge arrays (the "arcs" ids) in shuffled order, each edge in
    a random orientation, so no edge order comes out sorted."""
    rng = np.random.default_rng(71)
    for n, extra in ((30, 0), (400, 0), (30, 25), (400, 300)):
        adj = [set() for _ in range(n)]
        for v in range(1, n):
            u = int(rng.integers(0, v))
            adj[u].add(v)
            adj[v].add(u)
        while extra:
            u, v = (int(x) for x in rng.integers(0, n, size=2))
            if u != v and v not in adj[u]:
                adj[u].add(v)
                adj[v].add(u)
                extra -= 1
        rows = [rng.permutation(sorted(s)).tolist() for s in adj]
        kind = "tree" if sum(map(len, rows)) == 2 * (n - 1) else "graph"
        yield pytest.param(from_adjacency(rows), id=f"{kind}-{n}-rows")
        u = np.repeat(np.arange(n), [len(r) for r in rows])
        v = np.concatenate(rows)
        edges = rng.permutation(np.flatnonzero(u < v))
        flip = rng.random(edges.size) < 0.5
        u, v = np.where(flip, v[edges], u[edges]), np.where(flip, u[edges], v[edges])
        yield pytest.param(Graph(n, u, v), id=f"{kind}-{n}-arcs")


@pytest.mark.parametrize("graph", list(unsorted_graphs()))
def test_weight_i_belongs_to_edge_i(monkeypatch, graph):
    # the i-th weight is the length of the i-th edge of _edge_ends, on the fold
    # path (trees) and the Dijkstra path (every other graph) alike
    edges = edge_list(graph)
    assert edges != sorted(edges)  # a mix-up with sorted order would show
    is_tree = graph.n_edges == graph.n - 1
    calls = count_calls(monkeypatch, "dijkstra")
    rng = np.random.default_rng(graph.n + graph.n_edges)
    weights = rng.exponential(1.0, graph.n_edges)
    assert np.unique(weights).size == weights.size
    sources = (0, graph.n // 2, graph.n - 1)
    for source in sources:
        got = _first_passage(graph, weights, source)
        assert got.tolist() == reference_times(graph, weights, source)
    assert len(calls) == (0 if is_tree else len(sources))


def max_levels(n):
    return si._FOLD_FREE_LEVELS + n // si._FOLD_VERTICES_PER_LEVEL


def scipy_fold_plan(graph, source):
    """The fold plan built from scipy's queue-driven ``breadth_first_order``:
    a walk up from the last vertex in BFS order counts the levels, and the
    runs of ranks whose parents rank below the run's first rank are the
    levels."""
    n = graph.n
    arcs = csr_matrix((np.ones(graph.indices.size), graph.indices, graph.indptr), shape=(n, n))
    order, pred = csgraph.breadth_first_order(arcs, source, directed=True,
                                              return_predecessors=True)
    vertex, levels = int(order[-1]), 0
    while vertex != source:
        vertex, levels = int(pred[vertex]), levels + 1
    if levels > max_levels(n):
        return None
    rank = np.empty(n, dtype=np.int32)
    rank[order] = np.arange(n, dtype=np.int32)
    pred[source] = source
    parent = rank[pred[order]]
    # edge i is the i-th arc x -> y with x < y, row by row
    u, v = np.array([(x, y) for x in range(n) for y in graph.neighbors(x).tolist() if x < y]).T
    edge = np.empty(n - 1, dtype=np.int32)
    edge[rank[np.where(pred[v] == u, v, u)] - 1] = np.arange(n - 1, dtype=np.int32)
    level_ends, start = [], 1
    while start < n:
        start = int(parent.searchsorted(start))
        level_ends.append(start)
    return rank, parent, edge, np.asarray(level_ends, dtype=np.int32)


def assert_same_plan(got, want):
    assert (got is None) == (want is None)
    if want is not None:
        for a, b in zip(got, want, strict=True):
            assert a.dtype == b.dtype == np.int32
            assert np.array_equal(a, b)


def bfs_trees():
    """Every tree of ``unsorted_graphs()`` and the small planted-hub tree."""
    for param in unsorted_graphs():
        graph = param.values[0]
        if graph.n_edges == graph.n - 1:
            yield pytest.param(graph, id=param.id)
    yield pytest.param(build_tree_with_hub(6, 40), id="hub-6-40")


@pytest.mark.parametrize("graph", list(bfs_trees()))
def test_fold_plan_matches_scipy_bfs(graph):
    rng = np.random.default_rng(graph.n)
    sources = {0, graph.n - 1, graph.hub or 0, *rng.integers(0, graph.n, 4).tolist()}
    for source in sorted(sources):
        plan = _fold_plan(graph, source)
        assert plan is not None
        assert_same_plan(plan, scipy_fold_plan(graph, source))


def broom(depth, leaves):
    """A path 0 - 1 - ... - depth with ``leaves`` more leaves on vertex 0."""
    return tree_from_parents(list(range(depth)) + [0] * leaves)


@pytest.mark.parametrize("extra_level", [0, 1], ids=["at-cut-off", "past-cut-off"])
def test_fold_iff_depth_within_cut_off(monkeypatch, extra_level):
    # a path exactly max_levels deep from vertex 0 folds; one level more
    # goes to Dijkstra, with enough leaves that the leaf count rules out
    # neither before the BFS
    leaves = 100
    depth = next(d for d in range(1, 100) if d == max_levels(d + 1 + leaves)) + extra_level
    graph = broom(depth, leaves)
    assert depth == max_levels(graph.n) + extra_level
    plan = _fold_plan(graph, 0)
    assert (plan is None) == bool(extra_level)
    assert_same_plan(plan, scipy_fold_plan(graph, 0))
    calls = count_calls(monkeypatch, "dijkstra")
    weights = weights_with_zeros(np.random.default_rng(depth), graph.n_edges)
    assert _first_passage(graph, weights, 0).tolist() == reference_times(graph, weights, 0)
    assert len(calls) == extra_level


def test_graph_build_keeps_its_peak_memory_down():
    # the build holds at most one large temporary beside its input and
    # output arrays: the traced peak stays within 5x of the arrays kept
    tracemalloc.start()
    try:
        graph = build_tree_with_hub(16, 2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = graph.indices.nbytes + graph.indptr.nbytes
    assert peak <= 5 * kept, f"peak {peak} bytes is {peak / kept:.2f}x the {kept} kept"


@pytest.mark.parametrize("graph", [triangle(), build_tree_with_hub(6, 40), Graph(1, [], [])],
                         ids=["triangle", "hub-6-40", "one-vertex"])
def test_a_graph_keeps_only_its_csr(graph):
    # the CSR is the one representation: the edge list is derived where it
    # is read, so a graph holds 4 * (n + 1 + 2m) bytes of arrays
    arrays = {name: value for name, value in vars(graph).items()
              if isinstance(value, np.ndarray)}
    assert sorted(arrays) == ["indices", "indptr"]
    assert sum(a.nbytes for a in arrays.values()) == 4 * (graph.n + 1 + 2 * graph.n_edges)


@pytest.mark.parametrize("chunk", [1, 3, 64])
@pytest.mark.parametrize("graph", list(bfs_trees()))
def test_fold_equals_dijkstra_at_any_gather_chunk(monkeypatch, graph, chunk):
    # chunk edges land inside levels and inside the edge and rank gathers;
    # caller weights stay as they are, and simulate_si's, drawn into the
    # array the times then fill, give the same bits
    monkeypatch.setattr(si, "_GATHER_CHUNK", chunk)
    dijkstra_calls = count_calls(monkeypatch, "dijkstra")
    rng = np.random.default_rng(graph.n + chunk)
    for source in (0, graph.n - 1, graph.hub or graph.n // 2):
        weights = weights_with_zeros(rng, graph.n_edges)
        before = weights.copy()
        want = np.asarray(reference_times(graph, weights, source))
        assert _first_passage(graph, weights, source).tobytes() == want.tobytes()
        assert weights.tobytes() == before.tobytes()
        seed = SimSeed(chunk, source)
        weights = generator(seed).standard_exponential(graph.n_edges)
        want = np.asarray(reference_times(graph, weights, source))
        assert simulate_si(graph, source, seed).times.tobytes() == want.tobytes()
    assert dijkstra_calls == []


def test_fold_and_simulate_si_equal_dijkstra_on_the_benchmark_tree():
    # the other fold tests take trees of up to 5k vertices; cascades on the
    # 532k-vertex planted-hub tree (levels of 262k vertices) go through the
    # fold's chunked out= gathers, several chunks a level, and scipy's
    # Dijkstra on the same edge weights must give the same bits: once on
    # caller weights, once through simulate_si, whose times overwrite its
    # weights; the graph keeps its int32 CSR alone, and scipy reads the edge
    # ends derived from it
    graph = build_tree_with_hub(18, 8000)
    kept = sum(a.nbytes for a in vars(graph).values() if isinstance(a, np.ndarray))
    assert kept == 4 * (graph.n + 1 + 2 * (graph.n - 1)), f"the graph keeps {kept} bytes of arrays"
    weights = np.random.default_rng(43).standard_exponential(graph.n_edges)
    assert _fold_plan(graph, graph.hub) is not None, "the tree should fold"
    got = _first_passage(graph, weights, graph.hub)
    matrix = csr_matrix((weights, _edge_ends(graph)), shape=(graph.n, graph.n))
    want = csgraph.dijkstra(matrix, directed=False, indices=graph.hub)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), "fold != Dijkstra"
    assert np.random.default_rng(43).standard_exponential(graph.n_edges).tobytes() == \
        weights.tobytes(), "the fold wrote the weights it was given"
    got = simulate_si(graph, graph.hub, np.random.default_rng(43)).times
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), "simulate_si != Dijkstra"


@pytest.mark.parametrize("chunk", [1, 3, 64])
def test_simulate_si_on_a_graph_equals_first_passage_on_its_draws(monkeypatch, chunk):
    # off the fold, the shared array only holds the weights for Dijkstra
    monkeypatch.setattr(si, "_GATHER_CHUNK", chunk)
    graphs = [p.values[0] for p in unsorted_graphs()]
    for graph in [g for g in graphs if g.n_edges >= g.n]:
        for source in (0, graph.n - 1):
            seed = SimSeed(chunk, graph.n_edges)
            weights = generator(seed).standard_exponential(graph.n_edges)
            got = simulate_si(graph, source, seed).times
            assert got.tobytes() == _first_passage(graph, weights, source).tobytes()


def test_a_cascade_keeps_its_peak_memory_down():
    # once the plan is built, a cascade on a tree holds two float64 arrays
    # of n (the weights, then the times, and the times by BFS rank) and one
    # chunk of intp indices, beside small objects
    graph = build_tree_with_hub(16, 2000)
    simulate_si(graph, graph.hub, 0)
    tracemalloc.start()
    try:
        trace = simulate_si(graph, graph.hub, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bound = 2 * 8 * graph.n + 8 * si._GATHER_CHUNK + 64 * 1024
    assert peak <= bound, f"peak {peak} bytes over the bound {bound}"
    assert trace.times.nbytes == 8 * graph.n


# ---------------------------------------------------------------------------
# files


def test_edge_list_round_trip(tmp_path):
    g = build_tree_with_hub(3, 4)
    path = tmp_path / "graph.txt"
    path.write_text(f"# undirected edge list, {g.n} vertices\n"
                    + "".join(f"{u} {v}\n" for u, v in edge_list(g)))
    back = load_edge_list(path)
    assert back.n == g.n
    assert sorted(edge_list(back)) == sorted(edge_list(g))


def test_edge_list_load_keeps_its_peak_memory_down(tmp_path):
    # the ids and lines in integer arrays and one sort key per edge, then the
    # Graph's own build: at most 100 bytes an edge, where a dict with a
    # tuple key per edge held about 240
    g = build_tree_with_hub(14, 1000)
    path = tmp_path / "graph.txt"
    path.write_text("".join(f"{u} {v}\n" for u, v in edge_list(g)))
    tracemalloc.start()
    try:
        back = load_edge_list(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back.n_edges == g.n_edges > 30_000
    assert edge_list(back) == edge_list(g)
    assert peak <= 100 * g.n_edges, f"peak {peak} bytes for {g.n_edges} edges"


def test_trace_load_keeps_its_peak_memory_down(tmp_path):
    # the ids, times and row numbers in arrays, then a sorted copy of the ids
    # and the trace's own times: at most 64 bytes a row, where a dict entry
    # per row held about 108
    trace = simulate_si(build_tree_with_hub(14, 1000), 0, SimSeed(0, 0))
    path = tmp_path / "trace.csv"
    save_trace_csv(trace, path)
    tracemalloc.start()
    try:
        back = load_trace_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back == trace and trace.n > 30_000
    assert peak <= 64 * trace.n, f"peak {peak} bytes for {trace.n} rows"


def test_edge_list_errors(tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("0 1\n1 2 3\n")
    with pytest.raises(ValueError, match="line 2"):
        load_edge_list(p)
    p.write_text("0 1\n2 3\n")  # disconnected
    with pytest.raises(ValueError, match="connected"):
        load_edge_list(p)


@pytest.mark.parametrize("text,message", [
    ("0 1\n# comment\n1 1\n", "line 3: self-loop at vertex 1"),
    ("0 1\n1 2\n0 1\n", "line 3: edge 0 1 repeats the edge on line 1"),
    ("0 1\n1 2\n\n1 0\n", "line 4: edge 1 0 repeats the edge on line 1"),
    ("1 2\n2 3\n0 1\n3 2\n2 1\n", "line 4: edge 3 2 repeats the edge on line 2"),
], ids=["self-loop", "repeat", "reversed-repeat", "first-repeat-in-the-file"])
def test_edge_list_names_line_of_bad_edge(tmp_path, text, message):
    p = tmp_path / "g.txt"
    p.write_text(text)
    with pytest.raises(ValueError, match=message):
        load_edge_list(p)


def test_edge_list_load_searches_for_a_repeat_once(tmp_path, monkeypatch):
    # the Graph's own check is the one search: the loader names a repeat's
    # lines from the positions that check found, and runs none of its own
    calls = []
    search = si._first_repeat
    monkeypatch.setattr(si, "_first_repeat", lambda keys: calls.append(keys.size) or search(keys))
    p = tmp_path / "g.txt"
    p.write_text("1 2\n2 3\n0 1\n")
    assert load_edge_list(p).n_edges == 3
    assert calls == [3]


def test_edge_list_names_a_repeat_with_one_read_of_the_file(tmp_path, monkeypatch):
    # a FIFO or /dev/stdin cannot be read twice: the repeat's lines come from
    # what the one read kept
    opened = []
    open_file = si._input_file
    monkeypatch.setattr(si, "_input_file", lambda *args: opened.append(args[0]) or open_file(*args))
    p = tmp_path / "g.txt"
    p.write_text("1 2\n\n2 3\n3 2\n")
    with pytest.raises(ValueError, match=r"line 4: edge 3 2 repeats the edge on line 3$"):
        load_edge_list(p)
    assert opened == [p]


@pytest.mark.parametrize("big", [2**31 - 1, 2**63, 10**30], ids=["2**31-1", "2**63", "10**30"])
def test_edge_list_names_the_line_of_an_id_no_graph_indexes(tmp_path, big):
    # a Graph's int32 CSR indexes ids up to 2**31 - 2: a larger one is the
    # vertex rule's error on its line, not numpy's OverflowError or the Graph's
    p = tmp_path / "g.txt"
    p.write_text(f"0 1\n1 {big}\n")
    with pytest.raises(ValueError, match=re.escape(
            f"{p}: line 2: vertex must be <= 2147483646, got {big}") + "$"):
        load_edge_list(p)


def test_trace_csv_round_trip(tmp_path):
    g = path_graph(4)
    trace = simulate_si(g, 1, SimSeed(0, 0))
    path = tmp_path / "trace.csv"
    save_trace_csv(trace, path)
    back = load_trace_csv(path)
    assert np.array_equal(back.times, trace.times)
    assert back.source == 1


def test_trace_csv_skips_a_byte_order_mark(tmp_path):
    # as a spreadsheet exports it
    p = tmp_path / "bom.csv"
    p.write_bytes("vertex,time\n0,0.0\n1,0.5\n".encode("utf-8-sig"))
    assert load_trace_csv(p).times.tolist() == [0.0, 0.5]


def test_missing_vertices_cost_the_rows_not_the_largest_id(tmp_path):
    # two rows naming vertices 0 and 2,000,000: the ids missing are found
    # from the sorted ids, with nothing of size 2,000,000 built
    p = tmp_path / "t.csv"
    p.write_text("vertex,time\n0,0.0\n2000000,1.0\n")
    tracemalloc.start()
    try:
        with pytest.raises(ValueError,
                           match=r"t\.csv: missing vertices, e\.g\. \[1, 2, 3, 4, 5\]$"):
            load_trace_csv(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    p.write_text("vertex,time\n3,0.5\n0,0.0\n5,1.0\n")
    with pytest.raises(ValueError, match=r"missing vertices, e\.g\. \[1, 2, 4\]$"):
        load_trace_csv(p)


def test_trace_csv_names_the_row_of_a_byte_that_is_not_utf8(tmp_path):
    # bare CR line ends: the row is counted as the reader counts lines
    p = tmp_path / "t.csv"
    p.write_bytes(b"vertex,time\r0,0.0\r1,0.5\xff\r")
    with pytest.raises(ValueError, match=r"t\.csv: row 3: 'utf-8' codec can't decode "
                                         r"byte 0xff in position 5: invalid start byte$"):
        load_trace_csv(p)


def test_trace_csv_errors(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("vertex,time\n0,0.0\n0,1.0\n")
    with pytest.raises(ValueError, match="duplicate"):
        load_trace_csv(p)
    p.write_text("vertex,time\n0,0.0\n2,1.0\n")
    with pytest.raises(ValueError, match="missing"):
        load_trace_csv(p)


@pytest.mark.parametrize("text,message", [
    ("0,0.0\n1,0.5\n0,1.0\n", "row 4: duplicate vertex 0"),
    ("1,0.5\n0,0.0\n2,1.0\n1,0.7\n0,0.2\n", "row 5: duplicate vertex 1"),
    # a repeat is looked for once every row is read
    ("0,0.0\n0,1.0\n1,bad\n", "row 4: time must be finite and >= 0, got 'bad'"),
], ids=["repeat", "first-repeat-in-the-file", "bad-row-after-a-repeat"])
def test_trace_csv_names_the_row_of_a_repeated_vertex(tmp_path, text, message):
    p = tmp_path / "t.csv"
    p.write_text("vertex,time\n" + text)
    with pytest.raises(ValueError, match=re.escape(f"{p}: {message}") + "$"):
        load_trace_csv(p)


@pytest.mark.parametrize("row,message", [
    ("-1,0.0", "row 3: vertex must be >= 0, got -1"),
    ("1,nan", "row 3: time must be finite and >= 0, got nan"),
    ("1,inf", "row 3: time must be finite and >= 0, got inf"),
    ("1,-0.5", "row 3: time must be finite and >= 0, got -0.5"),
    ("1,bad", "row 3: time must be finite and >= 0, got 'bad'"),
    ("x,0.5", "row 3: vertex must be an integer, got 'x'"),
    ("1", "row 3: expected 'vertex,time'"),
    # a quoted line break: the row spans file lines 3 and 4, and is named by its last
    ('"1\n",bad', "row 4: time must be finite and >= 0, got 'bad'"),
    # longer than csv.field_size_limit(), 131072 characters by default
    ("1," + "9" * 140_000, "row 3: field larger than field limit"),
], ids=["negative-vertex", "nan-time", "inf-time", "negative-time", "bad-time", "bad-vertex",
        "one-field", "quoted-line-break", "oversized-field"])
def test_trace_csv_names_row_of_bad_value(tmp_path, row, message):
    p = tmp_path / "t.csv"
    p.write_text(f"vertex,time\n0,0.0\n{row}\n")
    with pytest.raises(ValueError, match=message):
        load_trace_csv(p)
