import heapq
import math

import numpy as np
import pytest
from scipy import stats

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
    save_edge_list,
    save_trace_csv,
    simulate_si,
)
from ratejump import si
from ratejump.si import _first_passage


def path_graph(n):
    return Graph([[v for v in (i - 1, i + 1) if 0 <= v < n] for i in range(n)])


def star_graph(leaves):
    adj = [list(range(1, leaves + 1))] + [[0] for _ in range(leaves)]
    return Graph(adj)


def triangle():
    return Graph([[1, 2], [0, 2], [0, 1]])


def tree_from_parents(parent):
    """Tree on 0..len(parent) where vertex i + 1 hangs off parent[i]."""
    child = np.arange(1, len(parent) + 1)
    parent = np.asarray(parent)
    return Graph.from_arcs(child.size + 1, np.concatenate((child, parent)),
                           np.concatenate((parent, child)))


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
    return Graph([sorted(s) for s in adj])


# ---------------------------------------------------------------------------
# graph construction


def test_graph_validation():
    with pytest.raises(ValueError, match="self-loop"):
        Graph([[0, 1], [0]])
    with pytest.raises(ValueError, match="symmetric"):
        Graph([[1], []])
    with pytest.raises(ValueError, match="parallel"):
        Graph([[1, 1], [0, 0]])
    with pytest.raises(ValueError, match="connected"):
        Graph([[1], [0], [3], [2]])
    with pytest.raises(ValueError, match="at least one vertex"):
        Graph([])
    with pytest.raises(ValueError, match="out of range"):
        Graph([[1], [0, 2]])
    # arc arrays go through the same checks
    with pytest.raises(ValueError, match="symmetric"):
        Graph.from_arcs(2, [0], [1])
    with pytest.raises(ValueError, match="parallel"):
        Graph.from_arcs(2, [0, 1, 0, 1], [1, 0, 1, 0])
    with pytest.raises(ValueError, match="out of range"):
        Graph.from_arcs(2, [0, 2], [2, 0])
    with pytest.raises(ValueError, match="connected"):
        Graph.from_arcs(3, [0, 1], [1, 0])
    with pytest.raises(ValueError, match="out of range"):
        triangle().neighbors(-1)


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
    """The tree built with Python lists, vertex by vertex."""
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
    return Graph(adjacency, hub=hub)


@pytest.mark.parametrize("height,extra_leaves", [(1, 0), (1, 3), (2, 5), (5, 0), (7, 60)])
def test_build_tree_matches_loop_build(height, extra_leaves):
    g = build_tree_with_hub(height, extra_leaves)
    ref = loop_built_tree(height, extra_leaves)
    assert g.hub == ref.hub
    assert g.n == ref.n
    assert sorted(g.edges()) == sorted(ref.edges())


def test_build_tree_validation():
    with pytest.raises(ValueError, match="height"):
        build_tree_with_hub(0, 5)
    with pytest.raises(ValueError, match="extra_leaves"):
        build_tree_with_hub(3, -1)


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
    with pytest.raises(ValueError, match="rate"):
        simulate_si(g, 0, 0, rate=0.0)
    # numpy integers are vertex ids like ints
    assert simulate_si(g, np.int64(1), 0).source == 1


@pytest.mark.parametrize("field,kwargs", [
    ("rate", {"rate": math.inf}),
    ("rate", {"rate": math.nan}),
    ("rate", {"rate": -math.inf}),
    ("source", {"source": 1.5}),
    ("source", {"source": True}),
    ("source", {"source": np.bool_(False)}),
], ids=["rate-inf", "rate-nan", "rate-minus-inf", "source-float", "source-bool", "source-numpy-bool"])
def test_simulate_rejects_bad_field(field, kwargs):
    args = {"graph": triangle(), "source": 0, "seed": 0, **kwargs}
    with pytest.raises(ValueError, match=field):
        simulate_si(**args)


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
        edges = list(g.edges())
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
    edges = list(graph.edges())
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
    def no_dijkstra(*args, **kwargs):
        raise AssertionError("the tree fold should not fall back to Dijkstra here")

    monkeypatch.setattr(si, "dijkstra", no_dijkstra)
    rng = np.random.default_rng(graph.n)
    for source in sources:
        weights = weights_with_zeros(rng, graph.n_edges)
        got = _first_passage(graph, weights, source)
        assert got.tolist() == reference_times(graph, weights, source)


@pytest.mark.parametrize("graph", [
    path_graph(20_000),
    # caterpillar: a 1000-vertex spine with one leaf on each spine vertex, so
    # the leaf count does not rule the fold out but the BFS depth does
    tree_from_parents(list(range(999)) + list(range(1000))),
], ids=["path", "caterpillar"])
def test_deep_tree_keeps_dijkstra(monkeypatch, graph):
    calls = []
    real = si.dijkstra
    monkeypatch.setattr(si, "dijkstra", lambda *a, **k: calls.append(1) or real(*a, **k))
    weights = weights_with_zeros(np.random.default_rng(62), graph.n_edges)
    got = _first_passage(graph, weights, 0)
    assert calls == [1]
    assert got.tolist() == reference_times(graph, weights, 0)


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
    graphs from shuffled arc arrays, so no edge order comes out sorted."""
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
        yield pytest.param(Graph(rows), id=f"{kind}-{n}-rows")
        src = np.repeat(np.arange(n), [len(r) for r in rows])
        dst = np.concatenate(rows)
        arcs = rng.permutation(src.size)
        yield pytest.param(Graph.from_arcs(n, src[arcs], dst[arcs]), id=f"{kind}-{n}-arcs")


@pytest.mark.parametrize("graph", list(unsorted_graphs()))
def test_weight_i_belongs_to_edge_i(monkeypatch, graph):
    # the i-th weight is the length of the i-th edge of edges(), on the fold
    # path (trees) and the Dijkstra path (every other graph) alike
    edges = list(graph.edges())
    assert edges != sorted(edges)  # a mix-up with sorted order would show
    is_tree = graph.n_edges == graph.n - 1
    calls = []
    real = si.dijkstra
    monkeypatch.setattr(si, "dijkstra", lambda *a, **k: calls.append(1) or real(*a, **k))
    rng = np.random.default_rng(graph.n + graph.n_edges)
    weights = rng.exponential(1.0, graph.n_edges)
    assert np.unique(weights).size == weights.size
    sources = (0, graph.n // 2, graph.n - 1)
    for source in sources:
        got = _first_passage(graph, weights, source)
        assert got.tolist() == reference_times(graph, weights, source)
    assert len(calls) == (0 if is_tree else len(sources))


# ---------------------------------------------------------------------------
# files


def test_edge_list_round_trip(tmp_path):
    g = build_tree_with_hub(3, 4)
    path = tmp_path / "graph.txt"
    save_edge_list(g, path)
    back = load_edge_list(path)
    assert back.n == g.n
    assert sorted(back.edges()) == sorted(g.edges())


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
], ids=["self-loop", "repeat", "reversed-repeat"])
def test_edge_list_names_line_of_bad_edge(tmp_path, text, message):
    p = tmp_path / "g.txt"
    p.write_text(text)
    with pytest.raises(ValueError, match=message):
        load_edge_list(p)


def test_trace_csv_round_trip(tmp_path):
    g = path_graph(4)
    trace = simulate_si(g, 1, SimSeed(0, 0))
    path = tmp_path / "trace.csv"
    save_trace_csv(trace, path)
    back = load_trace_csv(path)
    assert np.array_equal(back.times, trace.times)
    assert back.source == 1


def test_trace_csv_errors(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("vertex,time\n0,0.0\n0,1.0\n")
    with pytest.raises(ValueError, match="duplicate"):
        load_trace_csv(p)
    p.write_text("vertex,time\n0,0.0\n2,1.0\n")
    with pytest.raises(ValueError, match="missing"):
        load_trace_csv(p)


@pytest.mark.parametrize("row,message", [
    ("-1,0.0", "row 3: vertex must be >= 0, got -1"),
    ("1,nan", "row 3: time must be finite and >= 0, got nan"),
    ("1,inf", "row 3: time must be finite and >= 0, got inf"),
    ("1,-0.5", "row 3: time must be finite and >= 0, got -0.5"),
], ids=["negative-vertex", "nan-time", "inf-time", "negative-time"])
def test_trace_csv_names_row_of_bad_value(tmp_path, row, message):
    p = tmp_path / "t.csv"
    p.write_text(f"vertex,time\n0,0.0\n{row}\n")
    with pytest.raises(ValueError, match=message):
        load_trace_csv(p)
