"""The tests' small graphs, written as adjacency lists."""

from collections import Counter

from ratejump.si import Graph, _edge_ends


def from_adjacency(adjacency) -> Graph:
    """The graph in which vertex v has the neighbors ``adjacency[v]``.

    The lists must be symmetric.  Each edge is passed once, as (v, u) from
    the row of its smaller end v, so ``edge_list`` follows the rows.
    """
    arcs = [(v, u) for v, row in enumerate(adjacency) for u in row]
    assert Counter(arcs) == Counter((u, v) for v, u in arcs), "adjacency is not symmetric"
    edges = [(v, u) for v, u in arcs if v <= u]
    return Graph(len(adjacency), [v for v, _ in edges], [u for _, u in edges])


def edge_list(graph: Graph) -> list:
    """The graph's edges as (u, v) pairs, u < v, in the order of its edge
    weights (``_edge_ends``)."""
    u, v = _edge_ends(graph)
    return list(zip(u.tolist(), v.tolist()))
