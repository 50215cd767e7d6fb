"""The tests' small graphs, written as adjacency lists."""

from ratejump.si import Graph


def from_adjacency(adjacency) -> Graph:
    """The graph in which vertex v has the neighbors ``adjacency[v]``, in that order."""
    src = [v for v, row in enumerate(adjacency) for _ in row]
    dst = [u for row in adjacency for u in row]
    return Graph(len(adjacency), src, dst)
