"""Small graph builders and a distance helper that only the tests use."""

from math import inf
from typing import Mapping

from planmod.errors import InputError
from planmod.graphs import Graph


def path_graph(n: int, offset: int = 0) -> Graph:
    verts = range(offset, offset + n)
    return Graph(verts, ((v, v + 1) for v in range(offset, offset + n - 1)))


def cycle_graph(n: int, offset: int = 0) -> Graph:
    if n < 3:
        raise InputError("cycle needs >= 3 vertices")
    g = path_graph(n, offset)
    return g.add_edges([(offset, offset + n - 1)])


def relabel(g: Graph, mapping: Mapping) -> Graph:
    """Injective relabeling of vertex ids."""
    lift = lambda v: mapping.get(v, v)
    new_verts = [lift(v) for v in g.vertices]
    if len(set(new_verts)) != len(new_verts):
        raise InputError("relabeling is not injective")
    return Graph(new_verts, ((lift(u), lift(v)) for u, v in g.edges))


def distance(g: Graph, u, v):
    """Shortest-path length between u and v; math.inf when disconnected."""
    g._require(u)
    g._require(v)
    return g.bfs_distances(u).get(v, inf)
