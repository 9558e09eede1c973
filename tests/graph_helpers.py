"""Small graph builders, a planted star-minor host and a distance helper
that only the tests use."""

from math import inf
from typing import Mapping

from planmod.errors import InputError
from planmod.graphs import Graph, k5_star


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


def planted_star(rng, copies):
    """A host with a planted (K5, copies)-star model: random connected branch
    sets of 1-3 vertices, one edge behind each pattern edge, random extra
    edges, a disjoint extra component and shuffled ids. Returns (host, the
    centre, pattern, hub)."""
    pattern, hub = k5_star(copies)
    branch, edges, nxt = {}, [], 0
    for p in pattern.sorted_vertices():
        members = list(range(nxt, nxt + rng.randint(1, 3)))
        nxt += len(members)
        edges += [(v, rng.choice(members[:i])) for i, v in enumerate(members) if i]
        branch[p] = members
    edges += [(rng.choice(branch[p]), rng.choice(branch[q])) for p, q in pattern.edges]
    edges += [tuple(rng.sample(range(nxt), 2)) for _ in range(rng.randint(0, 6))]
    extra = list(range(nxt, nxt + rng.randint(3, 8)))
    edges += [(v, rng.choice(extra[:i])) for i, v in enumerate(extra) if i]
    ids = list(range(extra[-1] + 1))
    rng.shuffle(ids)
    host = relabel(Graph(range(len(ids)), edges), dict(enumerate(ids)))
    return host, ids[rng.choice(branch[hub])], pattern, hub
