"""Small graph builders, a seeded random graph, a planted star-minor host, a
distance helper, networkx's view of a graph and its planarity answer, and a
minor-model checker that only the tests use."""

import random
from math import inf
from typing import Iterable, Mapping

import networkx as nx

from planmod.errors import InputError
from planmod.fixtures import random_graph
from planmod.graphs import Graph, k5_star, load_graph


def path_graph(n: int, offset: int = 0) -> Graph:
    verts = range(offset, offset + n)
    return Graph(verts, ((v, v + 1) for v in range(offset, offset + n - 1)))


def cycle_graph(n: int, offset: int = 0) -> Graph:
    if n < 3:
        raise InputError("cycle needs >= 3 vertices")
    g = path_graph(n, offset)
    return g.add_edges([(offset, offset + n - 1)])


def seeded_graph(seed: int, max_n: int, p: float, min_n: int = 1) -> Graph:
    """`fixtures.random_graph` on min_n..max_n vertices, the count and the
    edges both drawn from random.Random(seed)."""
    rng = random.Random(seed)
    return random_graph(rng, rng.randint(min_n, max_n), p)


def to_nx(g: Graph) -> nx.Graph:
    """g as a networkx graph, its vertices and edges added in sorted
    order: networkx's embedding and its Kuratowski witness follow the order
    they were added in, so this makes both depend on g alone, not on how
    its sets were built, and gives the embedding `planarity.embed` builds."""
    h = nx.Graph()
    h.add_nodes_from(g.sorted_vertices())
    h.add_edges_from(g.sorted_edges())
    return h


def nx_planar(g: Graph) -> bool:
    """networkx's planarity answer for g."""
    return nx.check_planarity(to_nx(g))[0]


def relabel(g: Graph, mapping: Mapping) -> Graph:
    """Injective relabeling of vertex ids."""
    lift = lambda v: mapping.get(v, v)
    new_verts = [lift(v) for v in g.vertices]
    if len(set(new_verts)) != len(new_verts):
        raise InputError("relabeling is not injective")
    return Graph(new_verts, ((lift(u), lift(v)) for u, v in g.edges))


def through_json(g: Graph, mapping: Mapping) -> Graph:
    """g with its ids renamed by `mapping`, which may mix id types, read
    back by the JSON loader: the vertices become 0..n-1 in the
    `vertex_key` order of the new names."""
    lift = lambda v: mapping.get(v, v)
    return load_graph({"vertices": [lift(v) for v in g.vertices],
                       "edges": [[lift(u), lift(v)] for u, v in g.edges]})[0]


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


def verify_minor_model(host: Graph, pattern: Graph, model: Mapping,
                       must_intersect: Iterable | None = None) -> bool:
    """Checks a claimed minor model: disjoint connected branch sets, one per
    pattern vertex, with a host edge behind every pattern edge.

    When `must_intersect` is given, every branch set must also hit that set.
    """
    if set(model) != set(pattern.vertices):
        return False
    seen = set()
    sets = {}
    for pv, branch in model.items():
        branch = set(branch)
        if not branch or not branch <= host.vertices:
            return False
        if branch & seen:
            return False
        seen |= branch
        if not host.induced(branch).is_connected():
            return False
        sets[pv] = branch
    if must_intersect is not None:
        need = set(must_intersect)
        if any(not (b & need) for b in sets.values()):
            return False
    for pu, pv in pattern.edges:
        if not any(host.has_edge(a, b) for a in sets[pu] for b in sets[pv]):
            return False
    return True
