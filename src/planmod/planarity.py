"""Planarity testing, combinatorial embeddings, and Kuratowski witnesses.

A planarity question is first shrunk by reductions that keep its answer:
vertices of degree at most 1 go, vertices of degree 2 are smoothed, and the
parallel edges smoothing creates are merged. What remains is answered at once
when it has fewer than 9 edges (planar: every Kuratowski subdivision has at
least 9), more than 3n - 6 (nonplanar, by Euler's bound) or fewer than 6
vertices (planar: the only nonplanar graph that small is K5, which has more
than 3n - 6 edges); only the rest goes to networkx's left-right test.
Kuratowski witnesses are networkx's, built by its deletion loop with each
step decided the same way. Embeddings come from networkx directly, and an
embedding is its faces. `faces_are_fixed` says when the faces of one
embedding are the faces of every embedding: `modification.PlanarSets` then
reads "is g + uv planar?" off them. The contract here is boolean +
witness + faces, all of which are re-verified by the callers that care,
plus one proof a graph carries: `certified_planar` returns a copy of a
planar g marked `known_planar`, and every subgraph derived from that copy
by deletion (`remove_vertices`, `remove_edges`, `induced`, or
`add_vertices`, which adds only isolated vertices) keeps the mark, because
a subgraph of a planar graph is planar. `is_planar` answers a marked graph
without a test. The mark is never written onto a graph that already
exists, so no caller's graph carries it unless the caller derived it from
such a copy.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable

import networkx as nx

from .errors import InputError
from .graphs import Graph, smooth_degree_two, vertex_key


def _to_nx(g: Graph) -> nx.Graph:
    """g as a networkx graph, its vertices and edges added in `vertex_key`
    order: networkx's embedding and its Kuratowski witness follow the order
    they were added in, so this makes both depend on g alone, not on how
    its sets were built."""
    h = nx.Graph()
    h.add_nodes_from(g.sorted_vertices())
    h.add_edges_from(g.sorted_edges())
    return h


def _reduce(edges: Iterable) -> dict:
    """Adjacency of the graph with these edges after deleting vertices of
    degree <= 1 and smoothing vertices of degree 2 until neither applies;
    planar exactly when the input is. Isolated vertices never matter."""
    adj = {}
    for u, v in edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    todo = [v for v, ns in adj.items() if len(ns) <= 2]
    while todo:
        v = todo.pop()
        ns = adj.get(v)
        if ns is None or len(ns) > 2:
            continue
        del adj[v]
        for u in ns:
            adj[u].discard(v)
        if len(ns) == 2:
            # the smoothed edge a-b; when it exists already the two merge
            a, b = ns
            adj[a].add(b)
            adj[b].add(a)
        todo.extend(u for u in ns if len(adj[u]) <= 2)
    return adj


def _planar(edges: Iterable) -> bool:
    """Planarity of the graph with these edges: the reduced graph's size
    decides it (see the module docstring), or networkx decides that graph."""
    adj = _reduce(edges)
    m = sum(map(len, adj.values())) // 2
    if m < 9:
        return True
    if m > 3 * len(adj) - 6:
        return False
    if len(adj) < 6:
        return True
    h = nx.Graph()
    h.add_edges_from((u, v) for u, ns in adj.items() for v in ns)
    return nx.check_planarity(h)[0]


@lru_cache(maxsize=1 << 16)
def is_planar(g: Graph) -> bool:
    """Is g planar? True at once when g carries `known_planar`, else tested.

    A marked graph not yet in the memo still counts as a miss in
    `cache_info()`, but runs no test. The test reads g.edges, not g.adj:
    the memo keeps g, and with it any adjacency."""
    return g.known_planar or _planar(g.edges)


def certified_planar(g: Graph) -> Graph | None:
    """A new graph equal to g that carries `known_planar`, or None when g is
    nonplanar. g itself is left unmarked."""
    if not is_planar(g):
        return None
    return Graph._derived(g.vertices, g.edges, g._adj, known_planar=True)


def kuratowski(g: Graph) -> Graph | None:
    """A K5- or K3,3-subdivision subgraph of g, or None when g is planar.

    The same witness as networkx's `get_counterexample` on `_to_nx(g)`: visit
    each edge once in its order (nodes in order, later neighbours in
    adjacency order, which for `_to_nx`'s insertion order is
    `g.sorted_edges()`) and keep it iff removing it leaves the rest planar.
    networkx also re-tests kept edges from their far end, but the rest has
    only lost edges since, so the answer is again "planar" and is skipped.

    g is planar iff its blocks are. The loop runs on the edges of the union
    U of g's nonplanar blocks alone, in their order: every rest is
    nonplanar, so it holds a nonplanar block, which lies inside U; an edge
    outside U therefore always goes, and rest − e is planar iff its part
    inside U is. The block tests bypass the `is_planar` memo, whose hit
    counts stay those of the callers.
    """
    blocks = nx.biconnected_component_edges(_to_nx(g))
    bad = set().union(*(set(map(frozenset, b)) for b in blocks if not _planar(b)))
    if not bad:
        return None
    order = [e for e in g.sorted_edges() if frozenset(e) in bad]
    rest = set(order)
    kept = []
    for e in order:
        rest.remove(e)
        if _planar(rest):
            rest.add(e)
            kept.append(e)
    return Graph({v for e in kept for v in e}, kept)


def embed(g: Graph) -> tuple | None:
    """The faces of one combinatorial embedding of g, each a tuple of
    vertices, or None when g is nonplanar.

    Faces of distinct connected components share one merged outer face, the
    last one, so that |V| - |E| + |F| = 1 + #components.
    """
    ok, emb = nx.check_planarity(_to_nx(g), counterexample=False)
    if not ok:
        return None
    inner_faces = []
    outer_pieces = []
    for comp in g.components():
        comp_faces = _component_faces(emb, g, comp)
        if not comp_faces:
            continue  # isolated vertex: no half-edges, no faces
        big = max(range(len(comp_faces)), key=lambda i: (len(comp_faces[i]), i))
        outer_pieces.append(comp_faces[big])
        inner_faces.extend(f for i, f in enumerate(comp_faces) if i != big)
    return tuple(inner_faces) + (tuple(v for piece in outer_pieces for v in piece),)


def _component_faces(emb, g: Graph, comp) -> list:
    seen = set()
    faces = []
    for u in sorted(comp, key=vertex_key):
        for v in sorted(g.adj[u], key=vertex_key):
            if (u, v) in seen:
                continue
            face = emb.traverse_face(u, v, mark_half_edges=seen)
            faces.append(tuple(face))
    return faces


def faces_are_fixed(g: Graph) -> bool:
    """Is g a subdivision of a 3-connected graph? Then a planar g has the
    same faces, as vertex sets, in every embedding: a 3-connected planar
    graph has one embedding up to reflection (Whitney), and g's embeddings
    are its reduct's with each edge drawn as its path.

    The subdivided graph is g's degree-2 reduct R (`smooth_degree_two`): it
    is 3-connected when it has at least 4 vertices and R - x is connected
    with no cut vertex for every x. A vertex of degree at most 1, or of
    degree 2 that smoothing had to keep, leaves R with a vertex of degree at
    most 2, so R is not 3-connected and g is no subdivision of one."""
    reduct = _to_nx(smooth_degree_two(g)[0])

    def without(x) -> nx.Graph:
        h = reduct.copy()
        h.remove_node(x)
        return h
    return len(reduct) >= 4 and all(nx.is_biconnected(without(x)) for x in reduct)


def planar_with_additions(g: Graph, pairs: Iterable) -> bool:
    """Planarity of g with the given non-edges added.

    Same answer as applying an edge-addition set and testing, built directly.
    """
    pairs = list(pairs)
    for u, v in pairs:
        if g.has_edge(u, v):
            raise InputError(f"{{{u!r},{v!r}}} is already an edge")
    return is_planar(g.add_edges(pairs))

