"""Planarity testing, combinatorial embeddings, and Kuratowski witnesses.

The planarity decision itself is delegated to networkx's left-right test;
the contract here is only boolean + witness + rotation system, all of which
are re-verified by the callers that care.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Mapping

import networkx as nx

from .errors import InputError
from .graphs import Graph, vertex_key


def _to_nx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(g.vertices)
    h.add_edges_from(g.edges)
    return h


@lru_cache(maxsize=1 << 16)
def is_planar(g: Graph) -> bool:
    ok, _ = nx.check_planarity(_to_nx(g), counterexample=False)
    return ok


def kuratowski(g: Graph) -> Graph | None:
    """A K5- or K3,3-subdivision subgraph of g, or None when g is planar."""
    ok, cert = nx.check_planarity(_to_nx(g), counterexample=True)
    if ok:
        return None
    return Graph(cert.nodes(), cert.edges())


def suppress_degree_two(g: Graph) -> Graph:
    """Smooth out degree-2 vertices; the reverse of subdividing edges.

    Fails on graphs where smoothing would create a loop or need a multi-edge
    (e.g. pure cycles), which no Kuratowski witness ever is.
    """
    verts = set(g.vertices)
    edges = {frozenset(e) for e in g.edges}
    changed = True
    while changed:
        changed = False
        adj = {v: set() for v in verts}
        for e in edges:
            u, v = tuple(e)
            adj[u].add(v)
            adj[v].add(u)
        for v in sorted(verts, key=vertex_key):
            if len(adj[v]) == 2:
                a, b = sorted(adj[v], key=vertex_key)
                if a == b or frozenset((a, b)) in edges:
                    raise InputError("smoothing would create a loop or parallel edge")
                edges -= {frozenset((v, a)), frozenset((v, b))}
                edges.add(frozenset((a, b)))
                verts.remove(v)
                changed = True
                break
    return Graph(verts, (tuple(e) for e in edges))


def kuratowski_kind(witness: Graph) -> str | None:
    """'K5' or 'K33' when the graph is a subdivision of that graph, else None."""
    if any(witness.degree(v) < 2 for v in witness.vertices):
        return None
    try:
        core = suppress_degree_two(witness)
    except InputError:
        return None
    n, m = len(core.vertices), len(core.edges)
    degs = sorted(core.degree(v) for v in core.vertices)
    if n == 5 and m == 10 and degs == [4] * 5:
        return "K5"
    if n == 6 and m == 9 and degs == [3] * 6:
        # bipartite complement check: each side is an independent triple
        side = next(iter(core.vertices))
        far = core.vertices - core.neighbors(side) - {side}
        if len(far) == 2 and all(not core.has_edge(u, v) for u in far | {side} for v in far | {side} if u != v):
            return "K33"
    return None


@dataclass(frozen=True)
class Embedding:
    """Rotation system plus the face list it induces; outer_face indexes faces."""

    rotation: Mapping  # vertex -> tuple of neighbors in cyclic order
    faces: tuple       # tuple of faces; a face is a tuple of vertices
    outer_face: int

    def face_count(self) -> int:
        return len(self.faces)


def embed(g: Graph) -> Embedding | None:
    """A combinatorial embedding of g, or None when g is nonplanar.

    Faces of distinct connected components share one merged outer face so that
    |V| - |E| + |F| = 1 + #components.
    """
    ok, emb = nx.check_planarity(_to_nx(g), counterexample=False)
    if not ok:
        return None
    rotation = {v: tuple(emb.neighbors_cw_order(v)) for v in g.sorted_vertices()}
    inner_faces = []
    outer_pieces = []
    for comp in g.components():
        comp_faces = _component_faces(emb, g, comp)
        if not comp_faces:
            continue  # isolated vertex: no half-edges, no faces
        big = max(range(len(comp_faces)), key=lambda i: (len(comp_faces[i]), i))
        outer_pieces.append(comp_faces[big])
        inner_faces.extend(f for i, f in enumerate(comp_faces) if i != big)
    outer = tuple(v for piece in outer_pieces for v in piece)
    faces = tuple(inner_faces) + (outer,)
    return Embedding(rotation=rotation, faces=faces, outer_face=len(faces) - 1)


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


def euler_ok(g: Graph, emb: Embedding) -> bool:
    return len(g.vertices) - len(g.edges) + emb.face_count() == 1 + len(g.components())


def planar_with_additions(g: Graph, pairs: Iterable) -> bool:
    """Planarity of g with the given non-edges added.

    Same answer as applying an edge-addition set and testing, built directly.
    """
    pairs = list(pairs)
    for u, v in pairs:
        if g.has_edge(u, v):
            raise InputError(f"{{{u!r},{v!r}}} is already an edge")
    return is_planar(g.add_edges(pairs))

