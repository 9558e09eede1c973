"""Planarity testing, combinatorial embeddings, and Kuratowski witnesses.

A planarity question is first shrunk by reductions that keep its answer:
vertices of degree at most 1 go, vertices of degree 2 are smoothed, and the
parallel edges smoothing creates are merged. What remains is answered at once
when it has fewer than 9 edges (planar: every Kuratowski subdivision has at
least 9), more than 3n - 6 (nonplanar, by Euler's bound) or fewer than 6
vertices (planar: the only nonplanar graph that small is K5, which has more
than 3n - 6 edges); only the rest goes to `_lr_planar`, this module's own
left-right test (de Fraysseix and Rosenstiehl, as written up by Brandes in
"The Left-Right Planarity Test", 2009). It runs the test phases alone,
iteratively, and builds no embedding. Kuratowski witnesses are networkx's,
built by its deletion loop with each step decided the same way. Embeddings
come from networkx's `check_planarity` directly, the one call of it here,
and an embedding is its faces. `faces_are_fixed` says when the faces of one
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
from .graphs import Graph, smooth_degree_two


def _to_nx(g: Graph) -> nx.Graph:
    """g as a networkx graph, its vertices and edges added in sorted
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
    decides it (see the module docstring), or `_lr_planar` decides that
    graph. No networkx object is built."""
    adj = _reduce(edges)
    m = sum(map(len, adj.values())) // 2
    if m < 9:
        return True
    if m > 3 * len(adj) - 6:
        return False
    if len(adj) < 6:
        return True
    return _lr_planar(adj)


def _lr_planar(adj: dict) -> bool:
    """Planarity of the simple graph with this adjacency (each vertex's
    set of neighbours): the two test phases of the left-right planarity
    test of de Fraysseix and Rosenstiehl, as Brandes writes them up in "The
    Left-Right Planarity Test" (2009), which networkx's `check_planarity`
    also runs. Both depth-first searches keep their own stack, so the depth
    of the graph does not meet the recursion limit, and the embedding phase
    is left out, with the writes of `ref` and `lowpt_edge` that only it
    reads.

    Vertices become 0..n-1 and edges are numbered as the first search
    orients them, from ancestor to child on a tree edge and from descendant
    to ancestor on a back edge; the state lives in lists indexed by these
    numbers. A conflict pair is a list
    [left low, left high, right low, right high] of return edges, None
    where an interval is empty.
    """
    index = {v: i for i, v in enumerate(adj)}
    nbrs = [[index[w] for w in ns] for ns in adj.values()]
    n = len(nbrs)
    m = sum(map(len, nbrs)) // 2
    height = [-1] * n
    parent = [-1] * n  # the tree edge into each vertex, -1 at a root
    dst = [0] * m
    low, low2, nest = [0] * m, [0] * m, [0] * m
    out = [[] for _ in range(n)]
    nxt = [0] * n
    roots = []
    count = 0
    # orientation: heights, lowpoints and nesting depths
    for r in range(n):
        if height[r] >= 0:
            continue
        height[r] = 0
        roots.append(r)
        stack = [r]
        while stack:
            v = stack[-1]
            i = nxt[v]
            if i < len(nbrs[v]):
                nxt[v] = i + 1
                w = nbrs[v][i]
                hv, hw = height[v], height[w]
                if hw >= 0 and hw >= hv - 1:
                    continue  # v's parent, or a descendant whose back edge is oriented
                e = count
                count += 1
                dst[e] = w
                out[v].append(e)
                if hw < 0:  # tree edge: finished when w is
                    low[e] = low2[e] = hv
                    parent[w] = e
                    height[w] = hv + 1
                    stack.append(w)
                    continue
                low[e], low2[e] = hw, hv
            else:
                stack.pop()
                e = parent[v]
                if e < 0:
                    continue
                v = stack[-1]
            # e leaves v and is finished: its nesting depth, then the
            # lowpoints of v's parent edge
            nest[e] = 2 * low[e] + (low2[e] < height[v])
            f = parent[v]
            if f >= 0:
                if low[e] < low[f]:
                    low2[f] = min(low[f], low2[e])
                    low[f] = low[e]
                elif low[e] > low[f]:
                    low2[f] = min(low2[f], low[e])
                else:
                    low2[f] = min(low2[f], low2[e])
    # testing: the conflict pairs of the edges in nesting order
    for es in out:
        es.sort(key=nest.__getitem__)
    nxt = [0] * n
    ref = [None] * m
    bottom = [0] * m  # the stack height when each edge was entered
    pairs = []
    for r in roots:
        stack = [r]
        while stack:
            v = stack[-1]
            es = out[v]
            i = nxt[v]
            if i < len(es):
                nxt[v] = i + 1
                ei = es[i]
                bottom[ei] = len(pairs)
                if parent[dst[ei]] == ei:
                    stack.append(dst[ei])
                    continue
                pairs.append([None, None, ei, ei])
            else:
                stack.pop()
                ei = parent[v]
                if ei < 0:
                    continue
                # remove the back edges that return to u = v's parent
                u = stack[-1]
                hu = height[u]
                while pairs:
                    ll, _, rl, _ = pairs[-1]
                    if hu != (low[rl] if ll is None else low[ll] if rl is None
                              else min(low[ll], low[rl])):
                        break
                    pairs.pop()
                if pairs:
                    p = pairs[-1]
                    while p[1] is not None and dst[p[1]] == u:
                        p[1] = ref[p[1]]
                    if p[1] is None:
                        p[0] = None
                    while p[3] is not None and dst[p[3]] == u:
                        p[3] = ref[p[3]]
                    if p[3] is None:
                        p[2] = None
                v = u
            # integrate the return edges of ei, which leaves v
            if low[ei] >= height[v]:
                continue
            if nxt[v] == 1:  # ei is v's first edge
                continue
            e = parent[v]
            # add the constraints of ei: its return edges above e's lowpoint
            # go into P's right interval (the others align with e's lowpoint
            # edge, which only the embedding phase reads)
            p = [None, None, None, None]
            while True:
                ql, qlh, qr, qrh = pairs.pop()
                if ql is not None or qlh is not None:
                    ql, qlh, qr, qrh = qr, qrh, ql, qlh
                    if ql is not None or qlh is not None:
                        return False
                if low[qr] > low[e]:
                    if p[2] is None and p[3] is None:
                        p[3] = qrh
                    else:
                        ref[p[2]] = qrh
                    p[2] = qr
                if len(pairs) == bottom[ei]:
                    break
            # the earlier edges' return edges that conflict with ei go left
            lo = low[ei]
            while pairs:
                ql, qlh, qr, qrh = pairs[-1]
                left = (ql is not None or qlh is not None) and low[qlh] > lo
                right = (qr is not None or qrh is not None) and low[qrh] > lo
                if not (left or right):
                    break
                pairs.pop()
                if right:
                    if left:
                        return False
                    ql, qlh, qr, qrh = qr, qrh, ql, qlh
                if p[2] is not None:
                    ref[p[2]] = qrh
                if qr is not None:
                    p[2] = qr
                if p[0] is None and p[1] is None:
                    p[1] = qlh
                else:
                    ref[p[0]] = qlh
                p[0] = ql
            if any(x is not None for x in p):
                pairs.append(p)
    return True


# the memo keeps every graph it tests, so its bound is small: one run can
# test a graph of a thousand vertices per vertex pair
@lru_cache(maxsize=1 << 10)
def is_planar(g: Graph) -> bool:
    """Is g planar? True at once when g carries `known_planar`, else tested
    by `_planar`: the reductions, then the left-right kernel `_lr_planar`
    (Brandes 2009), which answers yes or no and embeds nothing.

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
    for u in sorted(comp):
        for v in sorted(g.adj[u]):
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

