"""Planarity testing, combinatorial embeddings, and Kuratowski witnesses.

A planarity question is first shrunk by reductions that keep its answer:
vertices of degree at most 1 go, vertices of degree 2 are smoothed, and the
parallel edges smoothing creates are merged. What remains is answered at once
when it has fewer than 9 edges (planar: every Kuratowski subdivision has at
least 9), more than 3n - 6 (nonplanar, by Euler's bound) or fewer than 6
vertices (planar: the only nonplanar graph that small is K5, which has more
than 3n - 6 edges); only the rest goes to `_lr_planar`, this module's own
left-right test (de Fraysseix and Rosenstiehl, as written up by Brandes in
"The Left-Right Planarity Test", 2009), which keeps its own stacks. A
yes/no answer runs its test phases alone; `embed` runs its embedding phase
too, on g's sorted adjacency, and an embedding is its faces. Kuratowski
witnesses come from a deletion loop over the union of g's nonplanar blocks
(`_blocks`, an iterative Hopcroft-Tarjan split). `faces_are_fixed` says
when the faces of one embedding are the faces of every embedding:
`modification.PlanarSets` then reads "is g + uv planar?" off them. The
contract here is boolean + witness + faces, all of which are re-verified by
the callers that care, plus one proof a graph carries: `certified_planar` returns a copy of a
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

from .errors import InputError
from .graphs import Graph, smooth_degree_two


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
    graph."""
    adj = _reduce(edges)
    m = sum(map(len, adj.values())) // 2
    if m < 9:
        return True
    if m > 3 * len(adj) - 6:
        return False
    if len(adj) < 6:
        return True
    return _lr_planar(adj)


def _lr_planar(adj: dict, embedding: bool = False):
    """Planarity of the simple graph with this adjacency (each vertex's
    neighbours): the left-right planarity test of de Fraysseix and
    Rosenstiehl, as Brandes writes it up in "The Left-Right Planarity Test"
    (2009). Every depth-first search keeps its own stack, so the depth of
    the graph does not meet the recursion limit.

    Returns False on a nonplanar graph, else True, or with `embedding` the
    rotation system of a planar embedding instead: for each vertex, a dict
    that maps each neighbour to the next one counterclockwise. The searches
    visit vertices and neighbours in the order `adj` lists them, and the
    rotation follows from that order alone.

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
    # testing: the conflict pairs of the edges in nesting order; `ref`,
    # `side` and `lowpt_edge` also record, for the embedding, each return
    # edge's side relative to another edge's
    for es in out:
        es.sort(key=nest.__getitem__)
    nxt = [0] * n
    ref = [None] * m
    side = [1] * m
    lowpt_edge = [0] * m
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
                lowpt_edge[ei] = ei
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
                    if ll is not None:
                        side[ll] = -1
                if pairs:
                    p = pairs[-1]
                    while p[1] is not None and dst[p[1]] == u:
                        p[1] = ref[p[1]]
                    if p[1] is None and p[0] is not None:
                        ref[p[0]] = p[2]
                        side[p[0]] = -1
                        p[0] = None
                    while p[3] is not None and dst[p[3]] == u:
                        p[3] = ref[p[3]]
                    if p[3] is None and p[2] is not None:
                        ref[p[2]] = p[0]
                        side[p[2]] = -1
                        p[2] = None
                    # ei lies on the side of a highest return edge
                    if low[ei] < hu:
                        hl, hr = p[1], p[3]
                        higher = hl is not None and (hr is None or low[hl] > low[hr])
                        ref[ei] = hl if higher else hr
                v = u
            # integrate the return edges of ei, which leaves v
            if low[ei] >= height[v]:
                continue
            e = parent[v]
            if nxt[v] == 1:  # ei is v's first edge
                lowpt_edge[e] = lowpt_edge[ei]
                continue
            # add the constraints of ei: its return edges above e's lowpoint
            # go into P's right interval, the others align with e's lowpoint
            # edge
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
                else:
                    ref[qr] = lowpt_edge[e]
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
    if not embedding:
        return True
    # embedding: each edge's side follows its chain of references, and
    # each vertex's outgoing edges are ordered by signed nesting depth
    for e in range(m):
        chain = []
        while ref[e] is not None:
            chain.append(e)
            e = ref[e]
        s = side[e]
        for f in reversed(chain):
            s = side[f] = side[f] * s
            ref[f] = None
    for e in range(m):
        nest[e] *= side[e]
    # the rotation as a circular list: cw[v][w] and ccw[v][w] are the
    # neighbours after and before w clockwise around v
    cw = [{} for _ in range(n)]
    ccw = [{} for _ in range(n)]
    first = [None] * n  # each vertex's first outgoing neighbour
    for v, es in enumerate(out):
        es.sort(key=nest.__getitem__)
        ws = [dst[e] for e in es]
        for i, w in enumerate(ws):
            cw[v][w] = ws[i + 1 - len(ws)]
            ccw[v][w] = ws[i - 1]
        if ws:
            first[v] = ws[0]
    # the incoming edges go in around their heads in a last search
    left_ref, right_ref = [0] * n, [0] * n
    nxt = [0] * n
    for r in roots:
        stack = [r]
        while stack:
            v = stack[-1]
            es = out[v]
            i = nxt[v]
            if i == len(es):
                stack.pop()
                continue
            nxt[v] = i + 1
            ei = es[i]
            w = dst[ei]
            ccw_w, cw_w = ccw[w], cw[w]
            if parent[w] == ei:  # v goes first around w
                a = first[w]
                if a is None:
                    cw_w[v] = ccw_w[v] = v
                else:
                    b = ccw_w[a]
                    cw_w[v], ccw_w[v] = a, b
                    ccw_w[a] = cw_w[b] = v
                left_ref[v] = right_ref[v] = w
                stack.append(w)
            elif side[ei] == 1:  # v goes right after right_ref[w]
                a = right_ref[w]
                b = cw_w[a]
                cw_w[v], ccw_w[v] = b, a
                cw_w[a] = ccw_w[b] = v
            else:  # v goes right before left_ref[w]
                a = left_ref[w]
                b = ccw_w[a]
                cw_w[v], ccw_w[v] = a, b
                ccw_w[a] = cw_w[b] = v
                left_ref[w] = v
    vs = list(adj)
    return {vs[v]: {vs[a]: vs[b] for a, b in rot.items()} for v, rot in enumerate(ccw)}


def _blocks(adj, without=None) -> list:
    """The edges of each block (biconnected component) of the graph with
    this adjacency, or of that graph less the vertex `without`: Hopcroft and
    Tarjan's lowpoint search, with its own stack. A bridge is a block of one
    edge; an isolated vertex lies in no block."""
    depth, low = {}, {}
    blocks = []
    edges = []  # the edges met and not yet in a block
    for r in adj:
        if r in depth or r == without:
            continue
        depth[r] = low[r] = 0
        # each frame: a vertex, its parent, its neighbours left to visit,
        # and the edge count when the tree edge into it went in
        stack = [(r, None, iter(adj[r]), 0)]
        while stack:
            v, up, it, mark = stack[-1]
            for w in it:
                if w == up or w == without:
                    continue
                if w not in depth:
                    depth[w] = low[w] = depth[v] + 1
                    stack.append((w, v, iter(adj[w]), len(edges)))
                    edges.append((v, w))
                    break
                if depth[w] < depth[v]:  # a back edge to an ancestor
                    edges.append((v, w))
                    low[v] = min(low[v], depth[w])
            else:
                stack.pop()
                if up is None:
                    continue
                low[up] = min(low[up], low[v])
                if low[v] >= depth[up]:  # up separates v's subtree
                    blocks.append(edges[mark:])
                    del edges[mark:]
    return blocks


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

    The witness of the deletion loop: visit each edge of
    `g.sorted_edges()` once, in that order, and keep it iff removing it
    leaves the rest planar. A kept edge need not be tested again: the
    rest has only lost edges since, so removing it still leaves a planar
    graph.

    g is planar iff its blocks are. The loop runs on the edges of the union
    U of g's nonplanar blocks alone, in their order: every rest is
    nonplanar, so it holds a nonplanar block, which lies inside U; an edge
    outside U therefore always goes, and rest − e is planar iff its part
    inside U is. The block tests bypass the `is_planar` memo, whose hit
    counts stay those of the callers.
    """
    bad = {frozenset(e) for b in _blocks(g.adj) if not _planar(b) for e in b}
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

    The embedding is `_lr_planar`'s on g's sorted adjacency lists, so it
    depends on g alone, not on how its sets were built. It does not go
    through the `is_planar` memo. Faces of distinct connected components
    share one merged outer face, the last one, so that
    |V| - |E| + |F| = 1 + #components.
    """
    ccw = _lr_planar({v: sorted(g.adj[v]) for v in g.sorted_vertices()}, embedding=True)
    if ccw is False:
        return None
    inner_faces = []
    outer_pieces = []
    for comp in g.components():
        comp_faces = _component_faces(ccw, comp)
        if not comp_faces:
            continue  # isolated vertex: no half-edges, no faces
        big = max(range(len(comp_faces)), key=lambda i: (len(comp_faces[i]), i))
        outer_pieces.append(comp_faces[big])
        inner_faces.extend(f for i, f in enumerate(comp_faces) if i != big)
    return tuple(inner_faces) + (tuple(v for piece in outer_pieces for v in piece),)


def _component_faces(ccw: dict, comp) -> list:
    """The faces of one component, each walked from its first half-edge
    (u, v) in sorted order: after a half-edge (a, b) the face goes on along
    (b, c), where c follows a counterclockwise around b."""
    seen = set()
    faces = []
    for u in sorted(comp):
        for v in sorted(ccw[u]):
            if (u, v) in seen:
                continue
            face = []
            a, b = u, v
            while True:
                face.append(a)
                seen.add((a, b))
                a, b = b, ccw[b][a]
                if a == u and b == v:
                    break
            faces.append(tuple(face))
    return faces


def faces_are_fixed(g: Graph) -> bool:
    """Is g a subdivision of a 3-connected graph? Then a planar g has the
    same faces, as vertex sets, in every embedding: a 3-connected planar
    graph has one embedding up to reflection (Whitney), and g's embeddings
    are its reduct's with each edge drawn as its path.

    The subdivided graph is g's degree-2 reduct R (`smooth_degree_two`): it
    is 3-connected when it has at least 4 vertices and R - x is one block
    that spans R - x for every x (`_blocks`). A vertex of degree at most 1,
    or of degree 2 that smoothing had to keep, leaves R with a vertex of
    degree at most 2, so R is not 3-connected and g is no subdivision of
    one."""
    adj = smooth_degree_two(g)[0].adj

    def spanning_block(x) -> bool:
        blocks = _blocks(adj, x)
        return len(blocks) == 1 and len({v for e in blocks[0] for v in e}) == len(adj) - 1
    return len(adj) >= 4 and all(map(spanning_block, adj))


def planar_with_additions(g: Graph, pairs: Iterable) -> bool:
    """Planarity of g with the given non-edges added.

    Same answer as applying an edge-addition set and testing, built directly.
    """
    pairs = list(pairs)
    for u, v in pairs:
        if g.has_edge(u, v):
            raise InputError(f"{{{u!r},{v!r}}} is already an edge")
    return is_planar(g.add_edges(pairs))

