"""Tree decompositions, validation, and exact treewidth for desk-scale graphs.

Two independent exact algorithms ship (subset dynamic programming and
branch-and-bound over elimination orders) so each can serve as the other's
oracle; neither is on the pipeline's path. Every decomposition the
pipeline builds is the greedy min-fill one, an upper bound, never a
treewidth claim.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Mapping

from .errors import InputError, ResourceLimitError
from .graphs import Graph

# the default vertex cap of the two exact algorithms
EXACT_CAP = 14


@dataclass(frozen=True)
class TreeDecomposition:
    tree: Graph
    bags: Mapping  # tree node -> frozenset of graph vertices

    def width(self) -> int:
        if not self.bags:
            return -1
        return max(len(b) for b in self.bags.values()) - 1


def decomposition_violations(g: Graph, td: TreeDecomposition) -> list:
    """Which of the three conditions fail; empty means valid.

    Linear in the size of g and td: each vertex's tree nodes are indexed
    once, an edge is covered when its ends' node sets meet, and a vertex's
    nodes form a subtree when one search over the tree, kept to those
    nodes, reaches them all."""
    out = []
    if set(td.bags) != set(td.tree.vertices):
        return ["bag map does not match the tree nodes"]
    if len(td.tree.edges) != max(len(td.tree.vertices) - 1, 0) or not td.tree.is_connected():
        out.append("tree is not a tree")
    nodes_of: dict = {}
    for t, bag in td.bags.items():
        for v in bag:
            nodes_of.setdefault(v, set()).add(t)
    if nodes_of.keys() != g.vertices:
        out.append("bags do not cover the vertex set")
    empty: set = set()
    for u, v in g.edges:
        if nodes_of.get(u, empty).isdisjoint(nodes_of.get(v, empty)):
            out.append(f"edge {{{u!r},{v!r}}} is in no bag")
            break
    adj = td.tree.adj
    for v in g.vertices:
        nodes = nodes_of.get(v)
        if nodes and not _spans(adj, nodes):
            out.append(f"bags containing {v!r} do not induce a subtree")
            break
    return out


def _spans(adj: Mapping, nodes: set) -> bool:
    """Do `nodes` induce a connected subgraph? A search from one of them
    that steps only onto nodes of the set."""
    start = next(iter(nodes))
    seen = {start}
    todo = [start]
    while todo:
        for t in adj[todo.pop()]:
            if t in nodes and t not in seen:
                seen.add(t)
                todo.append(t)
    return len(seen) == len(nodes)


def validate_decomposition(g: Graph, td: TreeDecomposition) -> bool:
    return not decomposition_violations(g, td)


def _index(g: Graph):
    verts = g.sorted_vertices()
    idx = {v: i for i, v in enumerate(verts)}
    adjm = [0] * len(verts)
    for u, v in g.edges:
        adjm[idx[u]] |= 1 << idx[v]
        adjm[idx[v]] |= 1 << idx[u]
    return verts, adjm


def _component_boundary(adjm, allowed_mask, v) -> int:
    """Bitmask of vertices outside allowed_mask|{v} adjacent to or reachable
    from v through allowed_mask."""
    inside = allowed_mask | (1 << v)
    comp = 1 << v
    frontier = 1 << v
    reach = 0
    while frontier:
        nxt = 0
        f = frontier
        while f:
            b = f & -f
            nxt |= adjm[b.bit_length() - 1]
            f ^= b
        reach |= nxt
        frontier = nxt & inside & ~comp
        comp |= frontier
    return reach & ~inside


def exact_treewidth(g: Graph, cap: int = EXACT_CAP) -> tuple[int, TreeDecomposition]:
    """Exact treewidth with a validating witness decomposition.

    Subset dynamic programming over elimination prefixes; exponential, so the
    vertex count is capped.
    """
    n = len(g.vertices)
    if n > cap:
        raise ResourceLimitError(
            f"exact treewidth needs |V| <= {cap}, got {n}; raise the cap to continue")
    if n == 0:
        td = TreeDecomposition(Graph([0]), {0: frozenset()})
        return -1, td
    verts, adjm = _index(g)
    full = (1 << n) - 1
    dp = [0] * (full + 1)
    choice = [0] * (full + 1)
    for mask in range(1, full + 1):
        best, best_v = n + 1, -1
        rest = mask
        while rest:
            b = rest & -rest
            rest ^= b
            v = b.bit_length() - 1
            prev = mask ^ b
            cost = _component_boundary(adjm, prev, v).bit_count()
            val = max(dp[prev], cost)
            if val < best:
                best, best_v = val, v
        dp[mask] = best
        choice[mask] = best_v
    order_rev = []
    mask = full
    while mask:
        v = choice[mask]
        order_rev.append(verts[v])
        mask ^= 1 << v
    order = list(reversed(order_rev))
    td = decomposition_from_order(g, order)
    assert td.width() == dp[full], "witness width disagrees with the DP value"
    assert validate_decomposition(g, td)
    return dp[full], td


def decomposition_from_order(g: Graph, order: list) -> TreeDecomposition:
    """Tree decomposition induced by an elimination order (with fill-in)."""
    if set(order) != set(g.vertices) or len(order) != len(g.vertices):
        raise InputError("order must enumerate the vertices exactly once")
    pos = {v: i for i, v in enumerate(order)}
    adj = {v: set(g.neighbors(v)) for v in g.vertices}
    bags = {}
    for v in order:
        later = {u for u in adj[v] if pos[u] > pos[v]}
        bags[v] = frozenset({v} | later)
        for a in later:
            adj[a] |= later - {a}
    return _decomposition(order, bags)


def _decomposition(order: list, bags: dict) -> TreeDecomposition:
    """The tree of an elimination order's bags: each bag hangs off the bag
    of its earliest-eliminated other vertex, and the per-component roots
    are chained so the host tree is connected."""
    pos = {v: i for i, v in enumerate(order)}
    edges = []
    roots = []
    for v in order:
        rest = bags[v] - {v}
        if rest:
            edges.append((v, min(rest, key=lambda u: pos[u])))
        else:
            roots.append(v)
    edges.extend(zip(roots, roots[1:]))
    return TreeDecomposition(Graph(order, edges), bags)


def _minfill(g: Graph) -> tuple:
    """(order, bags) of the greedy min-fill elimination.

    Each step eliminates the remaining vertex with the least
    (missing, degree, v): `missing` counts the non-adjacent pairs among
    its remaining neighbours (the fill edges its elimination adds),
    `degree` counts those neighbours, and the id v itself breaks the
    remaining ties, so the order is deterministic. v's bag is v with its
    remaining neighbours, as `decomposition_from_order` builds it.

    The missing counts are kept up to date rather than recomputed
    (Bodlaender & Koster, "Treewidth computations I. Upper bounds", 2010).
    Eliminating v first deletes it: a neighbour a loses the pairs {v, x}
    with x a neighbour of a but not of v, |N(a) − N[v]| of them. Then each
    fill edge ab joins two neighbours of v: a common neighbour of a and b
    loses the missing pair {a, b}, and a gains a missing pair with each
    neighbour of its own that b lacks, as b does with each of b's that a
    lacks. Only N(v) and the common neighbours of fill edges change score,
    and only they are pushed again onto the heap, whose stale entries are
    skipped when popped. A fill edge costs O(D) set work, with D the
    largest degree in the filled graph, so a step costs O(D^3 + D^2 log n)
    instead of the O(D^4) of re-scoring N(v) ∪ N(N(v)) from scratch."""
    adj = {v: set(g.adj[v]) for v in g.vertices}   # remaining vertices only
    verts = list(g.vertices)
    index = {v: i for i, v in enumerate(verts)}
    # each non-adjacent pair {a, b} is seen from a and from b; a itself is
    # in nb - adj[a] once per a
    missing = {v: (sum(len(nb - adj[a]) for a in nb) - len(nb)) // 2
               for v, nb in adj.items()}
    current = {v: (missing[v], len(adj[v]), v) for v in verts}
    heap = [(current[v], i) for i, v in enumerate(verts)]
    heapq.heapify(heap)
    order = []
    bags = {}
    while heap:
        s, i = heapq.heappop(heap)
        v = verts[i]
        if current.get(v) != s:
            continue
        del current[v]
        order.append(v)
        nb = adj.pop(v)
        bags[v] = frozenset(nb | {v})
        for a in nb:
            adj[a].discard(v)
            missing[a] -= len(adj[a] - nb)
        changed = set(nb)
        rest = list(nb)
        for j, a in enumerate(rest):
            adj_a = adj[a]
            for b in rest[j + 1:]:
                if b in adj_a:
                    continue
                adj_b = adj[b]
                common = adj_a & adj_b
                for c in common:
                    missing[c] -= 1
                changed |= common
                missing[a] += len(adj_a - adj_b)
                missing[b] += len(adj_b - adj_a)
                adj_a.add(b)
                adj_b.add(a)
        for u in changed:
            s = (missing[u], len(adj[u]), u)
            if s != current[u]:
                current[u] = s
                heapq.heappush(heap, (s, index[u]))
    return order, bags


def minfill_decomposition(g: Graph) -> TreeDecomposition:
    """Greedy min-fill witness; its width is an upper bound on treewidth.
    The bags come from the elimination itself, so the fill runs once."""
    td = _decomposition(*_minfill(g))
    assert validate_decomposition(g, td)
    return td


def exact_treewidth_bb(g: Graph, cap: int = EXACT_CAP) -> int:
    """Exact treewidth by branch-and-bound over elimination orders.

    Independent of the subset DP; used as its cross-check oracle.
    """
    n = len(g.vertices)
    if n > cap:
        raise ResourceLimitError(
            f"exact treewidth needs |V| <= {cap}, got {n}; raise the cap to continue")
    if n == 0:
        return -1
    _, adjm = _index(g)
    full = (1 << n) - 1
    best = minfill_decomposition(g).width()
    memo: dict[int, int] = {}

    def search(eliminated: int, masks: tuple, cur: int):
        nonlocal best
        if cur >= best:
            return
        if eliminated == full:
            best = cur
            return
        prev = memo.get(eliminated)
        if prev is not None and prev <= cur:
            return
        memo[eliminated] = cur
        todo = sorted((m for m in range(n) if not eliminated & (1 << m)),
                      key=lambda m: (masks[m] & ~eliminated).bit_count())
        for v in todo:
            nb = masks[v] & ~eliminated & ~(1 << v)
            deg = nb.bit_count()
            if max(cur, deg) >= best:
                continue
            new_masks = list(masks)
            rest = nb
            while rest:
                b = rest & -rest
                rest ^= b
                new_masks[b.bit_length() - 1] |= nb
            search(eliminated | (1 << v), tuple(new_masks), max(cur, deg))

    search(0, tuple(adjm), 0)
    return best


def width_witness(g: Graph, bound: int) -> TreeDecomposition | None:
    """The min-fill decomposition when its width is <= bound, else None
    (which proves nothing about treewidth)."""
    td = minfill_decomposition(g)
    return td if td.width() <= bound else None
