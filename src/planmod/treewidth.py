"""Tree decompositions, validation, and exact treewidth for desk-scale graphs.

Two independent exact algorithms ship (subset dynamic programming and
branch-and-bound over elimination orders) so each can serve as the other's
oracle. Larger graphs that only need a width *witness* can use the greedy
min-fill decomposition, which is an upper bound, never a treewidth claim.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .errors import InputError, ResourceLimitError
from .graphs import Graph, vertex_key

DEFAULT_EXACT_CAP = 14


@dataclass(frozen=True)
class TreeDecomposition:
    tree: Graph
    bags: Mapping  # tree node -> frozenset of graph vertices

    def width(self) -> int:
        if not self.bags:
            return -1
        return max(len(b) for b in self.bags.values()) - 1


def width(td: TreeDecomposition) -> int:
    return td.width()


def decomposition_violations(g: Graph, td: TreeDecomposition) -> list:
    """Which of the three conditions fail; empty means valid."""
    out = []
    if set(td.bags) != set(td.tree.vertices):
        return ["bag map does not match the tree nodes"]
    if len(td.tree.edges) != max(len(td.tree.vertices) - 1, 0) or not td.tree.is_connected():
        out.append("tree is not a tree")
    covered = set().union(*td.bags.values()) if td.bags else set()
    if covered != set(g.vertices):
        out.append("bags do not cover the vertex set")
    for u, v in g.edges:
        if not any(u in bag and v in bag for bag in td.bags.values()):
            out.append(f"edge {{{u!r},{v!r}}} is in no bag")
            break
    for v in g.vertices:
        nodes = {t for t, bag in td.bags.items() if v in bag}
        if nodes and not td.tree.induced(nodes).is_connected():
            out.append(f"bags containing {v!r} do not induce a subtree")
            break
    return out


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


def exact_treewidth(g: Graph, cap: int = DEFAULT_EXACT_CAP) -> tuple[int, TreeDecomposition]:
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
    edges = []
    roots = []
    for v in order:
        rest = bags[v] - {v}
        if rest:
            edges.append((v, min(rest, key=lambda u: pos[u])))
        else:
            roots.append(v)
    # chain the per-component roots so the host tree is connected
    edges.extend(zip(roots, roots[1:]))
    return TreeDecomposition(Graph(order, edges), bags)


def minfill_order(g: Graph) -> list:
    adj = {v: set(g.neighbors(v)) for v in g.vertices}
    order = []
    remaining = set(g.vertices)
    while remaining:
        def fill_cost(v):
            nb = adj[v] & remaining
            missing = sum(1 for a in nb for b in nb
                          if vertex_key(a) < vertex_key(b) and b not in adj[a])
            return (missing, len(nb), vertex_key(v))
        v = min(remaining, key=fill_cost)
        nb = adj[v] & remaining
        for a in nb:
            adj[a] |= nb - {a}
        remaining.remove(v)
        order.append(v)
    return order


def minfill_decomposition(g: Graph) -> TreeDecomposition:
    """Greedy min-fill witness; its width is an upper bound on treewidth."""
    td = decomposition_from_order(g, minfill_order(g))
    assert validate_decomposition(g, td)
    return td


def exact_treewidth_bb(g: Graph, cap: int = DEFAULT_EXACT_CAP) -> int:
    """Exact treewidth by branch-and-bound over elimination orders.

    Independent of the subset DP; used as its cross-check oracle.
    """
    n = len(g.vertices)
    if n > cap:
        raise ResourceLimitError(
            f"exact treewidth needs |V| <= {cap}, got {n}; raise the cap to continue")
    if n == 0:
        return -1
    verts, adjm = _index(g)
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


def single_bag_decomposition(g: Graph) -> TreeDecomposition:
    return TreeDecomposition(Graph([0]), {0: frozenset(g.vertices)})


def width_witness(g: Graph, bound: int, exact_cap: int = DEFAULT_EXACT_CAP) -> TreeDecomposition | None:
    """A validated decomposition of width <= bound, or None if we cannot
    produce one under the caps (which proves nothing about treewidth)."""
    td = minfill_decomposition(g)
    if td.width() <= bound:
        return td
    if len(g.vertices) <= exact_cap:
        tw, td = exact_treewidth(g, exact_cap)
        if tw <= bound:
            return td
    return None
