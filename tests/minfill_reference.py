"""The min-fill order as first written, kept as the reference for
the order of `treewidth._minfill`: it re-scores every remaining vertex at every
elimination and compares vertex ids inside the pair count, so it is slow
but plainly follows the definition."""

from planmod.graphs import Graph


def minfill_order_reference(g: Graph) -> list:
    adj = {v: set(g.neighbors(v)) for v in g.vertices}
    order = []
    remaining = set(g.vertices)
    while remaining:
        def fill_cost(v):
            nb = adj[v] & remaining
            missing = sum(1 for a in nb for b in nb
                          if a < b and b not in adj[a])
            return (missing, len(nb), v)
        v = min(remaining, key=fill_cost)
        nb = adj[v] & remaining
        for a in nb:
            adj[a] |= nb - {a}
        remaining.remove(v)
        order.append(v)
    return order
