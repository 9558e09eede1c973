"""The direct reading of the three tree-decomposition conditions: every bag
scanned per edge, and an induced tree per vertex. Quadratic; the reference
`treewidth.decomposition_violations` is tested against."""

from planmod.treewidth import TreeDecomposition
from planmod.graphs import Graph


def decomposition_violations_reference(g: Graph, td: TreeDecomposition) -> list:
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
