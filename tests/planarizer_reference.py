"""The Kuratowski branching that once found the pipeline's vr-planarizer on
its own, kept as a reference for `planmod.modification.find_vr_planarizer`,
and the nonplanar gadgets that the planarizer and witness tests share.

Each gadget is nonplanar through one or two blocks: a wall with a K5 or a
K3,3 hung from its corner 0 by a bridge or sharing that corner (one
nonplanar block among planar ones), and two K5s sharing a vertex or apart
(two nonplanar blocks).
"""

from __future__ import annotations

from planmod.graphs import Graph, complete_graph
from planmod.planarity import is_planar, kuratowski
from planmod.walls import make_elementary_wall


def branch_vr(g: Graph, k: int, scope: frozenset | None) -> frozenset | None:
    """The first vr-planarizer of size <= k inside `scope` (all of V when
    None) that branching on the sorted vertices of a Kuratowski witness
    meets, depth first; None when there is none."""
    if is_planar(g):
        return frozenset()
    if k == 0:
        return None
    for v in sorted(kuratowski(g).vertices):
        if scope is not None and v not in scope:
            continue
        rest = branch_vr(g.remove_vertices([v]), k - 1, scope)
        if rest is not None:
            return rest | {v}
    return None


def k33(offset: int = 0) -> Graph:
    return Graph(range(offset, offset + 6),
                 [(offset + a, offset + b) for a in range(3) for b in range(3, 6)])


def pendant_wall(height: int, gadget: str, by: str) -> Graph:
    """The `height`-wall with a K5 or K3,3 (`gadget` "k5" or "k33") hung from
    corner 0 by one edge (`by` "bridge") or glued on at it (`by` "cut")."""
    wall = make_elementary_wall(height).graph
    base = max(wall.vertices) + 1
    extra = complete_graph(5, offset=base) if gadget == "k5" else k33(base)
    if by == "bridge":
        return Graph(wall.vertices | extra.vertices, wall.edges | extra.edges | {(0, base)})
    glue = {v: 0 if v == base else v for v in extra.vertices}
    return Graph(wall.vertices | set(glue.values()),
                 wall.edges | {(glue[u], glue[v]) for u, v in extra.edges})


def two_k5(shared: bool) -> Graph:
    """Two K5s, sharing vertex 4 or apart."""
    a, b = complete_graph(5), complete_graph(5, offset=4 if shared else 5)
    return Graph(a.vertices | b.vertices, a.edges | b.edges)


def gadget(name: str, height: int = 3) -> Graph:
    """One of GADGETS; the walls have the given height."""
    if name.startswith("wall-"):
        _, extra, by = name.split("-")
        return pendant_wall(height, extra, by)
    return two_k5(name == "k5-k5-shared")


GADGETS = ("wall-k5-bridge", "wall-k5-cut", "wall-k33-bridge", "wall-k33-cut",
           "k5-k5-shared", "k5-k5-apart")
