"""The Kuratowski branching that once found the pipeline's vr-planarizer on
its own, kept as a reference for `planmod.modification.find_vr_planarizer`,
and the nonplanar gadgets that the planarizer and witness tests share.

Each gadget is nonplanar through one or two blocks: a wall with a K5 or a
K3,3 hung from its corner 0 by a bridge or sharing that corner (one
nonplanar block among planar ones), and two K5s sharing a vertex or apart
(two nonplanar blocks). `pendant_wall` also hangs the hub graph
(`hub_graph`) from a wall, outside GADGETS.
"""

from __future__ import annotations

from itertools import combinations

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


def hub_graph(offset: int = 0) -> Graph:
    """Two K4s, each joined to 0 by two edges and to 1 by two, the edge 01
    and a pendant 10 on 1, all ids shifted by `offset`. {1} planarizes it,
    and no one edge removal or contraction does: removing 01 leaves a K5
    minor in each K4 with the other K4's path from 0 to 1 contracted,
    contracting 01 leaves two K5s at one vertex, and any other edge leaves
    the K5 minor of 0, 1 and the K4 it misses."""
    o = offset
    return Graph(range(o, o + 11), [(o, o + 1), (o + 1, o + 10)]
                 + [(o + a, o + b) for quad in ((2, 3, 4, 5), (6, 7, 8, 9))
                    for a, b in combinations(quad, 2)]
                 + [(o, o + v) for v in (2, 3, 6, 7)] + [(o + 1, o + v) for v in (4, 5, 8, 9)])


def pendant_wall(height: int, gadget: str, by: str) -> Graph:
    """The `height`-wall with a K5, a K3,3 or the hub graph (`gadget` "k5",
    "k33" or "hub") hung from corner 0 by one edge (`by` "bridge") or glued
    on at it (`by` "cut"). A K5 or K3,3 meets the corner at its least
    vertex, the hub graph at its pendant vertex 10."""
    wall = make_elementary_wall(height).graph
    base = max(wall.vertices) + 1
    extra = {"k5": complete_graph(5, offset=base), "k33": k33(base),
             "hub": hub_graph(base)}[gadget]
    at = base + 10 if gadget == "hub" else base
    if by == "bridge":
        return Graph(wall.vertices | extra.vertices, wall.edges | extra.edges | {(0, at)})
    glue = {v: 0 if v == at else v for v in extra.vertices}
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
