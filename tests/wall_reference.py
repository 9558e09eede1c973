"""The direct-edge wall search, kept as a reference for the production
kernel behind a fresh `planmod.walls.WallSearch`: a plain recursive
subgraph-embedding search that visits the same nodes in the same order as
the kernel, so `test_walls.TestWallSearch` can compare the two run by run.
"""

from __future__ import annotations

from typing import Iterator

from planmod.config import DEFAULTS
from planmod.errors import ResourceLimitError
from planmod.graphs import Graph, norm_edge
from planmod.walls import Wall, elementary_positions, validate_wall


def find_wall_subdivisions(g: Graph, q: int,
                           node_budget: int = DEFAULTS.cap_wall_nodes) -> Iterator[Wall]:
    """The q-walls of g whose every path is one edge of g.

    Pattern vertices are placed in breadth-first pattern order. A vertex
    with an already-placed neighbour takes its candidates, by rank in
    `g.sorted_vertices()`, from the closed neighbourhood of the image of
    its first such neighbour (the anchor); the first pattern vertex tries
    every host vertex. Each candidate costs one budget node, and so does
    each pattern edge back to a placed neighbour, checked in order up to
    the first whose images are not adjacent. Exceeding the node budget
    raises instead of silently reporting absence."""
    verts, edges = elementary_positions(q)
    pverts = sorted(verts)
    padj = {p: set() for p in pverts}
    for a, b in edges:
        padj[a].add(b)
        padj[b].add(a)
    order = []
    seen = {pverts[0]}
    queue = [pverts[0]]
    while queue:
        p = queue.pop(0)
        order.append(p)
        for nb in sorted(padj[p]):
            if nb not in seen:
                seen.add(nb)
                queue.append(nb)
    # the pattern neighbours of order[i] placed before it
    backs = [[nb for nb in sorted(padj[p]) if nb in order[:i]] for i, p in enumerate(order)]
    hosts = g.sorted_vertices()
    rank = {v: i for i, v in enumerate(hosts)}
    budget = node_budget
    placed: dict = {}   # pattern position -> host vertex
    paths: dict = {}    # pattern edge -> (image of its later end, of its earlier end)

    def spend():
        nonlocal budget
        budget -= 1
        if budget < 0:
            raise ResourceLimitError(
                "wall subdivision search exceeded its node budget; raise cap-wall-nodes")

    def place(i) -> Iterator[None]:
        if i == len(order):
            yield None
            return
        p = order[i]
        if backs[i]:
            anchor = placed[backs[i][0]]
            cands = sorted({anchor, *g.adj[anchor]}, key=rank.__getitem__)
        else:
            cands = hosts
        images = set(placed.values())
        for h in cands:
            spend()
            if h in images or len(g.adj[h]) < len(padj[p]):
                continue
            routed = []
            for nb in backs[i]:
                spend()
                if placed[nb] not in g.adj[h]:
                    break
                routed.append(norm_edge(p, nb))
                paths[routed[-1]] = (h, placed[nb])
            else:
                placed[p] = h
                yield from place(i + 1)
                del placed[p]
            for key in routed:
                del paths[key]

    for _ in place(0):
        wall = Wall(q, {v: p for p, v in placed.items()}, dict(paths))
        if validate_wall(wall):
            yield wall
