"""The general wall-subdivision search, kept as a reference for the
production kernel `planmod.walls.find_wall_subdivisions`.

It routes every pattern edge as a host path of up to `max_path` vertices, so
at `max_path=1` it is a direct-edge subgraph-embedding search that visits
the same nodes in the same order as the kernel. The pins in
`wall_search_pins.json` hold its runs at `max_path` 3 and 12, and
`test_walls.TestWallSearchDepth` checks that its path walk runs on an
explicit stack.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterator

from planmod.config import DEFAULTS
from planmod.errors import ResourceLimitError
from planmod.graphs import Graph, norm_edge
from planmod.walls import Wall, elementary_positions, validate_wall


def find_wall_subdivisions(g: Graph, q: int, node_budget: int = DEFAULTS.cap_wall_nodes,
                           max_path: int = 12) -> Iterator[Wall]:
    """Exhaustive-with-caps search for a subdivision of the elementary q-wall.

    Branch vertices are placed in breadth-first pattern order; each pattern
    edge to an already-placed neighbor is routed as a host path, enumerated by
    depth-first extension, all internally disjoint. The extension runs on an
    explicit stack, so generators nest once per placed vertex and routed
    edge, not once per path vertex, and the default recursion limit
    suffices. Exceeding the node budget raises instead of silently
    reporting absence.

    Host vertices are tried in `g.sorted_vertices()` order (their rank), and
    path extensions nearest the goal first, then by rank. Three caches live
    for one call: the distances from each goal or anchor, the ranked
    neighbour list per (goal, vertex), and the candidate list per anchor.
    The distances come from a breadth-first search that stops at radius
    max_path. The search reads a distance only to compare it with max_path,
    and a vertex farther away fails that comparison whatever its exact
    distance, before any node is spent on it. So the truncation, and leaving
    such vertices out of the cached lists, leaves the node order, the point
    where the budget fires and the walls yielded unchanged.
    """
    verts, edges = elementary_positions(q)
    if len(verts) > 120:
        raise ResourceLimitError(
            f"subdivision search is capped at 120 pattern vertices "
            f"(q={q} needs {len(verts)})")
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
    # the pattern edges from order[i] to the neighbours placed before it
    backs = [[(p, nb, norm_edge(p, nb)) for nb in sorted(padj[p]) if nb in order[:i]]
             for i, p in enumerate(order)]
    hosts = g.sorted_vertices()
    rank = {v: i for i, v in enumerate(hosts)}
    budget = node_budget
    dist_cache: dict = {}    # host vertex -> distances <= max_path from it
    ranked_cache: dict = {}  # (goal, vertex) -> [(neighbour, distance to goal)]
    cand_cache: dict = {}    # anchor -> hosts within max_path of it, by rank

    placed: dict = {}        # pattern position -> host vertex
    images: set = set()      # host vertices used as branch images
    interior: set = set()    # host vertices used inside paths
    paths: dict = {}

    def spend():
        nonlocal budget
        budget -= 1
        if budget < 0:
            raise ResourceLimitError(
                "wall subdivision search exceeded its node budget; raise cap-wall-nodes")

    def distances(v) -> dict:
        if v not in dist_cache:
            dist_cache[v] = g.bfs_distances(v, max_path)
        return dist_cache[v]

    def route(edge_list, k) -> Iterator[None]:
        """Place internally-disjoint paths for edge_list[k:], then the rest
        of the pattern. The paths of one edge are walked depth first, one
        budget node per vertex a path is extended to; stack[i] iterates the
        neighbours of path[i] that can still extend it."""
        p_from, p_to, key = edge_list[k]
        start, goal = placed[p_from], placed[p_to]
        to_goal = distances(goal)

        def fits(last, room) -> Iterator:
            # the neighbours of `last` within room of the goal, nearest the
            # goal first, then by rank; the goal itself sits at 0
            ranked = ranked_cache.get((goal, last))
            if ranked is None:
                # a path holds at least one vertex, so a neighbour farther
                # than max_path - 1 from the goal can never extend it
                near = [u for u in g.adj[last]
                        if u == goal or to_goal.get(u, max_path) < max_path]
                near.sort(key=lambda u: (to_goal[u], rank[u]))
                ranked = ranked_cache[(goal, last)] = (near, [to_goal[u] for u in near])
            near, dist = ranked
            return iter(near[:bisect_right(dist, room)])

        spend()
        path, stack = [start], [fits(start, max_path - 1)]
        while stack:
            for nxt in stack[-1]:
                if nxt == goal:
                    full = (*path, goal)
                    inner = full[1:-1]
                    paths[key] = full
                    interior.update(inner)
                    yield from (route(edge_list, k + 1) if k + 1 < len(edge_list)
                                else place(len(placed)))
                    interior.difference_update(inner)
                    del paths[key]
                elif nxt not in interior and nxt not in images:
                    spend()
                    path.append(nxt)
                    stack.append(fits(nxt, max_path - len(path)))
                    break
            else:
                stack.pop()
                path.pop()

    def place(i) -> Iterator[None]:
        if i == len(order):
            yield None
            return
        p = order[i]
        back = backs[i]
        if back:
            anchor = placed[back[0][1]]
            cands = cand_cache.get(anchor)
            if cands is None:
                cands = cand_cache[anchor] = sorted(distances(anchor),
                                                    key=rank.__getitem__)
        else:
            cands = hosts
        need_degree = len(padj[p])
        for h in cands:
            spend()
            if h in images or h in interior:
                continue
            if len(g.adj[h]) < need_degree:
                continue
            placed[p] = h
            images.add(h)
            yield from route(back, 0) if back else place(i + 1)
            images.remove(h)
            del placed[p]

    for _ in place(0):
        wall = Wall(q, {v: p for p, v in placed.items()}, dict(paths))
        if validate_wall(wall):
            yield wall
