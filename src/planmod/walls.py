"""Walls, layers, central subwalls, wall-annuli, compasses, and a desk-scale
wall search.

A Wall carries explicit structure: a bijection from branch vertices to the
positions of the elementary wall of its height, and one subdivision path per
elementary edge. Layer and subwall combinatorics are computed once per height
on the elementary wall (by definitional peeling) and then mapped through the
subdivision paths.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Mapping

from .config import DEFAULTS
from .errors import InputError, ResourceLimitError
from .graphs import Graph, norm_edge, vertex_key
# is_planar and width_witness are not called here but stay bound: the
# benchmark's tracer (perfbench/spans.py) wraps them in this module
from .planarity import embed, is_planar  # noqa: F401
from .treewidth import width_witness  # noqa: F401


# -- elementary pattern -------------------------------------------------------

@lru_cache(maxsize=None)
def elementary_positions(r: int) -> tuple[frozenset, frozenset]:
    """Vertex positions and edges of the elementary r-wall on the grid
    [1, 2r] x [1, r]: vertical edges survive at even x+y, then the two
    degree-one corners go."""
    if r < 3 or r % 2 == 0:
        raise InputError(f"wall height must be odd and >= 3, got {r}")
    verts = {(x, y) for x in range(1, 2 * r + 1) for y in range(1, r + 1)}
    verts -= {(2 * r, 1), (1, r)}
    edges = set()
    for (x, y) in verts:
        if (x + 1, y) in verts:
            edges.add(norm_edge((x, y), (x + 1, y)))
        if (x, y + 1) in verts and (x + y) % 2 == 0:
            edges.add(norm_edge((x, y), (x, y + 1)))
    return frozenset(verts), frozenset(edges)


def _position_graph(r: int) -> Graph:
    verts, edges = elementary_positions(r)
    return Graph(verts, edges)


def _outer_cycle(g: Graph) -> tuple:
    """The boundary cycle of the outer face; for (subdivided) walls the face
    set is unique, and the outer face is the strictly largest one."""
    emb = embed(g)
    if emb is None:
        raise InputError("graph is not planar")
    face = emb.faces[emb.outer_face]
    if len(face) != len(set(face)):
        raise InputError("outer face is not a simple cycle")
    return face


def _strip_debris(g: Graph) -> Graph:
    while True:
        bad = [v for v in g.vertices if len(g.adj[v]) <= 1]
        if not bad:
            return g
        g = g.remove_vertices(bad)


@dataclass(frozen=True)
class _ElementaryStructure:
    layers: tuple          # outermost first; each a tuple of positions in cyclic order
    center: tuple          # the two central positions
    local_maps: tuple      # local_maps[i]: position -> (r-2i)-wall position
    bricks: tuple          # each brick as a frozenset of six positions


@lru_cache(maxsize=None)
def _elementary_structure(r: int) -> _ElementaryStructure:
    g = _position_graph(r)
    rho = (r - 1) // 2
    layers = []
    windows = [frozenset(g.vertices)]
    h = g
    for _ in range(rho):
        cycle = _outer_cycle(h)
        layers.append(cycle)
        h = _strip_debris(h.remove_vertices(cycle))
        windows.append(frozenset(h.vertices))
    # center: the unique leftover component with two vertices
    leftover = g.remove_vertices(set().union(*map(set, layers)))
    two = [c for c in leftover.components() if len(c) == 2]
    assert len(two) == 1, "expected exactly one two-vertex central component"
    center = tuple(sorted(two[0], key=vertex_key))
    # local coordinates of each central subwall; odd peel counts reflect
    # vertically so the removed-corner convention matches the constructor
    local_maps = []
    for i in range(rho):
        if i % 2 == 0:
            lm = {(x, y): (x - 2 * i, y - i) for (x, y) in windows[i]}
        else:
            lm = {(x, y): (x - 2 * i, r - i + 1 - y) for (x, y) in windows[i]}
        q = r - 2 * i
        assert frozenset(lm.values()) == elementary_positions(q)[0]
        local_maps.append(lm)
    bricks = []
    for x in range(1, 2 * r - 1):
        for y in range(1, r):
            if (x + y) % 2 != 0:
                continue
            cell = {(x, y), (x + 1, y), (x + 2, y), (x, y + 1), (x + 1, y + 1), (x + 2, y + 1)}
            if cell <= g.vertices:
                bricks.append(frozenset(cell))
    return _ElementaryStructure(tuple(layers), center, tuple(local_maps),
                                tuple(bricks))


# -- walls ---------------------------------------------------------------------

@dataclass(frozen=True)
class Wall:
    """A subdivision of the elementary `height`-wall inside some host id space."""

    graph: Graph
    height: int
    branch_coords: Mapping  # branch vertex -> elementary position
    paths: Mapping          # elementary edge (normalized) -> tuple of vertices

    def vertex_at(self, pos):
        if not hasattr(self, "_inv"):
            object.__setattr__(self, "_inv", {p: v for v, p in self.branch_coords.items()})
        return self._inv[pos]


def validate_wall(w: Wall) -> bool:
    return not wall_violations(w)


def wall_violations(w: Wall) -> list:
    """Re-checks that the carried structure witnesses a subdivision of the
    elementary wall: bijective coordinates, one internally-disjoint path per
    elementary edge, and no extra vertices or edges."""
    out = []
    verts, edges = elementary_positions(w.height)
    coords = dict(w.branch_coords)
    if len(set(coords.values())) != len(coords) or set(coords.values()) != set(verts):
        out.append("branch coordinates are not a bijection onto the elementary positions")
        return out
    at = {p: v for v, p in coords.items()}
    if set(w.paths) != set(edges):
        out.append("paths do not match the elementary edge set")
        return out
    seen_internal = set()
    path_edges = set()
    for e, path in w.paths.items():
        if len(path) < 2 or {path[0], path[-1]} != {at[e[0]], at[e[1]]}:
            out.append(f"path for {e} does not join its branch endpoints")
            continue
        for v in path[1:-1]:
            if v in coords or v in seen_internal:
                out.append(f"path vertex {v!r} reused")
            seen_internal.add(v)
            if len(w.graph.adj.get(v, ())) != 2:
                out.append(f"subdivision vertex {v!r} does not have degree 2")
        for a, b in zip(path, path[1:]):
            if not w.graph.has_edge(a, b):
                out.append(f"missing edge {{{a!r},{b!r}}} on a path")
            path_edges.add(norm_edge(a, b))
    if w.graph.vertices != set(coords) | seen_internal:
        out.append("graph vertex set differs from the union of the paths")
    if w.graph.edges != frozenset(path_edges):
        out.append("graph edge set differs from the union of the paths")
    return out


def make_elementary_wall(r: int) -> Wall:
    """The elementary r-wall with integer ids from 0, all finite faces
    hexagonal."""
    verts, edges = elementary_positions(r)
    order = sorted(verts)
    vid = {p: i for i, p in enumerate(order)}
    graph = Graph(vid.values(), ((vid[a], vid[b]) for a, b in edges))
    paths = {e: (vid[e[0]], vid[e[1]]) for e in edges}
    return Wall(graph, r, {vid[p]: p for p in order}, paths)


def subdivide_wall(w: Wall, rng, max_extra: int = 2) -> Wall:
    """Insert a number of new vertices drawn from [0, max_extra] by rng into
    each path. New ids are the ints above the largest int id of w."""
    next_id = max((v for v in w.graph.vertices if isinstance(v, int)), default=-1) + 1
    new_paths = {}
    for e in sorted(w.paths, key=vertex_key):
        path = w.paths[e]
        extra = rng.randint(0, max_extra)
        fresh = list(range(next_id, next_id + extra))
        next_id += extra
        new_paths[e] = (path[0], *fresh, *path[1:])
    verts = set(w.branch_coords)
    edges = set()
    for path in new_paths.values():
        verts.update(path)
        edges.update(norm_edge(a, b) for a, b in zip(path, path[1:]))
    return Wall(Graph(verts, edges), w.height, dict(w.branch_coords), new_paths)


def _splice(w: Wall, cycle_positions: Iterable) -> tuple:
    """Map a cyclic sequence of elementary positions to the host cycle."""
    cycle = list(cycle_positions)
    out = []
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        e = norm_edge(a, b)
        path = w.paths[e]
        if w.branch_coords[path[0]] != a:
            path = tuple(reversed(path))
        out.extend(path[:-1])
    return tuple(out)


def _sub_wall(w: Wall, height: int, local: Mapping) -> Wall:
    """The height-subwall of w whose branch vertices sit at the host
    positions that `local` maps onto the elementary height-wall's positions;
    each path runs from its end at the smaller local position."""
    host = {lp: p for p, lp in local.items()}
    paths = {}
    for a, b in elementary_positions(height)[1]:
        path = w.paths[norm_edge(host[a], host[b])]
        if w.branch_coords[path[0]] != host[a]:
            path = tuple(reversed(path))
        paths[(a, b)] = path
    coords = {w.vertex_at(p): lp for p, lp in local.items()}
    return Wall(w.graph.induced(set().union(*paths.values())), height, coords, paths)


@dataclass(frozen=True)
class WallAnalysis:
    perimeter: tuple  # host cycle, outermost layer
    layers: tuple     # outermost first
    center: tuple     # the two central branch vertices


def analyze_wall(w: Wall) -> WallAnalysis:
    """Perimeter, layers (by iterated perimeter peeling), and the two central
    vertices; a (2p+1)-wall has exactly p layers."""
    st = _elementary_structure(w.height)
    layers = tuple(_splice(w, cyc) for cyc in st.layers)
    center = tuple(w.vertex_at(p) for p in st.center)
    return WallAnalysis(perimeter=layers[0], layers=layers, center=center)


def layer_count(w: Wall) -> int:
    return (w.height - 1) // 2


def central_subwall(w: Wall, q: int) -> Wall:
    """The central q-subwall: peel the first (height-q)/2 layers plus debris;
    shares its center with w."""
    if q % 2 == 0 or not 3 <= q <= w.height:
        raise InputError(f"need odd 3 <= q <= {w.height}, got {q}")
    i = (w.height - q) // 2
    if i == 0:
        return w
    return _sub_wall(w, q, _elementary_structure(w.height).local_maps[i])


@dataclass(frozen=True)
class WallAnnulus:
    """A (p, ell)-wall-annulus with its two extremal cycles and its bricks."""

    graph: Graph
    p: int
    ell: int
    outer_cycle: tuple   # layer p-ell+1 counted from the center of the host wall
    inner_cycle: tuple   # layer p counted from the center
    bricks: tuple        # brick cycles fully inside the annulus


def wall_annulus(w: Wall, p: int, ell: int) -> WallAnnulus:
    """W^(2p+1) minus the vertices of W^(2(p-ell)+1), minus degree-one debris.

    Contains the ell consecutive layers that end at the p-th layer counting
    from the center (host layer lists are outermost-first, so those are list
    indices rho-p .. rho-p+ell-1).
    """
    rho = layer_count(w)
    if w.height < 7:
        raise InputError("wall-annuli need host height >= 7")
    if not 3 <= p <= rho or not 3 <= ell <= p:
        raise InputError(f"need 3 <= p <= {rho} and 3 <= ell <= p, got ({p},{ell})")
    hi = central_subwall(w, 2 * p + 1)
    if ell == p:
        # all layers stay; the hole is the open interior of the innermost subwall
        w3 = central_subwall(w, 3)
        drop = w3.graph.vertices - set(analyze_wall(w3).perimeter)
    else:
        drop = central_subwall(w, 2 * (p - ell) + 1).graph.vertices
    g = _strip_debris(hi.graph.remove_vertices(drop))
    layers = analyze_wall(w).layers
    outer = layers[rho - p]
    inner = layers[rho - p + ell - 1]
    assert set(outer) <= g.vertices and set(inner) <= g.vertices
    st = _elementary_structure(w.height)
    bricks = []
    for brick in st.bricks:
        cyc = _brick_cycle(w, brick)
        if set(cyc) <= g.vertices:
            bricks.append(cyc)
    return WallAnnulus(g, p, ell, outer, inner, tuple(bricks))


def _brick_cycle(w: Wall, brick: frozenset) -> tuple:
    (x, y) = min(brick)
    ring = [(x, y), (x + 1, y), (x + 2, y), (x + 2, y + 1), (x + 1, y + 1), (x, y + 1)]
    return _splice(w, ring)


# -- compasses -----------------------------------------------------------------

def compass(g: Graph, w: Wall) -> Graph:
    """The perimeter of W plus the component of g minus the perimeter that
    contains the rest of the wall, induced in g."""
    if not w.graph.is_subgraph_of(g):
        raise InputError("the wall is not a subgraph of the host graph")
    perim = set(analyze_wall(w).perimeter)
    interior_seed = w.graph.vertices - perim
    rest = g.remove_vertices(perim)
    comps = [c for c in rest.components() if c & interior_seed]
    assert len(comps) == 1, "wall interior spans several components"
    return g.induced(set(comps[0]) | perim)


@dataclass(frozen=True)
class CompassLevel:
    graph: Graph        # K^(t) = compass of W^(2t+1)
    perimeter: frozenset  # P^(t) = perimeter vertex set of W^(2t+1)


@dataclass(frozen=True)
class ExtendedCompass:
    wall: Wall
    compass: Graph          # comp(W) in the host
    tower: tuple            # tower[t-1] is the CompassLevel for t in [rho]

    def level(self, t: int) -> CompassLevel:
        if not 1 <= t <= len(self.tower):
            raise InputError(f"tower index {t} outside [1, {len(self.tower)}]")
        return self.tower[t - 1]

    @property
    def rho(self) -> int:
        return len(self.tower)


def extended_compass(g: Graph, w: Wall, rho: int) -> ExtendedCompass:
    """The compass of W with the nested compasses of its central subwalls
    W^(3), W^(5), ..., W^(2 rho + 1)."""
    if 2 * rho + 1 > w.height:
        raise InputError(f"tower height {rho} needs wall height >= {2 * rho + 1}")
    comp = compass(g, w)
    tower = []
    for t in range(1, rho + 1):
        # the top level's subwall is w itself when 2 rho + 1 = height
        sub = central_subwall(w, 2 * t + 1)
        level = CompassLevel(comp if sub is w else compass(g, sub),
                             frozenset(analyze_wall(sub).perimeter))
        tower.append(level)
    for lower, upper in zip(tower, tower[1:]):
        assert lower.graph.vertices <= upper.graph.vertices, "compass tower is not nested"
    assert tower[-1].graph.vertices <= comp.vertices
    return ExtendedCompass(w, comp, tuple(tower))


def subwall_at(w: Wall, x0: int, y0: int, s: int) -> Wall:
    """The s-subwall whose pattern occupies the window with offset (x0, y0);
    offsets must be even-summed so the brick parity lines up."""
    if (x0 + y0) % 2 != 0:
        raise InputError("window offset must have even coordinate sum")
    if x0 < 0 or y0 < 0 or x0 + 2 * s > 2 * w.height or y0 + s > w.height:
        raise InputError("window does not fit inside the wall")
    return _sub_wall(w, s, {(x + x0, y + y0): (x, y)
                            for x, y in elementary_positions(s)[0]})


def disjoint_subwalls(w: Wall, s: int) -> list:
    """Vertex-disjoint s-subwalls tiled across the wall, one row or column
    apart so their compasses can stay disjoint in the host."""
    if s % 2 == 0 or s < 3:
        raise InputError("subwall height must be odd and >= 3")
    out = []
    step_x = 2 * s + 2
    step_y = s + 1
    y0 = 0
    while y0 + s <= w.height:
        x0 = 0 if y0 % 2 == 0 else 1
        while x0 + 2 * s <= 2 * w.height:
            out.append(subwall_at(w, x0, y0, s))
            x0 += step_x
        y0 += step_y
    return out


# -- wall search ----------------------------------------------------------------

def wall_candidates(g: Graph, q: int,
                    node_budget: int = DEFAULTS.cap_wall_nodes) -> Iterator[Wall]:
    """Candidate q-walls of g, deduplicated: a cheap direct-edge pass (which
    alone is a complete subgraph-embedding search) and then the general
    subdivision search. Budget exhaustion moves on rather than raising, so an
    exhausted pass only costs completeness, never soundness."""
    seen: set = set()
    for max_path, budget in ((1, max(node_budget // 4, 2000)), (12, node_budget)):
        try:
            for wall in find_wall_subdivisions(g, q, node_budget=budget,
                                               max_path=max_path):
                if wall.graph.vertices not in seen:
                    seen.add(wall.graph.vertices)
                    yield wall
        except ResourceLimitError:
            continue


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
        graph_verts = set(images)
        pedges = set()
        for path in paths.values():
            graph_verts.update(path)
            pedges.update(norm_edge(a, b) for a, b in zip(path, path[1:]))
        wall = Wall(Graph(graph_verts, pedges), q,
                    {v: p for p, v in placed.items()}, dict(paths))
        if validate_wall(wall):
            yield wall


def _may_contain_wall(g: Graph, q: int) -> bool:
    """Cheap necessary conditions for containing a q-wall subdivision."""
    verts, edges = elementary_positions(q)
    if len(g.vertices) < len(verts) or len(g.edges) < len(edges):
        return False
    need_deg3 = sum(1 for p in verts
                    if sum(1 for e in edges if p in e) >= 3)
    have_deg3 = sum(1 for v in g.vertices if len(g.adj[v]) >= 3)
    return have_deg3 >= need_deg3
