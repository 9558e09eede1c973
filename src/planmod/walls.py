"""Walls, layers, central subwalls, wall-annuli, compasses, and a desk-scale
wall search.

A Wall carries explicit structure: a bijection from branch vertices to the
positions of the elementary wall of its height, and one subdivision path per
elementary edge. Its graph is derived: the union of those paths. Its
structure is read off the elementary wall's coordinates where it is used,
with no embedding: one formula places the central subwalls
(`_central_position`), a layer is a central subwall's perimeter, and the
centre is two positions. Position cycles are mapped to host cycles through
the subdivision paths. Each layer is a cycle in a canonical form: from its
least position, toward the lesser of its two neighbours.

The wall search is one direct-edge subgraph-embedding kernel, run on the
host and on its degree-2 reduct (`graphs.smooth_degree_two`); walls found on
the reduct are lifted back through the host paths its edges stand for. Two
facts make the reduct enough for subdivided walls, proved in the
`wall_candidates` docstring: smoothing a subdivided h-wall turns its central
(h - 2)-wall into direct edges, and the reduct of a subdivided q-wall is the
skeleton of W_q (its own reduct) with every path at least as long. The
pass on the host resumes from step to step of a run that only deletes
vertices (`WallSearch`), since the embeddings of the smaller host are the
old ones that avoid the deleted vertices, in the same order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Iterator, Mapping

from .config import DEFAULTS
from .errors import InputError, ResourceLimitError
from .graphs import Graph, norm_edge, smooth_degree_two
# is_planar and width_witness are not called here but stay bound: the
# benchmark's tracer (perfbench/spans.py) wraps them in this module
from .planarity import is_planar  # noqa: F401
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


def _strip_debris(g: Graph) -> Graph:
    while True:
        bad = [v for v in g.vertices if len(g.adj[v]) <= 1]
        if not bad:
            return g
        g = g.remove_vertices(bad)


def _perimeter(q: int) -> tuple:
    """The perimeter of the elementary q-wall, its outer face's boundary, in
    cyclic order: the bottom row left to right, up the right end, the top
    row right to left and down the left end. Each inner row y ends in two
    positions on either side, and the vertical edges there alternate with
    y's parity (x + y even), so the perimeter zigzags through both."""
    right, left = [], []
    for y in range(2, q):
        ends = [(2 * q - 1, y), (2 * q, y)]
        right += ends if y % 2 == 0 else ends[::-1]
    for y in range(q - 1, 1, -1):
        ends = [(2, y), (1, y)]
        left += ends if y % 2 == 0 else ends[::-1]
    return tuple([(x, 1) for x in range(1, 2 * q)] + right
                 + [(x, q) for x in range(2 * q, 1, -1)] + left)


def _canonical_cycle(cycle: tuple) -> tuple:
    """The cycle from its least position, toward the lesser of that
    position's two neighbours on it."""
    i = cycle.index(min(cycle))
    cycle = cycle[i:] + cycle[:i]
    return cycle if cycle[1] < cycle[-1] else cycle[:1] + cycle[:0:-1]


def _central_position(r: int, i: int, p: tuple) -> tuple:
    """The position of the elementary r-wall at position p of its i-th
    central subwall, the (r - 2i)-subwall. Peeling the perimeter and the
    degree-one debris of the r-wall leaves its central (r - 2)-subwall,
    shifted two columns right and one row up and, since the removed corners
    swap rows, reflected top to bottom; i peels compose to this."""
    x, y = p
    return x + 2 * i, y + i if i % 2 == 0 else r - i + 1 - y


@lru_cache(maxsize=None)
def _layer_cycles(r: int) -> tuple:
    """The layers of the elementary r-wall as position cycles, outermost
    first, each in `_canonical_cycle` form: layer i is the perimeter of the
    i-th central subwall."""
    return tuple(_canonical_cycle(tuple(_central_position(r, i, p)
                                        for p in _perimeter(r - 2 * i)))
                 for i in range((r - 1) // 2))


# -- walls ---------------------------------------------------------------------

@dataclass(frozen=True)
class Wall:
    """A subdivision of the elementary `height`-wall inside some host id space."""

    height: int
    branch_coords: Mapping  # branch vertex -> elementary position
    paths: Mapping          # elementary edge (normalized) -> tuple of vertices

    @cached_property
    def graph(self) -> Graph:
        """The union of the paths: their vertices and consecutive pairs."""
        paths = self.paths.values()
        return Graph({v for path in paths for v in path},
                     (e for path in paths for e in zip(path, path[1:])))

    @cached_property
    def branch_at(self) -> dict:
        """Elementary position -> branch vertex, the inverse of
        `branch_coords`."""
        return {p: v for v, p in self.branch_coords.items()}


def validate_wall(w: Wall) -> bool:
    return not wall_violations(w)


def wall_violations(w: Wall) -> list:
    """Re-checks that the carried structure witnesses a subdivision of the
    elementary wall: bijective coordinates and one internally-disjoint path
    per elementary edge. The graph is the union of the paths, so it has no
    other vertices or edges."""
    out = []
    verts, edges = elementary_positions(w.height)
    coords = dict(w.branch_coords)
    if len(set(coords.values())) != len(coords) or set(coords.values()) != set(verts):
        out.append("branch coordinates are not a bijection onto the elementary positions")
        return out
    at = w.branch_at
    if set(w.paths) != set(edges):
        out.append("paths do not match the elementary edge set")
        return out
    seen_internal = set()
    for e, path in w.paths.items():
        if len(path) < 2 or {path[0], path[-1]} != {at[e[0]], at[e[1]]}:
            out.append(f"path for {e} does not join its branch endpoints")
            continue
        for v in path[1:-1]:
            if v in coords or v in seen_internal:
                out.append(f"path vertex {v!r} reused")
            seen_internal.add(v)
    return out


def make_elementary_wall(r: int) -> Wall:
    """The elementary r-wall with integer ids from 0, all finite faces
    hexagonal."""
    verts, edges = elementary_positions(r)
    order = sorted(verts)
    vid = {p: i for i, p in enumerate(order)}
    paths = {e: (vid[e[0]], vid[e[1]]) for e in edges}
    return Wall(r, {vid[p]: p for p in order}, paths)


def subdivide_wall(w: Wall, rng, max_extra: int = 2) -> Wall:
    """Insert a number of new vertices drawn from [0, max_extra] by rng into
    each path. New ids are the ints above the largest int id of w."""
    if max_extra < 0:
        raise InputError(f"subdivision count must be >= 0, got {max_extra}")
    next_id = max((v for v in w.graph.vertices if isinstance(v, int)), default=-1) + 1
    new_paths = {}
    for e in sorted(w.paths):
        path = w.paths[e]
        extra = rng.randint(0, max_extra)
        fresh = list(range(next_id, next_id + extra))
        next_id += extra
        new_paths[e] = (path[0], *fresh, *path[1:])
    return Wall(w.height, dict(w.branch_coords), new_paths)


def _path_from(w: Wall, a: tuple, b: tuple) -> tuple:
    """The path of w between positions a and b, from a's branch vertex."""
    path = w.paths[norm_edge(a, b)]
    return path if w.branch_coords[path[0]] == a else path[::-1]


def _splice(w: Wall, cycle: tuple) -> tuple:
    """Map a cyclic sequence of elementary positions to the host cycle."""
    return tuple(v for a, b in zip(cycle, cycle[1:] + cycle[:1])
                 for v in _path_from(w, a, b)[:-1])


def _sub_wall(w: Wall, height: int, place: Callable) -> Wall:
    """The height-subwall of w whose branch vertices sit at the host
    positions `place` gives the elementary height-wall's positions; each
    path runs from its end at the smaller local position."""
    verts, edges = elementary_positions(height)
    paths = {(a, b): _path_from(w, place(a), place(b)) for a, b in edges}
    return Wall(height, {w.branch_at[place(p)]: p for p in verts}, paths)


def perimeter(w: Wall) -> tuple:
    """The host cycle of w's outermost layer, its perimeter."""
    return _splice(w, _layer_cycles(w.height)[0])


def layers(w: Wall) -> tuple:
    """The host cycles of w's layers, outermost first: the perimeters of its
    central subwalls. A (2p+1)-wall has exactly p layers."""
    return tuple(_splice(w, cycle) for cycle in _layer_cycles(w.height))


def center(w: Wall) -> tuple:
    """The two central branch vertices of w, all that the last peel leaves."""
    r = w.height
    return w.branch_at[(r, (r + 1) // 2)], w.branch_at[(r + 1, (r + 1) // 2)]


def central_subwall(w: Wall, q: int) -> Wall:
    """The central q-subwall: peel the first (height-q)/2 layers plus debris;
    shares its center with w."""
    if q % 2 == 0 or not 3 <= q <= w.height:
        raise InputError(f"need odd 3 <= q <= {w.height}, got {q}")
    i = (w.height - q) // 2
    if i == 0:
        return w
    return _sub_wall(w, q, lambda p: _central_position(w.height, i, p))


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
    rho = (w.height - 1) // 2
    if w.height < 7:
        raise InputError("wall-annuli need host height >= 7")
    if not 3 <= p <= rho or not 3 <= ell <= p:
        raise InputError(f"need 3 <= p <= {rho} and 3 <= ell <= p, got ({p},{ell})")
    hi = central_subwall(w, 2 * p + 1)
    if ell == p:
        # all layers stay; the hole is the open interior of the innermost subwall
        w3 = central_subwall(w, 3)
        drop = w3.graph.vertices - set(perimeter(w3))
    else:
        drop = central_subwall(w, 2 * (p - ell) + 1).graph.vertices
    g = _strip_debris(hi.graph.remove_vertices(drop))
    cycles = layers(w)
    outer = cycles[rho - p]
    inner = cycles[rho - p + ell - 1]
    assert set(outer) <= g.vertices and set(inner) <= g.vertices
    # a brick is the ring of six positions from (x, y) with x + y even; every
    # such ring with x < 2 height - 1 and y < height avoids the two corners
    bricks = []
    for x in range(1, 2 * w.height - 1):
        for y in range(2 - x % 2, w.height, 2):
            cyc = _splice(w, ((x, y), (x + 1, y), (x + 2, y),
                              (x + 2, y + 1), (x + 1, y + 1), (x, y + 1)))
            if set(cyc) <= g.vertices:
                bricks.append(cyc)
    return WallAnnulus(g, p, ell, outer, inner, tuple(bricks))


# -- compasses -----------------------------------------------------------------

def compass(g: Graph, w: Wall) -> Graph:
    """The perimeter of W plus the component of g minus the perimeter that
    contains the rest of the wall, induced in g."""
    return _compass(g, w, perimeter(w))


def _compass(g: Graph, w: Wall, perim: tuple) -> Graph:
    """`compass` with W's perimeter already spliced."""
    if not w.graph.is_subgraph_of(g):
        raise InputError("the wall is not a subgraph of the host graph")
    perim = set(perim)
    interior = w.graph.vertices - perim
    comp = g.remove_vertices(perim).component_of(next(iter(interior)))
    assert interior <= comp, "wall interior spans several components"
    return g.induced(comp | perim)


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
    tower = []
    for t in range(1, rho + 1):
        sub = central_subwall(w, 2 * t + 1)
        perim = perimeter(sub)
        tower.append(CompassLevel(_compass(g, sub, perim), frozenset(perim)))
    # the top level's subwall is w itself when 2 rho + 1 = height
    comp = tower[-1].graph if 2 * rho + 1 == w.height else compass(g, w)
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
    return _sub_wall(w, s, lambda p: (p[0] + x0, p[1] + y0))


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

_BUDGET_FIRED = "wall subdivision search exceeded its node budget; raise cap-wall-nodes"


@dataclass(frozen=True)
class _Pattern:
    """A pattern graph laid out for the embedding kernel."""

    order: tuple   # pattern vertices in breadth-first placement order
    degree: tuple  # degree[i]: the pattern degree of order[i]
    # backs[i]: one (j, need, chain) per pattern neighbour order[j] with
    # j < i, in position order; chain lists the elementary-wall positions of
    # the path from order[i] to order[j], and need = len(chain) - 2 is the
    # least number of inner vertices the host edge's path must hold
    backs: tuple


@lru_cache(maxsize=None)
def _wall_pattern(q: int, skeleton: bool) -> _Pattern:
    """W_q itself, or its skeleton: the degree-2 reduct of W_q, whose edges
    stand for paths of W_q. Vertices are placed breadth first from the least
    position, neighbours in position order."""
    g = Graph(*elementary_positions(q))
    chains = {e: e for e in g.edges}
    if skeleton:
        g, chains = smooth_degree_two(g)
    order = [min(g.vertices)]
    at = {order[0]: 0}
    for p in order:
        for nb in sorted(g.adj[p]):
            if nb not in at:
                at[nb] = len(order)
                order.append(nb)
    backs = []
    for i, p in enumerate(order):
        row = []
        for nb in sorted(g.adj[p]):
            if at[nb] < i:
                chain = chains[norm_edge(p, nb)]
                chain = chain if chain[0] == p else chain[::-1]
                row.append((at[nb], len(chain) - 2, chain))
        backs.append(tuple(row))
    return _Pattern(tuple(order), tuple(len(g.adj[p]) for p in order), tuple(backs))


def _embeddings(pat: _Pattern, host: Graph, host_paths: Mapping | None,
                node_budget: int = DEFAULTS.cap_wall_nodes) -> Iterator[list]:
    """Every injective map of the pattern's vertices into the host's that
    sends each pattern edge to a host edge whose path (`host_paths`, or the
    edge itself when None) holds at least `need` inner vertices, as the
    list of host images in placement order.

    The search places order[0] at every host vertex by rank
    (`host.sorted_vertices()`), and each later order[i] at its anchor's
    image or a neighbour of it, by rank, where the anchor is the first entry
    of backs[i]. It spends one budget node per candidate and one per back
    edge it checks, stopping at the first that fails; exceeding the budget
    raises instead of silently reporting absence. The search runs on one
    flat loop: levels[i] holds the candidates order[i] has left.

    Sent a pair (drop, budget) in place of a plain `next`, the search goes
    on in the host less the vertices of `drop`: it marks them gone, a mark
    that backtracking never clears, lowers their neighbours' degrees, backs
    up to the first placement on a gone vertex, and spends at most `budget`
    further nodes. A gone candidate is skipped before it costs a node, so
    from there on the search meets the embeddings of the smaller host at
    the cost and in the order that a fresh search of it meets them after
    the last one yielded: ranks in the smaller host keep their order.
    """
    hosts = host.sorted_vertices()
    rank = {v: i for i, v in enumerate(hosts)}
    # links[h]: neighbour rank -> inner vertices on the host path between them
    links = [dict.fromkeys([rank[u] for u in host.adj[v]], 0) for v in hosts]
    if host_paths is not None:
        for (a, b), path in host_paths.items():
            links[rank[a]][rank[b]] = links[rank[b]][rank[a]] = len(path) - 2
    degree = [len(link) for link in links]
    closed: dict = {}  # anchor rank -> the anchor and its neighbours, by rank
    m = len(pat.order)
    image = [0] * m
    used = [False] * len(hosts)
    gone = [False] * len(hosts)
    levels = [iter(range(len(hosts)))] + [None] * (m - 1)
    budget = node_budget
    i = 0
    while True:
        need_degree, back = pat.degree[i], pat.backs[i]
        for h in levels[i]:
            if gone[h]:
                continue
            budget -= 1
            if budget < 0:
                raise ResourceLimitError(_BUDGET_FIRED)
            if used[h] or degree[h] < need_degree:
                continue
            link = links[h]
            for j, need, _ in back:
                budget -= 1
                if budget < 0:
                    raise ResourceLimitError(_BUDGET_FIRED)
                if link.get(image[j], -1) < need:
                    break
            else:
                break
        else:
            if i == 0:
                return
            i -= 1
            used[image[i]] = False
            continue
        image[i] = h
        if i + 1 == m:
            sent = yield [hosts[x] for x in image]
            if sent is not None:
                drop, budget = sent
                for v in drop:
                    r = rank[v]
                    if not gone[r]:
                        gone[r] = True
                        for u in links[r]:
                            degree[u] -= 1
                # undo the placements from the first gone image on; that
                # level's candidates go on after its image
                i = next((j for j, x in enumerate(image) if gone[x]), i)
                for x in image[i:-1]:
                    used[x] = False
            continue
        used[h] = True
        i += 1
        anchor = image[pat.backs[i][0][0]]
        if anchor not in closed:
            closed[anchor] = sorted([anchor, *links[anchor]])
        levels[i] = iter(closed[anchor])


def _lift(pat: _Pattern, q: int, image: list, host_paths: Mapping | None) -> Wall:
    """The q-wall behind one `_embeddings` image, lifted to the graph behind
    `host_paths`: a pattern path's inner positions go to the first inner
    vertices of its host path, and its last edge takes the rest of that
    path."""
    coords = dict(zip(image, pat.order))
    paths = {}
    for i, row in enumerate(pat.backs):
        for j, need, chain in row:
            a, b = image[i], image[j]
            path = (a, b) if host_paths is None else host_paths[norm_edge(a, b)]
            path = path if path[0] == a else path[::-1]
            for t in range(1, need + 1):
                coords[path[t]] = chain[t]
                paths[norm_edge(chain[t - 1], chain[t])] = path[t - 1:t + 1]
            paths[norm_edge(chain[-2], chain[-1])] = path[need:]
    return Wall(q, coords, paths)


def _walls(host: Graph, q: int, skeleton: bool, host_paths: Mapping | None,
           node_budget: int = DEFAULTS.cap_wall_nodes) -> Iterator[Wall]:
    """The q-walls that `_embeddings` finds for W_q or its skeleton in the
    host, each lifted to the graph behind `host_paths` (`_lift`)."""
    pat = _wall_pattern(q, skeleton)
    for image in _embeddings(pat, host, host_paths, node_budget):
        yield _lift(pat, q, image, host_paths)


class WallSearch:
    """Pass 1 of `wall_candidates`, W_q in g by direct edges, kept as one
    search across the steps of a run.

    A step of a run only deletes vertices of its g, G − S, so the embeddings
    of W_q in g − X are exactly those of g that avoid X, met in the same
    rank order. So the state keeps the `_embeddings` kernel suspended after
    its last wall, and every wall it has yielded. A step whose g is the
    last step's g less some vertices X, for the same q, first re-offers, in
    yield order and without spending nodes, the yielded walls that avoid
    every deleted vertex. Then it sends X to the kernel, which backs up past
    them, and goes on with a fresh `budget` for the nodes it spends in that
    step. A search that exhausted stays exhausted and only re-offers. Any
    other step, and the step after the budget fired, starts fresh. So each
    step's walls are a fresh search's walls in its order, unless the fresh
    search would have fired its budget first.

    One object serves one run: `solver.solve_pipeline` makes it and passes
    it down at every step, whatever S is.
    """

    def __init__(self):
        self._q = None
        self._host = None  # the last step's g; None: the next step starts fresh
        self._kernel = None  # the suspended `_embeddings`; None once exhausted
        self._yielded: list = []  # the kernel's walls so far, in yield order
        self._drop: set = set()  # vertices deleted since the kernel last ran

    def _deleted(self, g: Graph, q: int) -> frozenset | None:
        """The vertices that the last step's g has and g lacks, when g is
        that graph less them and q is unchanged; otherwise None."""
        old = self._host
        if old is None or q != self._q:
            return None
        gone = old.vertices - g.vertices
        return gone if old.remove_vertices(gone) == g else None

    def walls(self, g: Graph, q: int, budget: int) -> Iterator[Wall]:
        """The walls of g's pass 1 at this step, spending at most `budget`
        kernel nodes; the kernel's ResourceLimitError passes through."""
        pat = _wall_pattern(q, False)
        gone = self._deleted(g, q)
        if gone is None:
            self._q, self._yielded, self._drop = q, [], set()
            self._kernel = _embeddings(pat, g, None, budget)
            sent = None
        else:
            self._yielded = [w for w in self._yielded if w.graph.vertices.isdisjoint(gone)]
            if self._kernel is not None:
                self._drop |= gone
            sent = (self._drop, budget)
        self._host = g
        yield from self._yielded
        while self._kernel is not None:
            try:
                image = self._kernel.send(sent)
            except StopIteration:
                self._kernel = None
                return
            except ResourceLimitError:
                self._host = None
                raise
            sent, self._drop = None, set()
            wall = _lift(pat, q, image, None)
            self._yielded.append(wall)
            yield wall


def wall_candidates(g: Graph, q: int, node_budget: int = DEFAULTS.cap_wall_nodes,
                    search: WallSearch | None = None) -> Iterator[Wall]:
    """Candidate q-walls of g, deduplicated by vertex set, from three passes
    of the direct-edge kernel, each with budget node_budget // 4 for the
    nodes it spends in this call:

    1. W_q in g, the q-walls whose every path is one edge of g, in the
       kernel's order (each path runs from the image of its later-placed
       end), through `search`, the run's pass-1 state (a fresh one when
       None). When g is the state's last g less some vertices, the search
       resumes: it re-offers the walls it yielded before that avoid them,
       and goes on from its last wall. A search that exhausted stays
       exhausted and only re-offers, and a fired budget starts the next
       call fresh (see `WallSearch`);
    2. the skeleton of W_q in the degree-2 reduct R of g
       (`smooth_degree_two`), every skeleton edge on an edge of R whose
       path holds at least as many inner vertices; this finds subdivisions
       of a whole q-wall;
    3. W_q in R, which finds the q-walls inside a subdivided h-wall for
       q <= h - 2.

    Passes 2 and 3 run only when smoothing changed g, since on g itself
    they find nothing pass 1 does not, and a wall they find is lifted to g
    through R's paths and yielded only if `validate_wall` accepts it and it
    is a subgraph of g. Budget exhaustion ends a pass rather than raising,
    so an exhausted pass only costs completeness, never soundness.

    Why passes 2 and 3 find these walls. In the elementary h-wall W_h only
    perimeter vertices have degree 2, and a perimeter vertex with a
    neighbour off the perimeter has degree 3.

    - Pass 3. Let S be a subdivision of W_h and G = S. The central
      (h - 2)-wall lies off the perimeter, so its vertices and all their
      W_h-neighbours have degree 3 in W_h and in S, and smoothing never
      removes them. From such a vertex a, every maximal path of degree-2
      vertices of S is the subdivision of one edge of W_h at a and ends at
      that edge's other end, so a has no two such paths, and no such path
      and edge, to the same vertex, and none back to itself. So smoothing
      turns the path behind each edge ab of the central (h - 2)-wall into
      the edge ab of R, whatever the walk order: that wall, and with it
      every central q-subwall for q <= h - 2, is a subgraph of R made of
      direct edges, and lifting it through R's paths gives back the
      subwall of S.
    - Pass 2. Let S be a subdivision of W_q and G = S. The vertices of S
      of degree other than 2 are the images of the degree-3 positions,
      and each maximal path of degree-2 vertices of S runs through the
      images of a maximal path of degree-2 positions of W_q and through
      the subdivision vertices of its edges, so it has the same ends and
      at least as many inner vertices. For q >= 3 these paths of W_q have
      distinct end pairs and no loops (its skeleton is simple and cubic),
      so neither has S's, smoothing keeps none of their inner vertices,
      and the position-to-image map embeds the skeleton in R with room
      enough on every edge.
    """
    seen: set = set()

    def fresh(walls: Iterator[Wall]) -> Iterator[Wall]:
        try:
            for wall in walls:
                if wall.graph.vertices in seen:
                    continue
                if not (validate_wall(wall) and wall.graph.is_subgraph_of(g)):
                    continue
                seen.add(wall.graph.vertices)
                yield wall
        except ResourceLimitError:
            return

    budget = node_budget // 4
    yield from fresh((WallSearch() if search is None else search).walls(g, q, budget))
    reduct, paths = smooth_degree_two(g)
    if len(reduct.vertices) < len(g.vertices):
        yield from fresh(_walls(reduct, q, True, paths, budget))
        yield from fresh(_walls(reduct, q, False, paths, budget))


def _may_contain_wall(g: Graph, q: int) -> bool:
    """Cheap necessary conditions for containing a subdivision of W_q, from
    its closed forms, so nothing of size q² is built. W_q is the grid
    [1, 2q] x [1, q] less two corners: 2q² − 2 positions. Each row holds
    2q − 1 horizontal edges and each pair of consecutive rows q vertical
    ones, and each corner takes one horizontal edge: 3q² − 2q − 2 edges.
    Every position has degree 2 or 3, so the degree sum 2|E| leaves
    2q² − 4q of degree 3. A subdivision has at least as many of each."""
    if len(g.vertices) < 2 * q * q - 2 or len(g.edges) < 3 * q * q - 2 * q - 2:
        return False
    have_deg3 = sum(1 for v in g.vertices if len(g.adj[v]) >= 3)
    return have_deg3 >= 2 * q * q - 4 * q
