"""Immutable simple graphs, metrics, vertex merging, minor models, and generators.

Vertex ids are stable: derived graphs reuse the ids of the host so
annotations survive modification. The ids of one graph share one type (ints
in practice, or a wall pattern's (x, y) positions) and sort by their natural
order. Ids of mixed types arrive only from outside, in JSON: `load_graph`
relabels them to 0..n-1 once, in `vertex_key` order, and the caller maps
what it reports back to the input ids.

Input is normalised once, when a graph is built from outside: the public
constructor puts every edge in `norm_edge` form and checks its endpoints,
by value and by type, so an edge never names a vertex 1 as 1.0 or True.
A derived graph (`remove_vertices`, `induced`, `remove_edges`, `add_edges`,
`merge_groups`) trusts its valid parent: it reuses the parent's canonical
edges and, where vertices or edges come and go, the parent's adjacency, with
new sets only for the vertices the change touches, and normalises and checks
only what is new (`add_vertices` and `add_edges` hold new ids and ends to
the parent's id type), so it costs about what the change touches.

A graph may carry `known_planar`, a proof that it is planar, set only by
`planarity.certified_planar` on a copy it makes. The derivations that make
a subgraph (`remove_vertices`, `remove_edges`, `induced`) or add isolated
vertices (`add_vertices`) keep it, since a subgraph of a planar graph is
planar; `add_edges`, `merge_groups` and the public constructor never set it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, islice
from math import inf
from typing import Iterable, Mapping

from .errors import InputError


def vertex_key(v) -> tuple:
    """Total order over JSON vertex ids: ints, then strings, then every
    other type (floats, bools) in a lane of its own, by type name and then
    by value. Unequal ids of these types never share a key. Exact ints
    take a fast path, so bools keep their own lane."""
    kind = type(v)
    if kind is int:
        return (0, v)
    if kind is str:
        return (1, v)
    return (2, kind.__name__, v)


def _id_type(ids: Iterable):
    """The one type of these vertex ids, None when there are none; ids of
    mixed types raise."""
    kinds = set(map(type, ids))
    if len(kinds) > 1:
        raise InputError(f"vertex ids of mixed types: {sorted(t.__name__ for t in kinds)}")
    return next(iter(kinds), None)


def _check_end_types(u, v, kind):
    """An edge names its ends by the graph's id type: 1.0 equals the vertex
    1 but would be stored as a second form of it."""
    if type(u) is not kind or type(v) is not kind:
        raise InputError(f"edge {(u, v)!r} names an endpoint by a value of another type")


def norm_edge(u, v) -> tuple:
    """Canonical (min, max) form of an undirected edge."""
    if u == v:
        raise InputError(f"loop edge on {u!r}")
    return (u, v) if u < v else (v, u)


class Graph:
    """Immutable simple undirected graph. No loops, no multi-edges.

    `known_planar` is True only on a graph proven planar or derived from
    one by deletion (see the module docstring); False says nothing. It
    takes no part in equality, hashing or serialisation."""

    __slots__ = ("vertices", "edges", "_adj", "_hash", "known_planar")

    def __init__(self, vertices: Iterable = (), edges: Iterable = ()):
        vs = frozenset(vertices)
        kind = _id_type(vs)
        es = set()
        for u, v in edges:
            if u not in vs or v not in vs:
                raise InputError(f"edge {(u, v)!r} has an endpoint outside the vertex set")
            _check_end_types(u, v, kind)
            es.add(norm_edge(u, v))
        self._fill(vs, frozenset(es), None, False)

    def _fill(self, vertices: frozenset, edges: frozenset, adj: dict | None,
              known_planar: bool):
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "_adj", adj)
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "known_planar", known_planar)

    @classmethod
    def _derived(cls, vertices: frozenset, edges: frozenset, adj: dict | None = None,
                 known_planar: bool = False) -> "Graph":
        """A graph from sets a valid parent already holds in canonical form:
        every edge is in `norm_edge` form with both ends in `vertices`, and
        `adj`, when given, is the adjacency of these edges. Nothing is
        normalised or checked, and `known_planar` is taken on trust."""
        g = cls.__new__(cls)
        g._fill(vertices, edges, adj, known_planar)
        return g

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    # -- basics ----------------------------------------------------------

    @property
    def adj(self) -> Mapping:
        if self._adj is None:
            adj = {v: set() for v in self.vertices}
            for u, v in self.edges:
                adj[u].add(v)
                adj[v].add(u)
            object.__setattr__(self, "_adj", {v: frozenset(ns) for v, ns in adj.items()})
        return self._adj

    def __contains__(self, v) -> bool:
        return v in self.vertices

    def __len__(self) -> int:
        return len(self.vertices)

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.vertices == other.vertices and self.edges == other.edges

    def __hash__(self):
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.vertices, self.edges)))
        return self._hash

    def __repr__(self):
        return f"Graph(|V|={len(self.vertices)}, |E|={len(self.edges)})"

    def sorted_vertices(self) -> list:
        return sorted(self.vertices)

    def sorted_edges(self) -> list:
        return sorted(self.edges)

    def neighbors(self, v) -> frozenset:
        self._require(v)
        return self.adj[v]

    def degree(self, v) -> int:
        return len(self.neighbors(v))

    def has_edge(self, u, v) -> bool:
        return u != v and norm_edge(u, v) in self.edges

    def _require(self, v):
        if v not in self.vertices:
            raise InputError(f"unknown vertex id {v!r}")

    # -- derived graphs ---------------------------------------------------

    def _edges_at(self, vs: Iterable) -> set:
        """The edges with an end in vs, read off their adjacency."""
        edges, adj = self.edges, self.adj
        return {(u, w) if (u, w) in edges else (w, u) for u in vs for w in adj[u]}

    def remove_vertices(self, drop: Iterable) -> "Graph":
        """g minus the vertices of `drop` that it has, and their edges. Only
        the dropped vertices' edges are read, and only their neighbours get
        a new adjacency set."""
        drop = self.vertices.intersection(drop)
        parent = self.adj
        adj = dict(parent)
        for u in drop:
            del adj[u]
        for w in {w for u in drop for w in parent[u]} - drop:
            adj[w] = parent[w] - drop
        return Graph._derived(self.vertices - drop, self.edges - self._edges_at(drop), adj,
                              self.known_planar)

    def _adj_changed(self, pairs: set, add: bool) -> dict:
        """g's adjacency with these pairs of its vertices added as edges, or
        removed; only the pairs' ends get a new set."""
        parent = self.adj
        delta = {}
        for u, v in pairs:
            delta.setdefault(u, set()).add(v)
            delta.setdefault(v, set()).add(u)
        adj = dict(parent)
        for u, ns in delta.items():
            adj[u] = parent[u] | ns if add else parent[u] - ns
        return adj

    def remove_edges(self, drop: Iterable) -> "Graph":
        """g minus the edges of `drop` that it has; only their ends get a new
        adjacency set."""
        dropped = {norm_edge(*e) for e in drop} & self.edges
        return Graph._derived(self.vertices, self.edges - dropped,
                              self._adj_changed(dropped, False), self.known_planar)

    def add_edges(self, new: Iterable) -> "Graph":
        """g plus the pairs of `new`; only these are normalised and checked,
        and only their ends get a new adjacency set."""
        kind = _id_type(islice(self.vertices, 1))
        added = set()
        for e in new:
            u, v = e
            self._require(u)
            self._require(v)
            _check_end_types(u, v, kind)
            added.add(norm_edge(u, v))
        return Graph._derived(self.vertices, self.edges | added, self._adj_changed(added, True))

    def add_vertices(self, new: Iterable) -> "Graph":
        """g plus the isolated vertices of `new`, which must share g's id
        type, as the constructor requires."""
        new = frozenset(new)
        _id_type(chain(new, islice(self.vertices, 1)))
        return Graph._derived(self.vertices | new, self.edges,
                              known_planar=self.known_planar)

    def induced(self, keep: Iterable) -> "Graph":
        """The subgraph induced by `keep`. Reads only the adjacency of the
        kept vertices, so it costs the sum of their degrees, not |E|."""
        keep = frozenset(keep)
        missing = keep - self.vertices
        if missing:
            raise InputError(f"unknown vertex ids {', '.join(sorted(map(repr, missing)))}")
        edges, parent = self.edges, self.adj
        adj = {}
        for u in keep:
            ns = parent[u]
            adj[u] = ns if ns <= keep else ns & keep
        # each edge once, from the endpoint its canonical form lists first
        return Graph._derived(keep, frozenset((u, w) for u in keep for w in adj[u]
                                              if (u, w) in edges), adj, self.known_planar)

    def is_subgraph_of(self, other: "Graph") -> bool:
        return self.vertices <= other.vertices and self.edges <= other.edges

    # -- metrics -----------------------------------------------------------

    def bfs_distances(self, source, radius=inf) -> dict:
        """Breadth-first distances from `source` to the vertices within
        `radius` of it; farther vertices are absent. The search stops at
        depth `radius`, so it visits only that ball and its edges."""
        self._require(source)
        adj = self.adj
        dist = {source: 0}
        frontier = [source]
        d = 0
        while frontier and d < radius:
            d += 1
            reached = []
            for u in frontier:
                for w in adj[u]:
                    if w not in dist:
                        dist[w] = d
                        reached.append(w)
            frontier = reached
        return dist

    def components(self) -> list:
        seen = set()
        comps = []
        for v in self.sorted_vertices():
            if v in seen:
                continue
            comp = set(self.bfs_distances(v))
            seen |= comp
            comps.append(frozenset(comp))
        return comps

    def is_connected(self) -> bool:
        return len(self.components()) <= 1

    def component_of(self, v) -> frozenset:
        return frozenset(self.bfs_distances(v))

    # -- serialization -----------------------------------------------------

    def to_json_obj(self) -> dict:
        return {"vertices": self.sorted_vertices(),
                "edges": [list(e) for e in self.sorted_edges()]}

    def to_dot(self) -> str:
        lines = ["graph G {"]
        for v in self.sorted_vertices():
            lines.append(f'  "{v}";')
        for u, v in self.sorted_edges():
            lines.append(f'  "{u}" -- "{v}";')
        lines.append("}")
        return "\n".join(lines)


def load_graph(obj) -> tuple:
    """(g, ids) for a JSON object that lists vertex ids and edges, each a
    list of two ids. The ids may be of any JSON type but a list, an object
    or null; g has the vertices 0..n-1 and `ids[i]` is the input id of
    vertex i, in `vertex_key` order. An edge names each endpoint by its
    id's type and value."""
    try:
        vertices, edges = obj["vertices"], obj["edges"]
        if not isinstance(vertices, list) or not isinstance(edges, list) or any(
                not isinstance(e, list) or len(e) != 2 for e in edges):
            raise InputError("bad graph object: vertices must be a list of ids "
                             "and edges a list of two-id lists")
        ids = sorted(set(vertices), key=vertex_key)
        if None in ids:
            raise InputError("bad graph object: null vertex id")
        if len(ids) != len(vertices):
            # true == 1 == 1.0 in Python, so such ids would silently merge
            raise InputError("bad graph object: repeated or colliding vertex ids")
        index = {(type(v), v): i for i, v in enumerate(ids)}
        for u, v in edges:
            if u == v:
                raise InputError(f"loop edge on {u!r}")
            ends = (u, v) if vertex_key(u) <= vertex_key(v) else (v, u)
            if any((type(x), x) not in index for x in ends):
                raise InputError(f"edge {ends!r} has an endpoint outside the vertex set")
    except (KeyError, TypeError) as exc:
        raise InputError(f"bad graph object: {exc}") from exc
    return Graph(range(len(ids)), [[index[type(x), x] for x in e] for e in edges]), ids


# -- spec operations --------------------------------------------------------

def neighborhood(g: Graph, v, r: int) -> frozenset:
    """All vertices at distance <= r from v (contains v), from a BFS that
    stops at depth r."""
    if r < 0:
        raise InputError("radius must be non-negative")
    return frozenset(g.bfs_distances(v, r))


def is_scattered(g: Graph, xs: Iterable, ell: int, r: int) -> bool:
    """True iff |xs| == ell and all distinct pairs of xs are at distance > 2r.

    Distances are read pairwise over the set itself, not over all of V.
    """
    xs = frozenset(xs)
    if not xs <= g.vertices:
        return False
    if len(xs) != ell:
        return False
    xs_sorted = sorted(xs)
    for i, u in enumerate(xs_sorted):
        dist = g.bfs_distances(u)
        for v in xs_sorted[i + 1:]:
            if dist.get(v, inf) <= 2 * r:
                return False
    return True


# -- topological reduct ---------------------------------------------------------

def smooth_degree_two(g: Graph) -> tuple:
    """The degree-2 reduct of g, with the path of g behind each reduct edge.

    Every vertex of degree 2 is smoothed, that is replaced with an edge
    between its two neighbours, except where that edge would be a loop or
    parallel to an edge already there: then the vertex stays. Returns the
    reduct and a dict that maps each reduct edge (a, b), in `norm_edge`
    form, to the path of g from a to b that it stands for. The inner
    vertices of these paths are exactly the smoothed vertices, each on one
    path, and smoothing changes no other vertex's degree.

    The edges of g between two vertices of degree other than 2 go in first.
    Then each maximal path of degree-2 vertices is walked once, from its
    first end in vertex order (a cycle of degree-2 vertices from its least
    vertex), and split at its first inner vertex for as long as it would
    close a loop or a parallel edge. So the work is linear after one sort of
    the vertices.
    """
    adj = g.adj
    order = g.sorted_vertices()
    rank = {v: i for i, v in enumerate(order)}
    ends = [v for v in order if len(adj[v]) != 2]
    verts = set(ends)
    walked: set = set()
    paths: dict = {}

    def add(chain: list) -> None:
        while len(chain) > 2 and (chain[0] == chain[-1]
                                  or norm_edge(chain[0], chain[-1]) in paths):
            verts.add(chain[1])
            e = norm_edge(chain[0], chain[1])
            paths[e] = e
            chain = chain[1:]
        e = norm_edge(chain[0], chain[-1])
        paths[e] = tuple(chain if e[0] == chain[0] else reversed(chain))

    def walk(start, first) -> None:
        chain, prev, cur = [start], start, first
        while cur not in verts:
            chain.append(cur)
            walked.add(cur)
            u, w = adj[cur]
            prev, cur = cur, (w if u == prev else u)
        chain.append(cur)
        add(chain)

    for a in ends:
        for b in adj[a]:
            if b in verts and rank[a] < rank[b]:
                e = norm_edge(a, b)
                paths[e] = e
    for a in ends:
        for b in sorted(adj[a], key=rank.__getitem__):
            if b not in verts and b not in walked:
                walk(a, b)
    for v in order:
        if v not in verts and v not in walked:
            verts.add(v)
            walk(v, min(adj[v], key=rank.__getitem__))
    return Graph(verts, paths), paths


# -- minors -------------------------------------------------------------------

def merge_groups(g: Graph, groups: Iterable) -> Graph:
    """Merge each vertex group into its lexicographically least id.

    Groups must be disjoint; vertices outside every group keep their id.
    Loops vanish and parallel edges collapse (the result stays simple).
    """
    rep = {}
    for group in groups:
        group = set(group)
        if not group <= g.vertices:
            raise InputError("merge group contains unknown vertices")
        r = min(group)
        for v in group:
            if v in rep:
                raise InputError(f"vertex {v!r} appears in two merge groups")
            rep[v] = r
    # only the edges at a vertex that takes a new id change; they alone are
    # lifted and normalised, the rest stay as they are. So only their ends,
    # lifted, get a new adjacency set: the parent's set less the moved
    # vertices, plus the lifted neighbours
    moved = {v for v, r in rep.items() if v != r}
    lift = lambda v: rep.get(v, v)
    old = g._edges_at(moved)
    new = {norm_edge(lift(u), lift(w)) for u, w in old if lift(u) != lift(w)}
    parent = g.adj
    adj = dict(parent)
    for v in moved:
        del adj[v]
    gained = {lift(x): set() for e in old for x in e}
    for u, w in new:
        gained[u].add(w)
        gained[w].add(u)
    for x, ns in gained.items():
        adj[x] = (parent[x] - moved) | ns
    return Graph._derived(g.vertices - moved, (g.edges - old) | new, adj)


# -- grid generators ----------------------------------------------------------

@dataclass(frozen=True)
class Grid:
    """A grid graph tagged with its row/column coordinates."""

    graph: Graph
    rows: int
    cols: int
    coords: Mapping  # vertex -> (row, col)

    def vertex_at(self, row: int, col: int):
        return row * self.cols + col


def make_grid(k: int, r: int) -> Grid:
    """The (k x r)-grid: Cartesian product of paths on k and r vertices."""
    if k < 1 or r < 1:
        raise InputError("grid sides must be >= 1")
    verts = range(k * r)
    edges = []
    for i in range(k):
        for j in range(r):
            v = i * r + j
            if j + 1 < r:
                edges.append((v, v + 1))
            if i + 1 < k:
                edges.append((v, v + r))
    coords = {i * r + j: (i, j) for i in range(k) for j in range(r)}
    return Grid(Graph(verts, edges), k, r, coords)


def make_triangulated_grid(k: int) -> tuple:
    """The triangulated k-grid: parallel diagonals in every internal face and a
    degree-2 corner joined to every boundary vertex. Returns (graph, loaded).

    Diagonals run from (i, j+1) to (i+1, j), which leaves every non-corner
    boundary vertex at degree 4 before the loaded corner is wired up; the
    loaded corner is (0, 0), untouched by diagonals.
    """
    if k < 2:
        raise InputError("triangulated grid needs k >= 2")
    base = make_grid(k, k)
    at = base.vertex_at
    diag = [(at(i, j + 1), at(i + 1, j)) for i in range(k - 1) for j in range(k - 1)]
    g = base.graph.add_edges(diag)
    loaded = at(0, 0)
    boundary = [v for v, (a, b) in base.coords.items()
                if (a in (0, k - 1) or b in (0, k - 1)) and v != loaded]
    g = g.add_edges((loaded, v) for v in boundary if not g.has_edge(loaded, v))
    return g, loaded


# -- graph zoo ---------------------------------------------------------------

def complete_graph(n: int, offset: int = 0) -> Graph:
    if n < 0:
        raise InputError(f"vertex count must be >= 0, got {n}")
    verts = range(offset, offset + n)
    return Graph(verts, ((u, v) for u in verts for v in verts if u < v))


def disjoint_union(*graphs: Graph) -> Graph:
    """Union that relabels nothing: ids must already be disjoint."""
    verts, edges = set(), set()
    for g in graphs:
        if verts & g.vertices:
            raise InputError("disjoint_union requires disjoint vertex ids")
        verts |= g.vertices
        edges |= g.edges
    return Graph(verts, edges)


def k5_star(r: int) -> tuple:
    """r copies of K4 plus a hub adjacent to all of them. Returns (graph, hub)."""
    if r < 1:
        raise InputError("need at least one K4 copy")
    hub = 0
    verts = [hub]
    edges = []
    for c in range(r):
        block = [1 + 4 * c + i for i in range(4)]
        verts += block
        edges += [(u, v) for u in block for v in block if u < v]
        edges += [(hub, v) for v in block]
    return Graph(verts, edges), hub
