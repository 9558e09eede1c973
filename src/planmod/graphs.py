"""Immutable simple graphs, metrics, vertex merging, minor models, and generators.

Vertex ids are opaque (ints or strings in practice) and stable: derived graphs
reuse the ids of the host so annotations survive modification.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
from typing import Hashable, Iterable, Mapping

from .errors import InputError

Vertex = Hashable
Edge = tuple


def vertex_key(v) -> tuple:
    """Total order over mixed int/str/tuple ids; ints first, then strings."""
    if isinstance(v, bool):  # bool is an int subtype; keep it out of the int lane
        return (1, 0, str(v))
    if isinstance(v, int):
        return (0, v, "")
    if isinstance(v, tuple):
        return (2, tuple(vertex_key(x) for x in v), "")
    return (1, 0, str(v))


def norm_edge(u, v) -> Edge:
    """Canonical (min, max) form of an undirected edge."""
    if u == v:
        raise InputError(f"loop edge on {u!r}")
    return (u, v) if vertex_key(u) <= vertex_key(v) else (v, u)


class Graph:
    """Immutable simple undirected graph. No loops, no multi-edges."""

    __slots__ = ("vertices", "edges", "_adj", "_hash")

    def __init__(self, vertices: Iterable = (), edges: Iterable = ()):
        vs = frozenset(vertices)
        es = set()
        for e in edges:
            u, v = e
            ne = norm_edge(u, v)
            if ne[0] not in vs or ne[1] not in vs:
                raise InputError(f"edge {ne!r} has an endpoint outside the vertex set")
            es.add(ne)
        object.__setattr__(self, "vertices", vs)
        object.__setattr__(self, "edges", frozenset(es))
        object.__setattr__(self, "_adj", None)
        object.__setattr__(self, "_hash", None)

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
        return sorted(self.vertices, key=vertex_key)

    def sorted_edges(self) -> list:
        return sorted(self.edges, key=vertex_key)

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

    def remove_vertices(self, drop: Iterable) -> "Graph":
        drop = set(drop)
        keep = self.vertices - drop
        return Graph(keep, (e for e in self.edges if e[0] in keep and e[1] in keep))

    def remove_edges(self, drop: Iterable) -> "Graph":
        dropped = {norm_edge(*e) for e in drop}
        return Graph(self.vertices, self.edges - dropped)

    def add_edges(self, new: Iterable) -> "Graph":
        added = set(self.edges)
        for e in new:
            u, v = e
            self._require(u)
            self._require(v)
            added.add(norm_edge(u, v))
        return Graph(self.vertices, added)

    def add_vertices(self, new: Iterable) -> "Graph":
        return Graph(self.vertices | set(new), self.edges)

    def induced(self, keep: Iterable) -> "Graph":
        """The subgraph induced by `keep`. Reads only the adjacency of the
        kept vertices, so it costs the sum of their degrees, not |E|."""
        keep = set(keep)
        missing = keep - self.vertices
        if missing:
            raise InputError(f"unknown vertex ids {sorted(missing, key=vertex_key)!r}")
        adj, edges = self.adj, self.edges
        # each edge once, from the endpoint its canonical form lists first
        return Graph(keep, ((u, w) for u in keep for w in adj[u]
                            if w in keep and (u, w) in edges))

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

    @classmethod
    def from_json_obj(cls, obj: dict) -> "Graph":
        try:
            g = cls(obj["vertices"], [tuple(e) for e in obj["edges"]])
        except InputError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"bad graph object: {exc}") from exc
        if None in g.vertices:
            raise InputError("bad graph object: null vertex id")
        if len(g.vertices) != len(obj["vertices"]):
            # true == 1 == 1.0 in Python, so such ids would silently merge
            raise InputError("bad graph object: repeated or colliding vertex ids")
        return g

    def to_dot(self) -> str:
        lines = ["graph G {"]
        for v in self.sorted_vertices():
            lines.append(f'  "{v}";')
        for u, v in self.sorted_edges():
            lines.append(f'  "{u}" -- "{v}";')
        lines.append("}")
        return "\n".join(lines)


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
    xs_sorted = sorted(xs, key=vertex_key)
    for i, u in enumerate(xs_sorted):
        dist = g.bfs_distances(u)
        for v in xs_sorted[i + 1:]:
            if dist.get(v, inf) <= 2 * r:
                return False
    return True


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
        r = min(group, key=vertex_key)
        for v in group:
            if v in rep:
                raise InputError(f"vertex {v!r} appears in two merge groups")
            rep[v] = r
    lift = lambda v: rep.get(v, v)
    verts = {lift(v) for v in g.vertices}
    edges = {norm_edge(lift(u), lift(v)) for u, v in g.edges if lift(u) != lift(v)}
    return Graph(verts, edges)


def verify_minor_model(host: Graph, pattern: Graph, model: Mapping,
                       must_intersect: Iterable | None = None) -> bool:
    """Checks a claimed minor model: disjoint connected branch sets, one per
    pattern vertex, with a host edge behind every pattern edge.

    When `must_intersect` is given, every branch set must also hit that set.
    """
    if set(model) != set(pattern.vertices):
        return False
    seen = set()
    sets = {}
    for pv, branch in model.items():
        branch = set(branch)
        if not branch or not branch <= host.vertices:
            return False
        if branch & seen:
            return False
        seen |= branch
        if not host.induced(branch).is_connected():
            return False
        sets[pv] = branch
    if must_intersect is not None:
        need = set(must_intersect)
        if any(not (b & need) for b in sets.values()):
            return False
    for pu, pv in pattern.edges:
        if not any(host.has_edge(a, b) for a in sets[pu] for b in sets[pv]):
            return False
    return True


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
