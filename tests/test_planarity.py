import random
import sys

import networkx as nx
import pytest
from graph_helpers import cycle_graph, nx_planar, path_graph, relabel, seeded_graph, to_nx
from hypothesis import given, settings
from hypothesis import strategies as st
from planarizer_reference import GADGETS, gadget

from planmod import planarity
from planmod.errors import InputError
from planmod.fixtures import random_instances
from planmod.graphs import Graph, complete_graph, disjoint_union, make_grid
from planmod.modification import ModificationSet, Operation, apply
from planmod.graphs import smooth_degree_two
from planmod.planarity import (_blocks, _lr_planar, embed, faces_are_fixed, is_planar,
                               kuratowski, planar_with_additions)
from planmod.solver import Instance, solve_pipeline
from planmod.walls import make_elementary_wall, subdivide_wall


def euler_ok(g: Graph, faces) -> bool:
    """Euler's formula V - E + F = 1 + C for the embedding's face count."""
    return len(g.vertices) - len(g.edges) + len(faces) == 1 + len(g.components())


def suppress_degree_two(g: Graph) -> Graph:
    """Smooth out degree-2 vertices; the reverse of subdividing edges.

    Fails on graphs where smoothing would create a loop or need a multi-edge
    (e.g. pure cycles), which no Kuratowski witness ever is.
    """
    verts = set(g.vertices)
    edges = {frozenset(e) for e in g.edges}
    changed = True
    while changed:
        changed = False
        adj = {v: set() for v in verts}
        for e in edges:
            u, v = tuple(e)
            adj[u].add(v)
            adj[v].add(u)
        for v in sorted(verts):
            if len(adj[v]) == 2:
                a, b = sorted(adj[v])
                if a == b or frozenset((a, b)) in edges:
                    raise InputError("smoothing would create a loop or parallel edge")
                edges -= {frozenset((v, a)), frozenset((v, b))}
                edges.add(frozenset((a, b)))
                verts.remove(v)
                changed = True
                break
    return Graph(verts, (tuple(e) for e in edges))


def kuratowski_kind(witness: Graph) -> str | None:
    """'K5' or 'K33' when the graph is a subdivision of that graph, else None."""
    if any(witness.degree(v) < 2 for v in witness.vertices):
        return None
    try:
        core = suppress_degree_two(witness)
    except InputError:
        return None
    n, m = len(core.vertices), len(core.edges)
    degs = sorted(core.degree(v) for v in core.vertices)
    if n == 5 and m == 10 and degs == [4] * 5:
        return "K5"
    if n == 6 and m == 9 and degs == [3] * 6:
        # bipartite complement check: each side is an independent triple
        side = next(iter(core.vertices))
        far = core.vertices - core.neighbors(side) - {side}
        if len(far) == 2 and all(not core.has_edge(u, v) for u in far | {side} for v in far | {side} if u != v):
            return "K33"
    return None


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return Graph(range(10), outer + inner + spokes)


def _subdivide(rng, edges, nxt):
    """Each edge as a path with 0-2 new inner vertices, some doubled by a
    second path, so that smoothing leaves parallel edges to merge."""
    out = []
    for u, v in edges:
        for _ in range(1 + (rng.random() < 0.2)):
            inner = list(range(nxt, nxt + rng.randint(0, 2)))
            nxt += len(inner)
            path = [u, *inner, v]
            out += zip(path, path[1:])
    return out, nxt


def _hang_trees(rng, verts, edges):
    """verts and edges with 0-5 pendant tree vertices hung off them."""
    verts = list(verts)
    nxt = max(verts, default=-1) + 1
    for _ in range(rng.randint(0, 5) if verts else 0):
        edges = [*edges, (rng.choice(verts), nxt)]
        verts.append(nxt)
        nxt += 1
    return verts, edges


def _kuratowski_host(rng):
    if rng.random() < 0.5:
        core = complete_graph(5)
    else:
        core = Graph(range(6), [(a, b) for a in range(3) for b in range(3, 6)])
    edges, nxt = _subdivide(rng, core.edges, 6)
    edges += [tuple(rng.sample(range(nxt), 2)) for _ in range(rng.randint(0, 2))]
    return _hang_trees(rng, range(nxt), edges)


def _theta(rng):
    # two poles joined by 2-5 paths, at most one of them a direct edge
    edges, nxt = [], 2
    for i in range(rng.randint(2, 5)):
        inner = list(range(nxt, nxt + rng.randint(1 if i else 0, 3)))
        nxt += len(inner)
        path = [0, *inner, 1]
        edges += zip(path, path[1:])
    return range(nxt), edges


def _random(rng, max_n, p):
    n = rng.randint(1, max_n)
    return range(n), [(u, v) for u in range(n) for v in range(u + 1, n)
                      if rng.random() < p]


def _two_random(rng):
    (va, ea), (vb, eb) = _random(rng, 8, 0.6), _random(rng, 8, 0.6)
    return [*va, *(v + 20 for v in vb)], [*ea, *((u + 20, v + 20) for u, v in eb)]


def _cycle(rng):
    n = rng.randint(3, 9)
    return range(n), [(i, (i + 1) % n) for i in range(n)]


FAMILIES = {
    "dense": lambda rng: _random(rng, 9, 0.7),
    "sparse": lambda rng: _random(rng, 12, 0.25),
    "disconnected": _two_random,
    "kuratowski": _kuratowski_host,
    "pendant-trees": lambda rng: _hang_trees(rng, *_random(rng, 8, 0.55)),
    "cycle": _cycle,
    "theta": _theta,
}


def _build(family, seed, str_ids):
    verts, edges = FAMILIES[family](random.Random(seed))
    g = Graph(verts, edges)
    return relabel(g, {v: f"v{v}" for v in g.vertices}) if str_ids else g


graphs = st.builds(_build, st.sampled_from(sorted(FAMILIES)),
                   st.integers(0, 2 ** 16), st.booleans())


class TestAgainstNetworkx:
    """The reductions and the deletion loop answer exactly as networkx."""

    @settings(max_examples=400)
    @given(graphs)
    def test_is_planar(self, g):
        assert is_planar(g) == nx_planar(g)

    @settings(max_examples=150)
    @given(graphs)
    def test_kuratowski_is_networkx_counterexample(self, g):
        ok, cert = nx.check_planarity(to_nx(g), counterexample=True)
        if ok:
            assert kuratowski(g) is None
        else:
            assert kuratowski(g) == Graph(cert.nodes(), cert.edges())

    @pytest.mark.parametrize("name", [f"{g}-{h}" for g in GADGETS if g.startswith("wall-")
                                      for h in (3, 5)]
                             + [g for g in GADGETS if not g.startswith("wall-")]
                             + ["petersen", "wall-with-chords", "k33-subdivision"])
    @pytest.mark.parametrize("str_ids", [False, True], ids=["int", "str"])
    def test_kuratowski_on_blocks(self, name, str_ids):
        # one nonplanar block among planar ones (a K5 or K3,3 hung from a
        # wall by a bridge or at a cut vertex), two nonplanar blocks, and
        # graphs that are one nonplanar block
        one_block = {"petersen": petersen, "wall-with-chords": lambda: _wall_with_chords(2),
                     "k33-subdivision": _subdivided_k33_with_extras}
        if name in one_block:
            g = one_block[name]()
        elif name in GADGETS:
            g = gadget(name)
        else:
            kind, height = name.rsplit("-", 1)
            g = gadget(kind, int(height))
        if str_ids:
            g = relabel(g, {v: f"v{v}" for v in g.vertices})
        ok, cert = nx.check_planarity(to_nx(g), counterexample=True)
        assert not ok
        assert kuratowski(g) == Graph(cert.nodes(), cert.edges())

    @settings(max_examples=300)
    @given(graphs)
    def test_faces_are_fixed_is_a_3_connected_reduct(self, g):
        reduct = to_nx(smooth_degree_two(g)[0])
        assert faces_are_fixed(g) == (len(reduct) >= 4 and nx.node_connectivity(reduct) >= 3)

    def test_faces_are_fixed_on_walls(self):
        wall = make_elementary_wall(5)
        top = max(wall.graph.vertices)
        assert faces_are_fixed(wall.graph)
        assert faces_are_fixed(subdivide_wall(wall, random.Random(5)).graph)
        assert faces_are_fixed(complete_graph(4))
        assert not faces_are_fixed(wall.graph.add_vertices([top + 1]).add_edges([(0, top + 1)]))
        # two K4s glued along the edge 23: {2, 3} is a 2-cut
        assert not faces_are_fixed(complete_graph(4).add_vertices([4, 5]).add_edges(
            [(2, 4), (2, 5), (3, 4), (3, 5), (4, 5)]))
        assert not faces_are_fixed(cycle_graph(5))

    def test_kuratowski_runs_fewer_lr_tests(self, monkeypatch):
        # networkx's get_counterexample runs two opening tests, one per edge
        # and a second one per witness edge: |E| + |K| + 2 left-right runs;
        # kuratowski runs the kernel fewer times for the same witness
        g = petersen()
        _, cert = nx.check_planarity(to_nx(g), counterexample=True)
        runs = []
        real = planarity._lr_planar
        monkeypatch.setattr(planarity, "_lr_planar", lambda adj: runs.append(1) or real(adj))
        w = kuratowski(g)
        assert w == Graph(cert.nodes(), cert.edges())
        assert 0 < len(runs) < len(g.edges) + len(w.edges) + 2


def _adjacency(h: nx.Graph) -> dict:
    return {v: set(h[v]) for v in h}


class TestKernel:
    """`_lr_planar`, the left-right test behind every yes/no planarity
    answer, agrees with networkx's `check_planarity` on its own input: no
    reduction or edge count answers first."""

    def test_graph_atlas(self):
        # every graph of up to 7 vertices, isolated vertices included
        for h in nx.graph_atlas_g():
            assert _lr_planar(_adjacency(h)) == nx.check_planarity(h)[0], list(h.edges)

    @settings(max_examples=300)
    @given(st.data())
    def test_random_graphs(self, data):
        n = data.draw(st.integers(5, 14))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        h = nx.empty_graph(n)
        h.add_edges_from(data.draw(st.sets(st.sampled_from(pairs))))
        assert _lr_planar(_adjacency(h)) == nx.check_planarity(h)[0]

    @pytest.mark.parametrize("seed", range(12))
    def test_near_maximal_planar(self, seed):
        # random pairs go in while the graph stays planar; each pair that
        # would make it nonplanar is tested, then taken out again
        rng = random.Random(seed)
        n = rng.randint(6, 16)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        rng.shuffle(pairs)
        h = nx.empty_graph(n)
        for u, v in pairs:
            h.add_edge(u, v)
            planar = nx.check_planarity(h)[0]
            assert _lr_planar(_adjacency(h)) == planar, list(h.edges)
            if not planar:
                h.remove_edge(u, v)
        assert h.number_of_edges() == 3 * n - 6

    @pytest.mark.parametrize("chord", [False, True], ids=["grid", "grid-with-chord"])
    def test_deep_grid(self, chord):
        # the depth-first searches on a 60x60 grid run deeper than the
        # recursion limit, which networkx's recursive test shows; the kernel
        # keeps its own stacks and leaves the limit alone
        g = make_grid(60, 60).graph
        with pytest.raises(RecursionError):
            nx.algorithms.planarity.check_planarity_recursive(to_nx(g))
        if chord:  # (10, 10) to (40, 40): interior vertices on no common face
            g = g.add_edges([(10 * 60 + 10, 40 * 60 + 40)])
        limit = sys.getrecursionlimit()
        assert _lr_planar(g.adj) is not chord
        assert sys.getrecursionlimit() == limit


def nx_faces(g: Graph) -> tuple | None:
    """`embed`'s faces read off networkx's `check_planarity` on `to_nx(g)`:
    each component's faces walked from its half-edges in sorted order, the
    largest (the last of the largest) merged into one outer face, last."""
    ok, emb = nx.check_planarity(to_nx(g))
    if not ok:
        return None
    inner, outer = [], []
    for comp in g.components():
        seen = set()
        faces = [tuple(emb.traverse_face(u, v, mark_half_edges=seen))
                 for u in sorted(comp) for v in sorted(g.adj[u]) if (u, v) not in seen]
        if faces:
            big = max(range(len(faces)), key=lambda i: (len(faces[i]), i))
            outer.append(faces[big])
            inner += [f for i, f in enumerate(faces) if i != big]
    return tuple(inner) + (tuple(v for piece in outer for v in piece),)


def _random_planar(seed: int, str_ids: bool) -> Graph:
    """Random pairs of 1-30 vertices go in while the graph stays planar, up
    to a random count of tries, so the graph runs from a forest to a
    triangulation; with `str_ids` its ids are "v0", "v1", ..., which sort
    in another order."""
    rng = random.Random(seed)
    n = rng.randint(1, 30)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    g = Graph(range(n))
    for pair in pairs[:rng.randint(0, len(pairs))]:
        h = g.add_edges([pair])
        if is_planar(h):
            g = h
    return relabel(g, {v: f"v{v}" for v in g.vertices}) if str_ids else g


class TestEmbeddingIsNetworkx:
    """`embed` gives networkx's faces, tuple for tuple: the kernel's
    embedding phase follows networkx's `LRPlanarity` on sorted adjacency."""

    def test_graph_atlas(self):
        # every graph of up to 7 vertices, isolated vertices included
        for h in nx.graph_atlas_g():
            g = Graph(h.nodes, h.edges)
            assert embed(g) == nx_faces(g), list(h.edges)

    @settings(max_examples=300)
    @given(st.integers(0, 2 ** 16), st.booleans())
    def test_random_planar(self, seed, str_ids):
        g = _random_planar(seed, str_ids)
        assert embed(g) == nx_faces(g)

    @settings(max_examples=150)
    @given(graphs)
    def test_families(self, g):
        # dense, disconnected, pendant trees, cycles, thetas: planar or not
        assert embed(g) == nx_faces(g)

    @pytest.mark.parametrize("height", [3, 5, 7, 9])
    def test_walls(self, height):
        wall = make_elementary_wall(height)
        for g in (wall.graph, subdivide_wall(wall, random.Random(height)).graph):
            assert embed(g) == nx_faces(g)

    def test_disconnected(self):
        g = disjoint_union(make_grid(3, 4).graph, cycle_graph(5, offset=20),
                           path_graph(3, offset=30), Graph([99]))
        assert embed(g) == nx_faces(g)

    def test_deep_grid(self):
        # the 60x60 grid's searches run deeper than the recursion limit
        g = make_grid(60, 60).graph
        limit = sys.getrecursionlimit()
        assert embed(g) == nx_faces(g)
        assert sys.getrecursionlimit() == limit


def _block_sets(blocks) -> set:
    return {frozenset(map(frozenset, b)) for b in blocks}


class TestBlocks:
    """`_blocks` splits a graph into networkx's biconnected components, as
    a set of edge sets, and with a vertex left out as networkx on g - x."""

    @settings(max_examples=300)
    @given(graphs)
    def test_blocks(self, g):
        want = list(nx.biconnected_component_edges(to_nx(g)))
        got = _blocks(g.adj)
        assert len(got) == len(want) and _block_sets(got) == _block_sets(want)

    @settings(max_examples=150)
    @given(graphs, st.data())
    def test_blocks_without_a_vertex(self, g, data):
        x = data.draw(st.sampled_from(g.sorted_vertices()))
        h = to_nx(g)
        h.remove_node(x)
        assert _block_sets(_blocks(g.adj, x)) == _block_sets(nx.biconnected_component_edges(h))

    def test_isolated_vertices_bridges_and_components(self):
        # two triangles joined by a bridge, a pendant path, a K4, an edge
        # alone and two isolated vertices
        g = Graph(range(16), [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5),
                              (5, 6), (6, 7), (8, 9), (8, 10), (8, 11), (9, 10), (9, 11),
                              (10, 11), (12, 13)])
        want = _block_sets(nx.biconnected_component_edges(to_nx(g)))
        assert _block_sets(_blocks(g.adj)) == want
        assert len(want) == 7


class _Forbidden(Exception):
    pass


def test_planarity_answers_without_networkx(monkeypatch):
    # with networkx's planarity test and block split disabled, every answer
    # still comes, from the kernel: yes/no, Kuratowski witnesses and faces
    w = gadget("wall-k5-bridge")
    _, cert = nx.check_planarity(to_nx(w), counterexample=True)
    k4_faces = nx_faces(complete_graph(4))

    def forbidden(*args, **kwargs):
        raise _Forbidden

    for name in ("check_planarity", "biconnected_component_edges", "is_biconnected"):
        monkeypatch.setattr(nx, name, forbidden)
    monkeypatch.setattr(nx.algorithms.planarity, "LRPlanarity", forbidden)
    runs = []
    real = planarity._lr_planar
    monkeypatch.setattr(planarity, "_lr_planar",
                        lambda *args, **kwargs: runs.append(1) or real(*args, **kwargs))
    is_planar.cache_clear()
    assert not is_planar(petersen()) and runs
    runs.clear()
    assert kuratowski(w) == Graph(cert.nodes(), cert.edges()) and runs
    # the first vr, k = 2 instance of the soundness stream whose graph is
    # nonplanar
    g, k, op, phi = next((g, k, op, phi) for g, k, op, phi, _ in random_instances(9000, 500)
                         if op is Operation.VR and k == 2 and not is_planar(g))
    runs.clear()
    assert solve_pipeline(Instance(g, k, op, phi)).cross_checked and runs
    runs.clear()
    assert embed(complete_graph(4)) == k4_faces and runs
    assert faces_are_fixed(complete_graph(4))


def test_the_memo_is_bounded():
    # the memo keeps every graph it tests. On the unchecked 23-wall ea run
    # (k = 1, "is isolated", q_hat 7, rho_hat 1, d_hat 1), which tests a
    # graph of about 980 vertices per vertex pair, peak RSS reached 338 and
    # 583 MB at 10 and 20 s with 1 << 16 entries, and stayed at 153-156 MB
    # for 60 s with 1 << 10. No benchmark instance holds more than 255
    # entries, so the bound evicts nothing there.
    assert is_planar.cache_info().maxsize <= 1 << 10


def _spread(g: Graph) -> Graph:
    """g with every id times 8, so that its ids collide in a hash table and
    the order its sets iterate in follows the order they were built in."""
    return Graph([8 * v for v in g.vertices], [(8 * u, 8 * v) for u, v in g.edges])


def _wall_with_chords(chords: int) -> Graph:
    """The 7-wall plus `chords` long chords between far vertices; two make
    it nonplanar."""
    w = make_elementary_wall(7).graph
    vs = w.sorted_vertices()
    return w.add_edges([(vs[3 * i], vs[-1 - 5 * i]) for i in range(chords)])


def _subdivided_k33_with_extras() -> Graph:
    k33 = Graph(range(6), [(i, j) for i in range(3) for j in range(3, 6)])
    return (k33.remove_edges([(0, 3)]).add_vertices([6, 7])
            .add_edges([(0, 6), (6, 7), (7, 3), (1, 2), (4, 5), (6, 4)]))


class TestOrderIndependence:
    """Two equal graphs, built from one edge list and from its reverse, get
    the same faces and Kuratowski witness: `embed` reads g's sorted
    adjacency and `kuratowski` its sorted edges, whatever order g's sets
    iterate in."""

    @staticmethod
    def _twins(g: Graph) -> tuple:
        a = Graph(g.sorted_vertices(), g.sorted_edges())
        b = Graph(g.sorted_vertices()[::-1], g.sorted_edges()[::-1])
        assert a == b
        return a, b

    def test_embedding(self):
        a, b = self._twins(_spread(_wall_with_chords(0)))
        assert list(a.vertices) != list(b.vertices)  # the sets iterate differently
        assert embed(a) == embed(b)

    @pytest.mark.parametrize("g", [_wall_with_chords(2), _subdivided_k33_with_extras()],
                             ids=["wall-with-chords", "k33-subdivision"])
    def test_kuratowski_witness(self, g):
        a, b = self._twins(_spread(g))
        wa, wb = kuratowski(a), kuratowski(b)
        assert wa is not None and kuratowski_kind(wa) in ("K5", "K33")
        assert wa == wb


class TestPlanarity:
    def test_k4_planar(self):
        assert is_planar(complete_graph(4))

    def test_k5_witness_is_itself(self):
        w = kuratowski(complete_graph(5))
        assert w is not None
        assert kuratowski_kind(w) == "K5"
        assert w.is_subgraph_of(complete_graph(5))

    def test_petersen_k33_subdivision(self):
        g = petersen()
        assert not is_planar(g)
        w = kuratowski(g)
        assert kuratowski_kind(w) == "K33"
        assert w.is_subgraph_of(g)

    def test_witnesses_on_random_nonplanar(self):
        for seed in range(60):
            g = seeded_graph(seed, 9, 0.6)
            if is_planar(g):
                assert kuratowski(g) is None
            else:
                w = kuratowski(g)
                assert w.is_subgraph_of(g)
                assert kuratowski_kind(w) in ("K5", "K33")


class TestSuppress:
    def test_subdivided_k4(self):
        g = complete_graph(4)
        sub = g.remove_edges([(0, 1)]).add_vertices([9]).add_edges([(0, 9), (9, 1)])
        core = suppress_degree_two(sub)
        assert core == complete_graph(4)


class TestEmbedding:
    def test_euler_connected(self):
        for g in (complete_graph(4), cycle_graph(5), path_graph(4),
                  make_grid(3, 3).graph):
            faces = embed(g)
            assert faces is not None and euler_ok(g, faces)

    def test_euler_disconnected(self):
        g = disjoint_union(cycle_graph(3), cycle_graph(3, offset=5),
                           Graph([99]))
        faces = embed(g)
        assert euler_ok(g, faces)
        # the merged outer face, last, holds both triangles
        assert set(faces[-1]) == {0, 1, 2, 5, 6, 7}

    def test_nonplanar_returns_none(self):
        assert embed(complete_graph(5)) is None

    def test_euler_random(self):
        for seed in range(40):
            g = seeded_graph(seed, 9, 0.4)
            faces = embed(g)
            if faces is not None:
                assert euler_ok(g, faces)


class TestPlanarWithAdditions:
    def test_rebuilds_k5(self):
        g = complete_graph(5).remove_edges([(0, 1)])
        assert not planar_with_additions(g, [(0, 1)])

    def test_path_chord(self):
        assert planar_with_additions(path_graph(3), [(0, 2)])

    def test_matches_apply_then_test(self):
        rng = random.Random(4)
        for seed in range(60):
            g = seeded_graph(seed, 8, 0.5)
            from planmod.modification import application_domain
            dom = sorted(application_domain(Operation.EA, g, g.vertices))
            if not dom:
                continue
            pairs = rng.sample(dom, k=min(2, len(dom)))
            want = is_planar(apply(g, ModificationSet(Operation.EA, pairs)))
            assert planar_with_additions(g, pairs) == want

    def test_existing_edge_rejected(self):
        with pytest.raises(InputError):
            planar_with_additions(path_graph(2), [(0, 1)])
