import json
import math
import random

import pytest
from graph_helpers import (cycle_graph, distance, path_graph, relabel, seeded_graph,
                           through_json, verify_minor_model)
from hypothesis import given, settings
from hypothesis import strategies as st

from planmod.errors import InputError
from planmod.graphs import (Graph, disjoint_union, is_scattered, load_graph, make_grid,
                            make_triangulated_grid, merge_groups, neighborhood,
                            norm_edge, smooth_degree_two, vertex_key)
from planmod.modification import ModificationSet, Operation, apply


def small_graphs(max_n=8, p=0.4):
    return st.integers(min_value=0, max_value=2 ** 12).map(
        lambda seed: seeded_graph(seed, max_n, p))


class TestGraphBasics:
    def test_no_loops(self):
        with pytest.raises(InputError):
            Graph([1], [(1, 1)])

    def test_edge_needs_endpoints(self):
        with pytest.raises(InputError):
            Graph([1, 2], [(1, 3)])

    def test_multi_edges_collapse(self):
        g = Graph([1, 2], [(1, 2), (2, 1)])
        assert len(g.edges) == 1

    def test_json_round_trip(self):
        g, ids = load_graph({"vertices": ["a", 1, 2], "edges": [[1, 2], ["a", 2]]})
        assert ids == [1, 2, "a"] and g == Graph(range(3), [(0, 1), (1, 2)])
        assert load_graph(json.loads(json.dumps(g.to_json_obj()))) == (g, [0, 1, 2])

    def test_ids_of_mixed_types_are_rejected(self):
        # only the JSON loader takes them, and it relabels them
        for ids in ([1, "a"], [2, True], [0, 1.5]):
            with pytest.raises(InputError, match="mixed types"):
                Graph(ids)

    def test_added_ids_of_another_type_are_rejected(self):
        # the constructor's one-type rule holds for a derived graph too, so
        # sorted_vertices never meets ids it cannot compare
        for g, new in ((Graph([0, 1]), ["x"]), (Graph([1, 2]), [1.0]),
                       (Graph(["a"]), [3]), (Graph(), [1, "b"])):
            with pytest.raises(InputError, match="mixed types"):
                g.add_vertices(new)
        assert Graph([0, 1]).add_vertices([2]).sorted_vertices() == [0, 1, 2]

    def test_edge_ends_of_another_type_are_rejected(self):
        # 1.0 == 1 and True == 1, but an edge must name its ends by the
        # graph's id type, or the edge set could hold two forms of one edge
        for ends in ((1.0, 2), (2, True), (1, 2.0)):
            with pytest.raises(InputError, match="another type"):
                Graph([1, 2], [ends])
            with pytest.raises(InputError, match="another type"):
                Graph([1, 2, 3], [(2, 3)]).add_edges([ends])
        assert Graph([1, 2, 3], [(2, 3)]).add_edges([(2, 1)]).edges == {(1, 2), (2, 3)}

    def test_dot_text(self):
        g = Graph(["0", "1", "hub"], [("0", "1"), ("1", "hub")])
        assert g.to_dot() == ('graph G {\n  "0";\n  "1";\n  "hub";\n'
                              '  "0" -- "1";\n  "1" -- "hub";\n}')


class TestDistance:
    def test_path_ends(self):
        assert distance(path_graph(3), 0, 2) == 2

    def test_self(self):
        assert distance(path_graph(3), 1, 1) == 0

    def test_disconnected_is_infinite(self):
        g = Graph([0, 1])
        assert distance(g, 0, 1) == math.inf

    def test_unknown_vertex(self):
        with pytest.raises(InputError):
            distance(path_graph(2), 0, 99)

    @settings(max_examples=60)
    @given(small_graphs(max_n=12))
    def test_metric_on_components(self, g):
        verts = g.sorted_vertices()
        dists = {v: g.bfs_distances(v) for v in verts}
        for u in verts:
            for v in dists[u]:
                assert dists[v][u] == dists[u][v]  # symmetry
                for w in dists[u]:
                    if w in dists[v]:
                        assert dists[u][w] <= dists[u][v] + dists[v][w]


@st.composite
def graph_and_source(draw):
    n = draw(st.integers(1, 25))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=40)) if pairs else []
    return Graph(range(n), edges), draw(st.integers(0, n - 1)), draw(st.integers(0, 8))


@settings(max_examples=150)
@given(graph_and_source())
def test_depth_bounded_bfs_is_truncated_bfs(case):
    g, source, r = case
    full = g.bfs_distances(source)
    assert g.bfs_distances(source, r) == {v: d for v, d in full.items() if d <= r}


class TestNeighborhood:
    def test_path_radius_one(self):
        assert neighborhood(path_graph(3), 1, 1) == {0, 1, 2}

    def test_radius_zero(self):
        assert neighborhood(path_graph(3), 1, 0) == {1}

    def test_five_cycle_radius_two(self):
        c5 = cycle_graph(5)
        assert neighborhood(c5, 0, 2) == c5.vertices

    @settings(max_examples=40)
    @given(small_graphs(max_n=9))
    def test_matches_all_pairs_shortest_paths(self, g):
        # independent Floyd-Warshall
        verts = g.sorted_vertices()
        dist = {(u, v): 0 if u == v else (1 if g.has_edge(u, v) else math.inf)
                for u in verts for v in verts}
        for w in verts:
            for u in verts:
                for v in verts:
                    alt = dist[u, w] + dist[w, v]
                    if alt < dist[u, v]:
                        dist[u, v] = alt
        for v in verts:
            for r in range(4):
                assert neighborhood(g, v, r) == {u for u in verts if dist[v, u] <= r}


class TestInduced:
    @settings(max_examples=60)
    @given(small_graphs(max_n=10), st.integers(0, 2 ** 12))
    def test_matches_filtering_all_edges(self, g, seed):
        rng = random.Random(seed)
        # mixed ids read through the JSON loader too, which orders the
        # vertices another way, so that the edges' canonical order is exercised
        for h in (g, through_json(g, {v: f"s{v}" for v in g.vertices if v % 2})):
            verts = h.sorted_vertices()
            for keep in (set(), set(verts), {v for v in verts if rng.random() < 0.5}):
                expected = Graph(keep, [e for e in h.edges
                                        if e[0] in keep and e[1] in keep])
                assert h.induced(keep) == expected

    def test_unknown_vertex(self):
        with pytest.raises(InputError):
            path_graph(3).induced({0, 9})

    def test_unknown_ids_of_other_types_are_named(self):
        with pytest.raises(InputError) as exc:
            make_grid(2, 2).graph.induced([0, "x", 1.5])
        assert "'x'" in str(exc.value) and "1.5" in str(exc.value)


class TestScattered:
    def test_far_pair(self):
        assert is_scattered(path_graph(7), {0, 6}, 2, 1)

    def test_close_pair(self):
        assert not is_scattered(path_graph(7), {0, 2}, 2, 1)

    def test_empty_vacuous(self):
        assert is_scattered(path_graph(3), set(), 0, 5)

    def test_wrong_size(self):
        assert not is_scattered(path_graph(7), {0, 6}, 3, 1)


class TestContraction:
    def test_merge_groups_uses_least_id(self):
        g = path_graph(3)
        merged = merge_groups(g, [{1, 2}])
        assert merged.vertices == {0, 1}
        assert merged.edges == frozenset({(0, 1)})

    def test_minor_model_verifier(self):
        host = cycle_graph(6)
        pattern = cycle_graph(3, offset=10)
        model = {10: {0, 1}, 11: {2, 3}, 12: {4, 5}}
        assert verify_minor_model(host, pattern, model)
        assert not verify_minor_model(host, pattern, model, must_intersect={99})


class TestGrids:
    def test_two_grid_is_four_cycle(self):
        g = make_grid(2, 2).graph
        assert len(g.vertices) == 4 and len(g.edges) == 4
        assert all(g.degree(v) == 2 for v in g.vertices)


class TestTriangulatedGrid:
    def test_vertex_count(self):
        for k in (2, 3, 4, 5, 7):
            g, _ = make_triangulated_grid(k)
            assert len(g.vertices) == k * k

    def test_figure_shape(self):
        g, loaded = make_triangulated_grid(5)
        # the loaded corner reaches every boundary vertex
        assert g.degree(loaded) == 4 * 5 - 5
        # non-corner boundary vertices had degree 4 before loading
        base = 5
        inner = [v for v in g.vertices
                 if 0 < v // base < base - 1 and 0 < v % base < base - 1]
        assert all(g.degree(v) == 6 for v in inner)
        from planmod.planarity import is_planar
        assert is_planar(g)

    def test_too_small(self):
        with pytest.raises(InputError):
            make_triangulated_grid(1)


class TestRelabel:
    def test_relabel_injective(self):
        g = path_graph(3)
        h = relabel(g, {0: "a", 1: "b", 2: "c"})
        assert h.vertices == {"a", "b", "c"}
        with pytest.raises(InputError):
            relabel(g, {0: 1})

    def test_disjoint_union_guards(self):
        with pytest.raises(InputError):
            disjoint_union(path_graph(2), path_graph(2))


@st.composite
def subdivided_multigraphs(draw):
    """Simple graphs with long degree-2 paths: a few base vertices joined by
    paths of fresh vertices, loops and repeated pairs included (each given
    enough inner vertices to stay simple), plus some bare cycles."""
    n = draw(st.integers(1, 5))
    nxt = n
    edges = []
    for a, b in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              max_size=8)):
        inner = list(range(nxt, nxt + draw(st.integers(2 if a == b else 0, 4))))
        nxt += len(inner)
        chain = [a, *inner, b]
        edges += [e for e in zip(chain, chain[1:]) if e[0] != e[1]]
    for length in draw(st.lists(st.integers(3, 6), max_size=2)):
        cycle = list(range(nxt, nxt + length))
        nxt += length
        edges += list(zip(cycle, cycle[1:] + cycle[:1]))
    return Graph(range(nxt), edges)


class TestSmoothing:
    @settings(max_examples=200)
    @given(st.one_of(subdivided_multigraphs(), small_graphs(p=0.25)))
    def test_reduct_paths_partition_the_graph(self, g):
        r, paths = smooth_degree_two(g)
        assert r.edges == set(paths)
        covered, inner = [], []
        for (a, b), path in paths.items():
            assert path[0] == a and path[-1] == b and len(path) >= 2
            assert all(g.has_edge(u, v) for u, v in zip(path, path[1:]))
            covered += [norm_edge(u, v) for u, v in zip(path, path[1:])]
            inner += path[1:-1]
        # each edge of g on one path, each smoothed vertex inside one path
        assert sorted(covered, key=vertex_key) == g.sorted_edges()
        assert len(inner) == len(set(inner))
        assert set(inner) == g.vertices - r.vertices
        assert all(g.degree(v) == 2 for v in inner)
        assert all(r.degree(v) == g.degree(v) for v in r.vertices)

    @settings(max_examples=200)
    @given(st.one_of(subdivided_multigraphs(), small_graphs(p=0.25)))
    def test_kept_degree_two_vertices_would_close_a_parallel_edge(self, g):
        r, _ = smooth_degree_two(g)
        for v in r.vertices:
            if r.degree(v) == 2:
                a, b = r.adj[v]
                assert r.has_edge(a, b)

    def test_graph_without_degree_two_is_its_own_reduct(self):
        g = Graph(range(4), [(u, v) for u in range(4) for v in range(u + 1, 4)])
        r, paths = smooth_degree_two(g)
        assert r == g and all(path == e for e, path in paths.items())

    def test_cycle_keeps_a_triangle(self):
        # walked from its least vertex 3 towards 4: the edges 3-4 and 4-5
        # stay, and the rest of the cycle becomes the edge 3-5
        r, paths = smooth_degree_two(cycle_graph(7, offset=3))
        assert r.vertices == {3, 4, 5}
        assert paths == {(3, 4): (3, 4), (4, 5): (4, 5), (3, 5): (3, 9, 8, 7, 6, 5)}

    def test_parallel_paths_keep_their_first_inner_vertex(self):
        # 0-1 is an edge of g, so neither 0-2-3-1 nor 0-5-1 can become a
        # second one: each keeps the vertex after 0
        g = Graph([0, 1, 2, 3, 5], [(0, 1), (0, 2), (2, 3), (3, 1), (0, 5), (5, 1)])
        r, paths = smooth_degree_two(g)
        assert paths == {(0, 1): (0, 1), (0, 2): (0, 2), (1, 2): (1, 3, 2),
                         (0, 5): (0, 5), (1, 5): (1, 5)}


@settings(max_examples=30)
@given(small_graphs())
def test_vertex_key_total_order(g):
    vs = g.sorted_vertices()
    assert sorted(vs, key=vertex_key) == vs


_IDS = {"int": st.integers(-3, 12), "str": st.text("abc01", max_size=2),
        "mixed": st.one_of(st.integers(-3, 12), st.text("abc01", max_size=2))}


# JSON ids of other types, and strings that print like them
_LOOKALIKES = [True, False, 1.5, -0.5, "True", "False", "1.5", "-0.5"]


class TestVertexKeyLanes:
    """Unequal JSON ids never share a key, so the loader's edges are
    canonical for every pair of them."""

    @pytest.mark.parametrize("a, b", [(True, "True"), (1.5, "1.5"), (False, "False")])
    def test_json_pair_of_lookalike_ids_is_one_edge(self, a, b):
        g, _ = load_graph({"vertices": [a, b], "edges": [[a, b], [b, a]]})
        assert len(g.edges) == 1

    def test_other_types_sort_after_ints_and_strings(self):
        ids = [True, 1.5, "b", 3, False, "True", -2]
        assert sorted(ids, key=vertex_key) == [-2, 3, "True", "b", False, True, 1.5]

    @settings(max_examples=200)
    @given(st.lists(_IDS["mixed"] | st.sampled_from(_LOOKALIKES), min_size=2, max_size=2,
                    unique=True))
    def test_unequal_ids_get_unequal_keys(self, pair):
        u, v = pair
        assert vertex_key(u) != vertex_key(v)
        g, ids = load_graph({"vertices": [u, v], "edges": [[u, v]]})
        assert (g, ids) == load_graph({"vertices": [v, u], "edges": [[v, u]]})


_ALL_IDS = {**_IDS, "mixed": _IDS["mixed"] | st.sampled_from(_LOOKALIKES)}


@st.composite
def id_graphs(draw, kind):
    """A graph on drawn ids of one kind, from edges in drawn order and
    orientation: built by the public constructor, or, for mixed ids, read
    by the JSON loader, which relabels them to ints."""
    verts = draw(st.lists(_ALL_IDS[kind], min_size=1, max_size=9, unique=True))
    pairs = [(u, v) for i, u in enumerate(verts) for v in verts[i + 1:]]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    edges = [(v, u) if draw(st.booleans()) else (u, v) for u, v in edges]
    if kind == "mixed":
        return load_graph({"vertices": verts, "edges": [list(e) for e in edges]})[0]
    return Graph(verts, edges)


def _as_built(h: Graph, expected: Graph):
    """h is the graph the public constructor builds: same vertices, edges,
    adjacency and hash."""
    assert h.vertices == expected.vertices and h.edges == expected.edges
    assert h.adj == expected.adj
    assert hash(h) == hash(expected)


class TestDerivedGraphs:
    """Derived graphs skip normalisation and reuse their parent's sets; each
    must equal the graph the public constructor builds from scratch."""

    @settings(max_examples=80)
    @given(data=st.data(), kind=st.sampled_from(sorted(_ALL_IDS)))
    def test_equal_to_public_construction(self, data, kind):
        g = data.draw(id_graphs(kind))
        verts, edges = g.sorted_vertices(), g.sorted_edges()
        some = lambda xs: data.draw(st.lists(st.sampled_from(xs), unique=True)) if xs else []
        keep = set(some(verts))
        drop = set(verts) - keep
        inside = lambda es: [e for e in es if e[0] in keep and e[1] in keep]
        dropped = Graph(keep, inside(edges))
        _as_built(g.remove_vertices(drop), dropped)
        _as_built(g.induced(keep), dropped)
        gone = some(edges)
        fewer = Graph(verts, [e for e in edges if e not in gone])
        _as_built(g.remove_edges([(v, u) for u, v in gone]), fewer)
        # new pairs in reversed, non-canonical orientation
        new = some([(v, u) for i, u in enumerate(verts) for v in verts[i + 1:]
                    if not g.has_edge(u, v)])
        more = Graph(verts, edges + new)
        _as_built(g.add_edges(new), more)
        _as_built(g.add_edges(new).remove_vertices(drop), Graph(keep, inside(edges + new)))
        # new and old ids, of the graph's one type
        extra = data.draw(st.lists(_ALL_IDS["int" if kind == "mixed" else kind], max_size=4))
        _as_built(g.add_vertices(extra), Graph(verts + extra, edges))
        for op, elements, expected in ((Operation.VR, drop, dropped),
                                       (Operation.ER, gone, fewer),
                                       (Operation.EA, new, more),
                                       (Operation.EC, gone, _contracted(g, gone))):
            _as_built(apply(g, ModificationSet(op, elements)), expected)

    @settings(max_examples=80)
    @given(data=st.data(), kind=st.sampled_from(sorted(_ALL_IDS)))
    def test_edge_changes_derive_adjacency(self, data, kind):
        # add_edges and remove_edges hand the child its adjacency, patched
        # from the parent's at the changed pairs' ends; old edges and
        # non-edges among the pairs, in either orientation, change nothing
        g = data.draw(id_graphs(kind))
        verts = g.sorted_vertices()
        pairs = [(u, v) for i, u in enumerate(verts) for v in verts[i + 1:]]
        some = lambda: data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        new, gone = some(), [(v, u) for u, v in some()]
        for h in (g.add_edges(new), g.remove_edges(gone), g.add_edges(new).remove_edges(gone)):
            assert h._adj is not None
            assert h.adj == Graph(h.vertices, h.edges).adj

    @settings(max_examples=80)
    @given(data=st.data(), kind=st.sampled_from(sorted(_ALL_IDS)))
    def test_merging_derives_adjacency(self, data, kind):
        # merge_groups hands the result its adjacency, patched from the
        # parent's at the lifted edges' ends; the groups need not be
        # connected, and a contraction's groups are its components
        g = data.draw(id_graphs(kind))
        verts = data.draw(st.permutations(g.sorted_vertices()))
        cuts = sorted(data.draw(st.lists(st.integers(0, len(verts)), max_size=4)))
        groups = [verts[a:b] for a, b in zip([0] + cuts, cuts + [len(verts)]) if a < b]
        contracted = data.draw(st.lists(st.sampled_from(g.sorted_edges()), unique=True)
                               ) if g.edges else []
        for h in (merge_groups(g, groups), apply(g, ModificationSet(Operation.EC, contracted))):
            assert h._adj is not None
            assert h.adj == Graph(h.vertices, h.edges).adj

    def test_bad_input_still_raises(self):
        g = Graph([1, 2, 4], [(1, 2)])
        for bad in (lambda: g.add_edges([(1, 3)]), lambda: g.add_edges([(4, 4)]),
                    lambda: g.induced({1, "b"}), lambda: g.remove_edges([(2, 2)])):
            with pytest.raises(InputError):
                bad()


def _contracted(g: Graph, pairs: list) -> Graph:
    """g with every pair's ends merged into the least id of their
    component, by union-find over the pairs."""
    rep = {v: v for v in g.vertices}

    def find(v):
        while rep[v] != v:
            v = rep[v]
        return v

    for u, v in pairs:
        a, b = sorted((find(u), find(v)))
        rep[b] = a
    return Graph({find(v) for v in g.vertices},
                 [(find(u), find(v)) for u, v in g.edges if find(u) != find(v)])
