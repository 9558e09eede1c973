import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planmod.errors import InputError
from planmod.graphs import (ContractionMap, Graph, Separation, central_grid,
                            contraction_violations, cycle_graph,
                            disjoint_union, distance, grid_layer,
                            identity_contraction, is_scattered, is_separation,
                            make_grid, make_triangulated_grid, merge_groups,
                            neighborhood, path_graph, relabel, vertex_key,
                            verify_contraction, verify_minor_model)


def small_graphs(max_n=8, p=0.4):
    return st.integers(min_value=0, max_value=2 ** 12).map(
        lambda seed: _random_graph(seed, max_n, p))


def _random_graph(seed, max_n, p):
    rng = random.Random(seed)
    n = rng.randint(1, max_n)
    verts = list(range(n))
    return Graph(verts, [(u, v) for u in verts for v in verts
                         if u < v and rng.random() < p])


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
        g = Graph(["a", 1, 2], [(1, 2), ("a", 2)])
        assert Graph.from_json(g.to_json()) == g

    def test_dot_round_trip(self):
        g = Graph([0, 1, "hub"], [(0, 1), (1, "hub")])
        assert Graph.from_dot(g.to_dot()) == g


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
        # string ids too, so that the edges' canonical order is exercised
        for h in (g, relabel(g, {v: f"s{v}" for v in g.vertices if v % 2})):
            verts = h.sorted_vertices()
            for keep in (set(), set(verts), {v for v in verts if rng.random() < 0.5}):
                expected = Graph(keep, [e for e in h.edges
                                        if e[0] in keep and e[1] in keep])
                assert h.induced(keep) == expected

    def test_unknown_vertex(self):
        with pytest.raises(InputError):
            path_graph(3).induced({0, 9})


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
    def test_identity(self):
        g = cycle_graph(5)
        assert verify_contraction(identity_contraction(g))

    def test_triangle_to_edge(self):
        tri = cycle_graph(3)
        edge = Graph([0, 2], [(0, 2)])
        cm = ContractionMap(tri, edge, {0: 0, 1: 0, 2: 2})
        assert verify_contraction(cm)

    def test_disconnected_model_fails(self):
        p3 = path_graph(3)
        img = Graph([0, 1], [(0, 1)])
        cm = ContractionMap(p3, img, {0: 0, 2: 0, 1: 1})
        bad = contraction_violations(cm)
        assert bad and "connected" in bad[0]

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


class TestSeparation:
    def test_valid(self):
        g = path_graph(4)
        assert is_separation(g, Separation({0, 1}, {1, 2, 3}))

    def test_crossing_edge(self):
        g = path_graph(4)
        assert not is_separation(g, Separation({0, 1}, {2, 3}))


class TestGrids:
    def test_two_grid_is_four_cycle(self):
        g = make_grid(2, 2).graph
        assert len(g.vertices) == 4 and len(g.edges) == 4
        assert all(g.degree(v) == 2 for v in g.vertices)

    def test_central_grid_identity(self):
        g5 = make_grid(5, 5)
        assert central_grid(g5, 5).graph == g5.graph

    def test_central_grid_peels(self):
        g5 = make_grid(5, 5)
        c3 = central_grid(g5, 3)
        assert len(c3.graph.vertices) == 9
        assert central_grid(make_grid(7, 7), 3).rows == 3

    def test_parity_violation(self):
        with pytest.raises(InputError):
            central_grid(make_grid(5, 5), 4)

    def test_layer_sizes_up_to_11(self):
        # the i-th layer of a k-grid is the perimeter of the central
        # (k-2(i-1))-grid: 4(k-2(i-1))-4 vertices while that grid has >= 2 side
        for k in range(2, 12):
            grid = make_grid(k, k)
            for i in range(1, k // 2 + 1):
                side = k - 2 * (i - 1)
                if side < 2:
                    break
                assert len(grid_layer(grid, i)) == 4 * side - 4


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


@settings(max_examples=30)
@given(small_graphs())
def test_vertex_key_total_order(g):
    vs = g.sorted_vertices()
    assert sorted(vs, key=vertex_key) == vs
