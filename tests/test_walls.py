import inspect
import random
import sys

import pytest
from graph_helpers import path_graph
from wall_oracle import (derive_central_subwall, derive_layers,
                         derive_wall_annulus)

from planmod.errors import InputError, ResourceLimitError
from planmod.graphs import complete_graph, make_grid
from planmod.modification import ModificationSet, Operation
from planmod.planarity import embed
from planmod.solver import BoundedTreewidth, WallArea, find_area
from planmod.treewidth import validate_decomposition
from planmod.walls import (analyze_wall, central_subwall, compass,
                           disjoint_subwalls,
                           extended_compass, find_wall_subdivisions,
                           layer_count, make_elementary_wall, subdivide_wall,
                           subwall_at, validate_wall, wall_annulus,
                           wall_candidates, wall_violations)


def coord_adjacency(wall):
    pos = wall.branch_coords
    return ({v: set(wall.graph.adj[v]) for v in wall.graph.vertices},
            dict(pos))


class TestElementaryWall:
    def test_vertex_count_matches_construction(self):
        # brute-force construction count, fixed before the build: 2r^2 - 2
        for r in (3, 5, 7, 9):
            w = make_elementary_wall(r)
            assert len(w.graph.vertices) == 2 * r * r - 2

    def test_all_finite_faces_hexagonal(self):
        for r in (3, 5):
            w = make_elementary_wall(r)
            emb = embed(w.graph)
            sizes = sorted(len(f) for f in emb.faces)
            assert sizes[-1] > 6  # outer face
            assert all(s == 6 for s in sizes[:-1])

    def test_perimeter_single_cycle(self):
        for r in (3, 5, 7):
            w = make_elementary_wall(r)
            perim = analyze_wall(w).perimeter
            assert len(perim) == len(set(perim))
            assert all(w.graph.has_edge(a, b)
                       for a, b in zip(perim, perim[1:] + perim[:1]))

    def test_parity_rejected(self):
        with pytest.raises(InputError):
            make_elementary_wall(4)
        with pytest.raises(InputError):
            make_elementary_wall(1)

    def test_structure_validates(self):
        for r in (3, 5, 7):
            assert validate_wall(make_elementary_wall(r))


class TestLayers:
    def test_layer_counts(self):
        for r in (3, 5, 7, 9, 11, 13):
            w = make_elementary_wall(r)
            assert len(analyze_wall(w).layers) == (r - 1) // 2

    def test_eleven_wall_has_five_layers(self):
        assert len(analyze_wall(make_elementary_wall(11)).layers) == 5

    def test_three_wall_layer_is_perimeter(self):
        w = make_elementary_wall(3)
        an = analyze_wall(w)
        assert an.layers == (an.perimeter,)
        assert len(an.center) == 2

    def test_layers_are_disjoint_cycles(self):
        w = make_elementary_wall(9)
        an = analyze_wall(w)
        seen = set()
        for cyc in an.layers:
            assert len(cyc) == len(set(cyc))
            assert not (set(cyc) & seen)
            seen |= set(cyc)
            assert all(w.graph.has_edge(a, b)
                       for a, b in zip(cyc, cyc[1:] + cyc[:1]))

    def test_layers_match_definitional_derivation(self):
        for r in (3, 5, 7, 9, 11, 13):
            w = make_elementary_wall(r)
            adj, pos = coord_adjacency(w)
            derived = derive_layers(adj, pos, (r - 1) // 2)
            produced = analyze_wall(w).layers
            for mine, theirs in zip(produced, derived):
                assert set(mine) == set(theirs)

    def test_subdivided_wall_layers(self):
        w = subdivide_wall(make_elementary_wall(7), rng=random.Random(1))
        an = analyze_wall(w)
        assert len(an.layers) == 3
        assert len(an.center) == 2
        assert validate_wall(w)


class TestCentralSubwall:
    def test_identity(self):
        w = make_elementary_wall(7)
        assert central_subwall(w, 7) is w

    def test_height(self):
        w = make_elementary_wall(9)
        assert central_subwall(w, 5).height == 5

    def test_shares_center(self):
        w = make_elementary_wall(9)
        sub = central_subwall(w, 5)
        assert set(analyze_wall(sub).center) == set(analyze_wall(w).center)

    def test_thirteen_wall_fig_subwall_vertex_for_vertex(self):
        w = make_elementary_wall(13)
        adj, pos = coord_adjacency(w)
        for q in (11, 9, 7, 5, 3):
            sub = central_subwall(w, q)
            assert validate_wall(sub)
            want = derive_central_subwall(adj, pos, 13, q)
            assert sub.graph.vertices == want

    def test_last_layers(self):
        w = make_elementary_wall(9)
        sub = central_subwall(w, 5)
        host_layers = analyze_wall(w).layers
        sub_layers = analyze_wall(sub).layers
        for mine, theirs in zip(sub_layers, host_layers[2:]):
            assert set(mine) == set(theirs)

    def test_parity_guard(self):
        with pytest.raises(InputError):
            central_subwall(make_elementary_wall(9), 4)


class TestWallAnnulus:
    def test_figure_case_vertex_for_vertex(self):
        w = make_elementary_wall(13)
        adj, pos = coord_adjacency(w)
        ann = wall_annulus(w, 5, 3)
        assert ann.graph.vertices == derive_wall_annulus(adj, pos, 13, 5, 3)

    def test_extremal_cycles_are_wall_layers(self):
        w = make_elementary_wall(13)
        layers = analyze_wall(w).layers
        rho = layer_count(w)
        ann = wall_annulus(w, 5, 3)
        # counted from the center the annulus spans layers p-ell+1 .. p
        assert set(ann.outer_cycle) == set(layers[rho - 5])
        assert set(ann.inner_cycle) == set(layers[rho - 5 + 3 - 1])

    def test_annuli_at_stride_are_disjoint(self):
        w = make_elementary_wall(13)
        d = 3
        rho = layer_count(w)
        spans = [wall_annulus(w, i * d, d).graph.vertices
                 for i in (1, 2) if i * d <= rho and i * d >= 3]
        assert len(spans) == 2
        assert not (spans[0] & spans[1])

    def test_range_guards(self):
        w = make_elementary_wall(13)
        with pytest.raises(InputError):
            wall_annulus(w, 2, 3)
        with pytest.raises(InputError):
            wall_annulus(make_elementary_wall(5), 3, 3)


class TestCompass:
    def test_bare_wall(self):
        w = make_elementary_wall(5)
        assert compass(w.graph, w) == w.graph

    def test_pendant_included(self):
        w = make_elementary_wall(5)
        inner = min(w.graph.vertices - set(analyze_wall(w).perimeter))
        g = w.graph.add_vertices([900]).add_edges([(inner, 900)])
        assert 900 in compass(g, w).vertices

    def test_far_triangle_excluded(self):
        w = make_elementary_wall(5)
        g = w.graph.add_vertices([900, 901, 902]).add_edges(
            [(900, 901), (901, 902), (900, 902)])
        assert 900 not in compass(g, w).vertices

    def test_compass_connected_and_contains_wall(self):
        w = make_elementary_wall(5)
        inner = min(w.graph.vertices - set(analyze_wall(w).perimeter))
        g = w.graph.add_vertices([900]).add_edges([(inner, 900)])
        K = compass(g, w)
        assert w.graph.is_subgraph_of(K) and K.is_connected()

    def test_extended_compass_nesting(self):
        w = make_elementary_wall(9)
        ec = extended_compass(w.graph, w, 4)
        for lo, hi in zip(ec.tower, ec.tower[1:]):
            assert lo.graph.vertices < hi.graph.vertices
        assert ec.tower[-1].graph.vertices <= ec.compass.vertices


class TestSubwalls:
    def test_disjoint_subwalls_are_valid(self):
        w = make_elementary_wall(11)
        subs = disjoint_subwalls(w, 5)
        assert len(subs) >= 2
        seen = set()
        for sub in subs:
            assert validate_wall(sub), wall_violations(sub)
            assert not (sub.graph.vertices & seen)
            seen |= sub.graph.vertices

    def test_subwall_at_parity_guard(self):
        w = make_elementary_wall(9)
        with pytest.raises(InputError):
            subwall_at(w, 1, 0, 3)


def _find_wall(g):
    """The area finder on a planar g with the empty vr planarizer, k=1, q=3."""
    return find_area(1, 3, g, ModificationSet(Operation.VR, []), Operation.VR)


class TestFindWall:
    def test_grid_contains_wall(self):
        g = make_grid(6, 8).graph
        out = _find_wall(g)
        assert isinstance(out, WallArea) and validate_wall(out.wall)
        assert out.wall.graph.is_subgraph_of(g)
        assert validate_decomposition(out.compass, out.tw_witness)

    def test_tree_gets_decomposition(self):
        out = _find_wall(path_graph(25))
        assert isinstance(out, BoundedTreewidth) and out.decomposition.width() == 1
        assert validate_decomposition(path_graph(25), out.decomposition)

    def test_k4_too_small(self):
        out = _find_wall(complete_graph(4))
        assert isinstance(out, BoundedTreewidth) and out.decomposition.width() == 3

    def test_subdivided_host(self):
        host = subdivide_wall(make_elementary_wall(3), rng=random.Random(5),
                              max_extra=1)
        out = _find_wall(host.graph)
        assert isinstance(out, WallArea) and validate_wall(out.wall)
        assert validate_decomposition(out.compass, out.tw_witness)


class TestWallSearchDepth:
    """The wall search nests one generator per placed pattern vertex and
    routed edge, however long the paths, and leaves the interpreter's
    recursion limit alone."""

    def test_q7_search_runs_to_its_budget_under_the_default_limit(self):
        g = make_elementary_wall(9).graph.remove_vertices([5])
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            with pytest.raises(ResourceLimitError):
                for _ in find_wall_subdivisions(g, 7, max_path=12):
                    pass
        finally:
            sys.setrecursionlimit(old)

    def test_long_paths_do_not_deepen_the_search(self):
        # one 5-wall whose paths hold up to 10 subdivision vertices: a
        # frame per path vertex would need several hundred more levels
        g = subdivide_wall(make_elementary_wall(5), rng=random.Random(1),
                           max_extra=10).graph
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack()) + 200)
        try:
            wall = next(find_wall_subdivisions(g, 5, max_path=12))
        finally:
            sys.setrecursionlimit(old)
        assert validate_wall(wall) and max(map(len, wall.paths.values())) > 8

    def test_wall_candidates_leaves_the_recursion_limit(self):
        old = sys.getrecursionlimit()
        assert next(wall_candidates(make_elementary_wall(7).graph, 5), None) is not None
        assert sys.getrecursionlimit() == old
