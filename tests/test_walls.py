import random
import sys
from itertools import islice

import pytest
from graph_helpers import path_graph
from hypothesis import given, settings
from hypothesis import strategies as st
from layer_reference import peeled_structure
from wall_reference import find_wall_subdivisions as reference_search
from wall_oracle import (derive_central_subwall, derive_layers,
                         derive_wall_annulus)

from planmod import walls
from planmod.config import PipelineConfig
from planmod.errors import InputError, ResourceLimitError
from planmod.fixtures import HAS_NEIGHBOR, TRIVIALLY_TRUE
from planmod.graphs import Graph, complete_graph, make_grid, norm_edge, smooth_degree_two
from planmod.logic import BasicSentence, GaifmanSentence, parse_combination
from planmod.modification import ModificationSet, Operation
from planmod.planarity import embed
from planmod.signatures import area_family
from planmod.solver import (BoundedTreewidth, Instance, WallArea, find_area,
                            solve_pipeline)
from planmod.treewidth import validate_decomposition
from planmod.walls import (_layer_cycles, _may_contain_wall, _wall_pattern, center,
                           central_subwall, compass, disjoint_subwalls,
                           elementary_positions, extended_compass,
                           layers, make_elementary_wall,
                           perimeter, subdivide_wall, subwall_at, validate_wall,
                           wall_annulus, wall_candidates, wall_violations, WallSearch)


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
            sizes = sorted(len(f) for f in embed(w.graph))
            assert sizes[-1] > 6  # outer face
            assert all(s == 6 for s in sizes[:-1])

    def test_perimeter_single_cycle(self):
        for r in (3, 5, 7):
            w = make_elementary_wall(r)
            perim = perimeter(w)
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
            assert len(layers(w)) == (r - 1) // 2

    def test_eleven_wall_has_five_layers(self):
        assert len(layers(make_elementary_wall(11))) == 5

    def test_three_wall_layer_is_perimeter(self):
        w = make_elementary_wall(3)
        assert layers(w) == (perimeter(w),)
        assert len(center(w)) == 2

    def test_layers_are_disjoint_cycles(self):
        w = make_elementary_wall(9)
        seen = set()
        for cyc in layers(w):
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
            produced = layers(w)
            for mine, theirs in zip(produced, derived):
                assert set(mine) == set(theirs)

    @pytest.mark.parametrize("r", range(3, 23, 2))
    def test_structure_matches_peeled_embedding(self, r):
        # the layer cycles read off coordinates are the peeled outer faces
        # up to rotation and reflection, each from its least position toward
        # the lesser neighbour; the centre, the central subwalls' positions
        # and the bricks inside every annulus are equal
        peeled_layers, peeled_center, local_maps, bricks = peeled_structure(r)
        built = _layer_cycles(r)
        assert len(built) == len(peeled_layers) == (r - 1) // 2
        for mine, theirs in zip(built, peeled_layers):
            i = theirs.index(mine[0])
            turned = theirs[i:] + theirs[:i]
            assert mine in (turned, turned[:1] + turned[:0:-1])
            assert mine[0] == min(mine) and mine[1] < mine[-1]
        w = make_elementary_wall(r)
        pos = w.branch_coords  # every vertex of an elementary wall
        assert tuple(pos[v] for v in center(w)) == peeled_center
        for i, local in enumerate(local_maps):
            sub = central_subwall(w, r - 2 * i)
            assert {pos[v]: p for v, p in sub.branch_coords.items()} == local
        for p in range(3, (r - 1) // 2 + 1):
            for ell in range(3, p + 1):
                ann = wall_annulus(w, p, ell)
                inside = {pos[v] for v in ann.graph.vertices}
                assert [frozenset(pos[v] for v in cyc) for cyc in ann.bricks] == \
                    [b for b in bricks if b <= inside]

    def test_subdivided_wall_layers(self):
        w = subdivide_wall(make_elementary_wall(7), rng=random.Random(1))
        assert len(layers(w)) == 3
        assert len(center(w)) == 2
        assert validate_wall(w)


# elementary walls of height 3..13 and their subdivisions, by max_extra
STRUCTURE_WALLS = [(h, extra) for h in range(3, 14, 2) for extra in (None, 1, 2)]


class TestStructureFormulas:
    """Perimeter, layers and centre agree with the central subwalls whose
    perimeters and centre they are."""

    @pytest.mark.parametrize("h,extra", STRUCTURE_WALLS,
                             ids=[f"h{h}-{extra}" for h, extra in STRUCTURE_WALLS])
    def test_layers_are_central_subwall_perimeters(self, h, extra):
        w = make_elementary_wall(h)
        if extra is not None:
            w = subdivide_wall(w, rng=random.Random(h), max_extra=extra)
        cycles = layers(w)
        assert len(cycles) == (h - 1) // 2
        assert perimeter(w) == cycles[0]
        for i, cycle in enumerate(cycles):
            assert set(cycle) == set(perimeter(central_subwall(w, h - 2 * i)))
        for q in range(3, h + 1, 2):
            assert set(center(central_subwall(w, q))) == set(center(w))


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
        assert set(center(sub)) == set(center(w))

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
        for mine, theirs in zip(layers(sub), layers(w)[2:]):
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
        host_layers = layers(w)
        rho = len(host_layers)
        ann = wall_annulus(w, 5, 3)
        # counted from the center the annulus spans layers p-ell+1 .. p
        assert set(ann.outer_cycle) == set(host_layers[rho - 5])
        assert set(ann.inner_cycle) == set(host_layers[rho - 5 + 3 - 1])

    def test_annuli_at_stride_are_disjoint(self):
        w = make_elementary_wall(13)
        d = 3
        rho = len(layers(w))
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
        inner = min(w.graph.vertices - set(perimeter(w)))
        g = w.graph.add_vertices([900]).add_edges([(inner, 900)])
        assert 900 in compass(g, w).vertices

    def test_far_triangle_excluded(self):
        w = make_elementary_wall(5)
        g = w.graph.add_vertices([900, 901, 902]).add_edges(
            [(900, 901), (901, 902), (900, 902)])
        assert 900 not in compass(g, w).vertices

    def test_compass_connected_and_contains_wall(self):
        w = make_elementary_wall(5)
        inner = min(w.graph.vertices - set(perimeter(w)))
        g = w.graph.add_vertices([900]).add_edges([(inner, 900)])
        K = compass(g, w)
        assert w.graph.is_subgraph_of(K) and K.is_connected()

    def test_compass_is_the_interior_component(self):
        # a pendant path off the perimeter and a far component stay out; a
        # pendant off the interior comes in
        w = make_elementary_wall(7)
        perim = perimeter(w)
        inner = min(w.graph.vertices - set(perim))
        g = w.graph.add_vertices([900, 901, 902]).add_edges(
            [(perim[0], 900), (inner, 901), (901, 902)])
        assert compass(g, w).vertices == w.graph.vertices | {901, 902}

    def test_compass_splices_only_the_perimeter(self, monkeypatch):
        spliced = []
        splice = walls._splice
        monkeypatch.setattr(walls, "_splice",
                            lambda w, cycle: spliced.append(cycle) or splice(w, cycle))
        w = make_elementary_wall(11)
        compass(w.graph, w)
        assert len(spliced) == 1

    def test_extended_compass_splices_each_perimeter_once(self, monkeypatch):
        spliced = []
        real = walls.perimeter
        monkeypatch.setattr(walls, "perimeter",
                            lambda w: spliced.append(w.height) or real(w))
        w = make_elementary_wall(11)
        ec = extended_compass(w.graph, w, 5)
        assert sorted(spliced) == [3, 5, 7, 9, 11]
        monkeypatch.undo()
        for t, level in enumerate(ec.tower, 1):
            sub = central_subwall(w, 2 * t + 1)
            assert level.graph == compass(w.graph, sub)
            assert level.perimeter == frozenset(perimeter(sub))

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


def _certified(g, wall) -> bool:
    """The wall's compass has width at most f2: one bag holds it."""
    return len(compass(g, wall).vertices) - 1 <= area_family(1, 3)["f2"]


class TestFindWall:
    def test_grid_contains_wall(self):
        g = make_grid(6, 8).graph
        out = _find_wall(g)
        assert isinstance(out, WallArea) and validate_wall(out.wall)
        assert out.wall.graph.is_subgraph_of(g)
        assert _certified(g, out.wall)

    def test_tree_gets_decomposition(self):
        out = _find_wall(path_graph(25))
        assert isinstance(out, BoundedTreewidth) and out.decomposition.width() == 1
        assert validate_decomposition(path_graph(25), out.decomposition)

    def test_k4_too_small(self):
        out = _find_wall(complete_graph(4))
        assert isinstance(out, BoundedTreewidth) and out.decomposition.width() == 3

    @pytest.mark.parametrize("q", range(3, 22, 2))
    def test_may_contain_wall_needs_every_branch_position(self, q):
        # moving one edge end from a degree-3 vertex to a new vertex keeps
        # the vertex and edge counts of W_q but leaves one branch vertex short
        g = make_elementary_wall(q).graph
        assert _may_contain_wall(g, q)
        u, v = next((u, v) for u, v in g.sorted_edges()
                    if {g.degree(u), g.degree(v)} == {2, 3})
        u, v = (u, v) if g.degree(u) == 3 else (v, u)
        short = g.remove_edges([(u, v)]).add_vertices([-1]).add_edges([(v, -1)])
        assert len(short.edges) == len(g.edges)
        assert not _may_contain_wall(short, q)

    def test_subdivided_host(self):
        host = subdivide_wall(make_elementary_wall(3), rng=random.Random(5),
                              max_extra=1)
        out = _find_wall(host.graph)
        assert isinstance(out, WallArea) and validate_wall(out.wall)
        assert _certified(host.graph, out.wall)


@st.composite
def wall_hosts(draw):
    """Elementary walls with random vertices removed, subdivided walls and
    grids."""
    kind = draw(st.sampled_from(("cut", "subdivided", "grid")))
    if kind == "cut":
        g = make_elementary_wall(draw(st.sampled_from((5, 7, 9)))).graph
        return g.remove_vertices(draw(st.lists(st.sampled_from(sorted(g.vertices)),
                                               max_size=4)))
    if kind == "subdivided":
        wall = make_elementary_wall(draw(st.sampled_from((3, 5, 7))))
        return subdivide_wall(wall, rng=random.Random(draw(st.integers(0, 2 ** 16))),
                              max_extra=draw(st.integers(0, 3))).graph
    return make_grid(draw(st.integers(3, 9)), draw(st.integers(3, 12))).graph


def _outcome(walls) -> tuple:
    """Each wall's coordinates and paths in insertion order, and whether the
    budget fired."""
    out = []
    try:
        for w in walls:
            out.append((w.height, list(w.branch_coords.items()), list(w.paths.items())))
    except ResourceLimitError:
        return out, True
    return out, False


# (h, q): the q-walls inside a subdivided h-wall, and whole subdivided walls
INNER_AND_WHOLE = [(h, q) for h in (5, 7, 9, 11) for q in range(3, min(h - 2, 7) + 1, 2)] \
    + [(5, 5), (7, 7)]


class TestWallSearch:
    @settings(max_examples=40, deadline=None)
    @given(g=wall_hosts(), q=st.sampled_from((3, 5, 7)),
           budget=st.integers(0, 30).map(lambda i: round(50 * 1000 ** (i / 30))))
    def test_kernel_is_the_direct_edge_reference(self, g, q, budget):
        assert _outcome(WallSearch().walls(g, q, budget)) == \
            _outcome(reference_search(g, q, node_budget=budget))

    @pytest.mark.parametrize("h,q", INNER_AND_WHOLE,
                             ids=[f"h{h}-q{q}" for h, q in INNER_AND_WHOLE])
    @settings(max_examples=6, deadline=None)
    @given(extra=st.integers(0, 3), seed=st.integers(0, 2 ** 16))
    def test_subdivided_walls_yield_a_q_wall(self, h, q, extra, seed):
        g = subdivide_wall(make_elementary_wall(h), rng=random.Random(seed),
                           max_extra=extra).graph
        wall = next(wall_candidates(g, q), None)
        assert wall is not None and wall.height == q
        assert validate_wall(wall) and wall.graph.is_subgraph_of(g)

    @settings(max_examples=40, deadline=None)
    @given(g=wall_hosts(), q=st.sampled_from((3, 5, 7)))
    def test_every_candidate_is_a_new_wall_of_the_host(self, g, q):
        seen = set()
        for wall in islice(wall_candidates(g, q, node_budget=8000), 40):
            assert wall.height == q and validate_wall(wall), wall_violations(wall)
            assert wall.graph.is_subgraph_of(g)
            assert wall.graph.vertices not in seen
            seen.add(wall.graph.vertices)

    @pytest.mark.parametrize("q", [3, 5, 7, 9, 11])
    def test_skeleton_is_simple_and_cubic(self, q):
        g = make_elementary_wall(q).graph
        r, _ = smooth_degree_two(g)
        assert all(r.degree(v) == 3 for v in r.vertices)
        assert r.vertices == {v for v in g.vertices if g.degree(v) == 3}

    @pytest.mark.parametrize("h", [5, 7, 9])
    def test_subdivided_wall_reduct_is_the_stretched_skeleton(self, h):
        # the reduct's edges join the branch vertices of a skeleton edge,
        # through at least as many inner vertices as the pattern path
        pattern, pattern_paths = smooth_degree_two(make_elementary_wall(h).graph)
        w = subdivide_wall(make_elementary_wall(h), rng=random.Random(h), max_extra=3)
        r, paths = smooth_degree_two(w.graph)
        assert r.vertices == pattern.vertices
        assert r.edges == pattern.edges
        assert all(len(paths[e]) >= len(pattern_paths[e]) for e in r.edges)

    @pytest.mark.parametrize("h", [5, 7, 9, 11])
    def test_central_subwall_survives_smoothing_as_direct_edges(self, h):
        w = subdivide_wall(make_elementary_wall(h), rng=random.Random(h), max_extra=3)
        _, paths = smooth_degree_two(w.graph)
        for path in central_subwall(w, h - 2).paths.values():
            e = norm_edge(path[0], path[-1])
            assert paths[e] in (path, path[::-1])


class TestWallSearchBudget:
    """The wall search's passes share `cap_wall_nodes`, a quarter each, with
    no floor of their own."""

    def test_a_tiny_budget_finds_no_wall(self):
        g = make_elementary_wall(7).graph
        assert next(wall_candidates(g, 7, node_budget=4), None) is None
        assert next(wall_candidates(g, 7, node_budget=8000), None) is not None

    def test_a_tiny_cap_leaves_the_wall_branch(self):
        phi = GaifmanSentence((BasicSentence(1, 1, HAS_NEIGHBOR),), parse_combination("1"))
        inst = Instance(make_elementary_wall(7).graph, 1, Operation.VR, phi)
        hats = dict(q_hat=7, rho_hat=1, d_hat=1)
        res = solve_pipeline(inst, PipelineConfig(cap_wall_nodes=4, **hats))
        assert [t.outcome for t in res.trace] == ["bounded-treewidth", "cross-check"]
        assert res.answer and res.cross_checked
        res = solve_pipeline(inst, PipelineConfig(cap_wall_nodes=8000, **hats))
        assert "irrelevant-region" in [t.outcome for t in res.trace]


@st.composite
def subdivided_hosts(draw):
    """Subdivided 9- and 11-walls with at most one vertex per edge, where
    the direct-edge search exhausts without finding the whole wall."""
    wall = make_elementary_wall(draw(st.sampled_from((9, 11))))
    return subdivide_wall(wall, rng=random.Random(draw(st.integers(0, 2 ** 16))),
                          max_extra=1).graph


class TestWallSearchResume:
    """`WallSearch` resumes pass 1 across deletions: at each step its walls
    are the reference's walls on that step's graph, in the same order,
    unless the reference fires its budget first."""

    @settings(max_examples=80, deadline=None)
    @given(g=st.one_of(wall_hosts(), subdivided_hosts()), q=st.sampled_from((3, 3, 5)),
           data=st.data())
    def test_resumed_walls_are_the_reference_walls(self, g, q, data):
        search = WallSearch()
        for _ in range(data.draw(st.integers(1, 6), label="steps")):
            budget = data.draw(st.sampled_from((300, 10 ** 4, 10 ** 5, 10 ** 5)),
                               label="budget")
            got, accepted, fired = [], None, False
            try:
                for wall in search.walls(g, q, budget):
                    got.append(wall)
                    # the consumer rejects a random subset of the walls
                    if len(got) == 30 or data.draw(st.booleans(), label="accept"):
                        accepted = wall
                        break
            except ResourceLimitError:
                fired = True
            # a fresh search asked for as many walls, or one more when the
            # resumed one ran out or fired
            want = len(got) + (accepted is None)
            ref, ref_fired = _outcome(islice(reference_search(g, q, node_budget=budget), want))
            assert _outcome(got)[0][:len(ref)] == ref
            assert ref_fired or len(ref) == len(got)
            assert ref_fired or not fired
            drop = data.draw(st.lists(st.sampled_from(sorted(g.vertices)), max_size=2),
                             label="drop")
            if accepted is not None:
                drop.append(data.draw(st.sampled_from(sorted(accepted.graph.vertices)),
                                      label="drop from the accepted wall"))
            g = g.remove_vertices(drop)
            if not g.vertices:
                return

    @pytest.fixture
    def starts(self, monkeypatch) -> list:
        """The host of every `_embeddings` start."""
        real, hosts = walls._embeddings, []

        def spy(*args):
            hosts.append(args[1])
            return real(*args)

        monkeypatch.setattr(walls, "_embeddings", spy)
        return hosts

    @staticmethod
    def _first(search, g, q, budget):
        wall = next(search.walls(g, q, budget))
        assert _outcome([wall]) == _outcome(islice(reference_search(g, q), 1))
        return wall

    def test_a_fired_budget_starts_fresh(self, starts):
        g = make_elementary_wall(7).graph
        search = WallSearch()
        with pytest.raises(ResourceLimitError):
            next(search.walls(g, 5, 4))
        wall = self._first(search, g, 5, 8000)
        g1 = g.remove_vertices([wall.branch_at[(1, 1)]])
        wall = self._first(search, g1, 5, 8000)
        # the resumed step gets the budget it is given, and fires
        g2 = g1.remove_vertices([wall.branch_at[(1, 1)]])
        with pytest.raises(ResourceLimitError):
            list(search.walls(g2, 5, 4))
        self._first(search, g2, 5, 8000)
        assert starts == [g, g, g2]

    @pytest.mark.parametrize("place", [0, 1, 8, -1], ids=["root", "second", "ninth", "last"])
    def test_the_search_backs_up_past_a_deleted_vertex(self, starts, place):
        # deleting the image of one placement of the last wall undoes that
        # placement and every later one; in a grid, many 3-walls share the
        # first wall's early placements
        g = make_grid(5, 8).graph
        search = WallSearch()
        wall = self._first(search, g, 3, 8000)
        smaller = g.remove_vertices([wall.branch_at[_wall_pattern(3, False).order[place]]])
        got = list(islice(search.walls(smaller, 3, 8000), 5))
        assert _outcome(got) == _outcome(islice(reference_search(smaller, 3), 5))
        assert starts == [g]

    def test_another_graph_or_q_starts_fresh(self, starts):
        g = make_elementary_wall(7).graph
        search = WallSearch()
        wall = self._first(search, g, 5, 8000)
        chord = g.remove_vertices([wall.branch_at[(1, 1)]]).add_edges([(20, 40)])
        self._first(search, chord, 5, 8000)
        self._first(search, chord, 3, 8000)
        assert starts == [g, chord, chord]


class TestWallSearchDepth:
    """The production search leaves the interpreter's recursion limit
    alone."""

    def test_wall_candidates_leaves_the_recursion_limit(self):
        old = sys.getrecursionlimit()
        assert next(wall_candidates(make_elementary_wall(7).graph, 5), None) is not None
        assert sys.getrecursionlimit() == old


def _path_union(w) -> Graph:
    """The vertices and consecutive pairs of a wall's paths."""
    paths = w.paths.values()
    return Graph({v for path in paths for v in path},
                 (norm_edge(a, b) for path in paths for a, b in zip(path, path[1:])))


@st.composite
def whole_walls(draw):
    """Elementary walls of odd height 3 to 11, each maybe subdivided."""
    w = make_elementary_wall(draw(st.sampled_from((3, 5, 7, 9, 11))))
    if draw(st.booleans()):
        w = subdivide_wall(w, rng=random.Random(draw(st.integers(0, 2 ** 16))),
                           max_extra=draw(st.integers(0, 3)))
    return w


class TestWallIsItsPaths:
    """A wall's graph is derived from its paths, and equals the graph each
    builder used to construct beside them."""

    @pytest.mark.parametrize("h", [3, 5, 7, 9, 11])
    def test_elementary_wall_is_the_position_graph(self, h):
        w = make_elementary_wall(h)
        at = {p: v for v, p in w.branch_coords.items()}
        verts, edges = elementary_positions(h)
        assert w.graph == Graph((at[p] for p in verts), ((at[a], at[b]) for a, b in edges))
        assert w.graph == _path_union(w)

    @settings(max_examples=30, deadline=None)
    @given(w=whole_walls())
    def test_subwall_graph_is_induced_in_its_parent(self, w):
        # a subwall window has an even coordinate offset, so every parent
        # edge between two of its positions is one of its pattern edges
        assert w.graph == _path_union(w)
        for q in range(3, w.height + 1, 2):
            for sub in [central_subwall(w, q), *disjoint_subwalls(w, q)]:
                assert validate_wall(sub), wall_violations(sub)
                verts = set().union(*sub.paths.values())
                assert sub.graph == _path_union(sub) == w.graph.induced(verts)

    @pytest.mark.parametrize("q", [3, 5, 7, 9])
    def test_found_walls_are_their_paths(self, q):
        g = subdivide_wall(make_elementary_wall(9), rng=random.Random(9),
                           max_extra=2).graph
        found = list(islice(wall_candidates(g, q), 20))
        assert found
        for wall in found:
            assert validate_wall(wall) and wall.graph.is_subgraph_of(g)
            assert wall.graph == _path_union(wall)


class TestWallPatternSize:
    """W_q is sized by its closed forms, and the search has no pattern-size
    cap of its own."""

    @pytest.mark.parametrize("q", range(3, 40, 2))
    def test_closed_forms(self, q):
        verts, edges = elementary_positions(q)
        assert len(verts) == 2 * q * q - 2
        assert len(edges) == 3 * q * q - 2 * q - 2
        assert sum(1 for d in _wall_pattern(q, False).degree if d >= 3) == 2 * q * q - 4 * q

    def test_a_huge_q_builds_no_pattern(self, monkeypatch):
        def guard(real):
            def call(q, *args):
                if q > 1_000:
                    raise AssertionError(f"built a pattern of height {q}")
                return real(q, *args)
            return call
        monkeypatch.setattr(walls, "elementary_positions", guard(elementary_positions))
        monkeypatch.setattr(walls, "_wall_pattern", guard(_wall_pattern))
        g = make_elementary_wall(7).graph
        assert not _may_contain_wall(g, 1_000_001)
        res = solve_pipeline(Instance(g, 1, Operation.VR, TRIVIALLY_TRUE),
                             PipelineConfig(q_hat=1_000_001))
        assert res.answer and res.cross_checked

    def test_nine_walls_are_found(self):
        # W_9 has 160 positions, past the 120 the search once capped silently
        g = make_elementary_wall(11).graph
        found = list(wall_candidates(g, 9))
        assert len(found) == 10
        assert all(validate_wall(w) and w.graph.is_subgraph_of(g) for w in found)

    def test_nine_walls_reach_the_irrelevant_region_branch(self):
        res = solve_pipeline(
            Instance(make_elementary_wall(11).graph, 1, Operation.VR,
                     GaifmanSentence((BasicSentence(1, 1, HAS_NEIGHBOR),),
                                     parse_combination("1"))),
            PipelineConfig(q_hat=9, rho_hat=1, d_hat=1))
        outcomes = [t.outcome for t in res.trace]
        assert "irrelevant-region" in outcomes and outcomes[-1] == "cross-check"
        assert res.answer and res.cross_checked

    def test_q_is_checked_before_any_step(self):
        # with no hats at k = 0 the formula's q is even and has 262 150
        # bits, too long to print
        with pytest.raises(InputError, match="odd q >= 3"):
            solve_pipeline(Instance(make_elementary_wall(3).graph, 0, Operation.VR,
                                    TRIVIALLY_TRUE), PipelineConfig(q_hat=None))
