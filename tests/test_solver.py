import dataclasses
import hashlib
import json
import random
from itertools import combinations
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from graph_helpers import path_graph, planted_star, relabel, verify_minor_model
from planarizer_reference import GADGETS, gadget, hub_graph, pendant_wall

from planmod import solver
from planmod.config import DEFAULTS, PipelineConfig
from planmod.errors import InputError, ResourceLimitError
from planmod.fixtures import (HAS_NEIGHBOR, IS_ISOLATED, TRIVIALLY_TRUE,
                              fixed_sentences, random_instances)
from planmod.graphs import (Graph, complete_graph, disjoint_union, k5_star,
                            make_grid, make_triangulated_grid)
from planmod.logic import (BasicSentence, GaifmanSentence, eval_gaifman,
                           parse_combination, parse_formula)
from planmod.modification import (ModificationSet, Operation,
                                  application_domain, apply, find_vr_planarizer,
                                  is_planarization_irrelevant, minimal_planarizers,
                                  planar_sets, subsets_up_to)
from planmod.planarity import is_planar
from planmod.signatures import area_family, compute_parameters, is_triple
from planmod.solver import (BoundedTreewidth, Instance, IrrelevantRegion,
                            NoInstance, ObligatoryVertex, WallArea, _cannot_host,
                            find_area, find_minor_model, find_vertex,
                            has_k5_star_minor, reduce_instance, solve_oracle,
                            solve_pipeline)
from planmod.treewidth import minfill_decomposition, validate_decomposition
from planmod.walls import center as wall_center
from planmod.walls import compass, make_elementary_wall, perimeter, subdivide_wall

NB = parse_formula("exists y. adj(x,y)")
PHI_NB = GaifmanSentence((BasicSentence(1, 1, NB),), parse_combination("1"))
PHI_ISO = GaifmanSentence((BasicSentence(1, 1, IS_ISOLATED),), parse_combination("1"))


class TestOracle:
    def test_k5_vr(self):
        assert solve_oracle(Instance(complete_graph(5), 1, Operation.VR, TRIVIALLY_TRUE))

    def test_k6_vr(self):
        assert not solve_oracle(Instance(complete_graph(6), 1, Operation.VR,
                                         TRIVIALLY_TRUE))

    def test_k5_er(self):
        assert solve_oracle(Instance(complete_graph(5), 1, Operation.ER, TRIVIALLY_TRUE))

    def test_two_k5_vr(self):
        g = disjoint_union(complete_graph(5), complete_graph(5, offset=10))
        assert not solve_oracle(Instance(g, 1, Operation.VR, TRIVIALLY_TRUE))

    def test_k0_is_direct_check(self):
        g = path_graph(5)
        assert solve_oracle(Instance(g, 0, Operation.VR, PHI_NB)) == \
            eval_gaifman(g, g.vertices, PHI_NB)

    def test_witness_returned(self):
        ok, ms = solve_oracle(Instance(complete_graph(5), 1, Operation.VR,
                                       TRIVIALLY_TRUE), want_witness=True)
        assert ok and len(ms.elements) == 1

    def test_plain_formula(self):
        phi = parse_formula("exists x. exists y. adj(x,y)")
        assert solve_oracle(Instance(complete_graph(5), 1, Operation.VR, phi))


class TestInstance:
    def test_unannotated_sentence_needs_full_scope(self):
        # the pipeline once answered False here while the oracle said True
        isolated = GaifmanSentence(
            (BasicSentence(1, 1, parse_formula("~(exists y. adj(x,y))")),),
            parse_combination("1"), annotated=False)
        g = path_graph(4)
        with pytest.raises(InputError):
            Instance(g, 1, Operation.VR, isolated, frozenset({1}))
        # a full scope, or no scope at all, is still accepted
        Instance(g, 1, Operation.VR, isolated, g.vertices)
        assert solve_pipeline(Instance(g, 1, Operation.VR, isolated)).answer


class TestMinorModels:
    def test_k5_star_in_itself(self):
        g, hub = k5_star(2)
        assert has_k5_star_minor(g, hub, 2)

    def test_absent_in_planar(self):
        assert not has_k5_star_minor(make_grid(3, 3).graph, 0, 1)

    def test_model_verifies(self):
        g, hub = k5_star(1)
        pattern, phub = k5_star(1)
        pattern = Graph({f"p{v}" for v in pattern.vertices},
                        ((f"p{u}", f"p{v}") for u, v in pattern.edges))
        model = find_minor_model(g, pattern, f"p{phub}", hub)
        assert model is not None
        assert verify_minor_model(g, pattern, model, must_intersect=None)

    def test_star_minor_searches_the_pinned_pattern(self, monkeypatch):
        # tests/minor_model_pins.json pins searches for k5_star's own int
        # pattern, so the star-minor search hands it over unrenamed
        seen = []
        search = solver.find_minor_model

        def spy(host, pattern, hub, center, node_budget):
            seen.append((pattern, hub))
            return search(host, pattern, hub, center, node_budget)

        monkeypatch.setattr(solver, "find_minor_model", spy)
        for copies in (1, 3):
            g, hub = k5_star(copies)
            assert has_k5_star_minor(g, hub, copies)
            assert seen.pop() == k5_star(copies)

    def test_star_minor_answer_ignores_pattern_names(self):
        # renaming the pattern's vertices moves the placement order, never
        # the answer, whether or not the budget runs out
        rng = random.Random(4180)
        for trial in range(40):
            copies = 1 + trial % 4
            host, center, pattern, hub = planted_star(rng, copies)
            named = relabel(pattern, {v: f"p{v}" for v in pattern.vertices})
            for budget in (20, 200, 2000):
                renamed = find_minor_model(host, named, f"p{hub}", center, budget)
                assert has_k5_star_minor(host, center, copies, budget) == \
                    (renamed is not None)

    def test_star_minor_through_contraction(self):
        # subdivide one K4 edge: the pattern appears as a minor, not a subgraph
        g, hub = k5_star(2)
        e = (1, 2)
        g = g.remove_edges([e]).add_vertices([99]).add_edges([(1, 99), (99, 2)])
        assert has_k5_star_minor(g, hub, 2)

    def test_planted_models_are_found(self):
        rng = random.Random(20211)
        for trial in range(24):
            copies = 1 + trial % 2
            host, center, pattern, hub = planted_star(rng, copies)
            assert has_k5_star_minor(host, center, copies)
            model = find_minor_model(host, pattern, hub, center)
            assert model is not None and center in model[hub]
            assert verify_minor_model(host, pattern, model)

    def test_absent_on_planar_hosts(self):
        pattern, hub = k5_star(2)
        for g in (make_grid(6, 6).graph, make_triangulated_grid(6)[0]):
            for center in g.sorted_vertices()[::7]:
                assert not has_k5_star_minor(g, center, 1)
                assert not has_k5_star_minor(g, center, 2)
            assert _cannot_host(g, pattern, hub, 0)

    def test_absent_one_edge_short(self):
        pattern, hub = k5_star(2)
        short = pattern.remove_edges([(1, 2)])  # same size, 19 edges
        # 10 vertices, 19 edges, still nonplanar through the intact K5
        spread = pattern.remove_edges([(5, 6), (7, 8)]).add_vertices([9]) \
            .add_edges([(8, 9)])
        for g in (short, spread):
            assert len(g.edges) == len(pattern.edges) - 1 and not is_planar(g)
            assert not has_k5_star_minor(g, hub, 2)
            assert _cannot_host(g, pattern, hub, hub)

    def test_absent_when_same_size_degrees_too_low(self):
        pattern, hub = k5_star(2)
        # K5 on 0-4 beside K4 on 5-8: 20 edges, centre 0 of degree 6 < 8
        low_center = disjoint_union(complete_graph(5), complete_graph(4, offset=5)) \
            .add_edges([(0, 5), (0, 6), (1, 5), (2, 6)])
        # centre of degree 8, but three vertices of degree 2-3 below the
        # pattern's 4: the degree sequence does not dominate
        low_rest = complete_graph(6).add_vertices([6, 7, 8]) \
            .add_edges([(0, v) for v in (6, 7, 8)] + [(6, 7), (7, 8)])
        for g in (low_center, low_rest):
            assert len(g.vertices) == 9 and len(g.edges) >= 20 and not is_planar(g)
            assert not has_k5_star_minor(g, 0, 2)
            assert _cannot_host(g, pattern, hub, 0)
        assert low_rest.degree(0) == 8

    def test_star_beside_large_grid_found_on_small_budget(self):
        star, hub = k5_star(2)
        star = relabel(star, {v: 1000 + v for v in star.vertices})
        g = disjoint_union(make_grid(20, 20).graph, star)
        assert has_k5_star_minor(g, 1000 + hub, 2, node_budget=60)


def _star_beside_grid() -> tuple:
    """(g, hub): k5_star(2), its ids shifted past the 6x8 grid's, with its
    vertex 1 bridged to the grid's corner 0. The grid holds a 3-wall away
    from the hub and its neighbours, and g has no er- or ec-planarizer of
    size 1."""
    grid = make_grid(6, 8).graph
    star, hub = k5_star(2)
    base = max(grid.vertices) + 1
    star = relabel(star, {v: base + v for v in star.vertices})
    return disjoint_union(grid, star).add_edges([(0, base + 1)]), base + hub


class TestFindArea:
    def test_ea_nonplanar_is_no(self):
        # the opening answers a nonplanar G under ea; find_area refuses a
        # nonempty S, and S = ∅ does not planarize K5
        for s in ([0], []):
            with pytest.raises(InputError):
                find_area(1, 3, complete_graph(5), ModificationSet(Operation.VR, s),
                          Operation.EA)

    def test_vr_star_gives_obligatory_hub(self):
        g, hub = k5_star(2)
        out = find_area(1, 3, g, ModificationSet(Operation.VR, [hub]), Operation.VR)
        assert isinstance(out, ObligatoryVertex) and out.vertex == hub

    def test_er_star_gives_no_instance(self):
        # the no-instance step is read off the wall branch, under er and ec:
        # the lone star has no wall and ends in a decomposition, the star
        # beside a grid reaches a wall and finds no planarizer
        for op in (Operation.ER, Operation.EC):
            g, hub = k5_star(2)
            assert isinstance(find_area(1, 3, g, ModificationSet(Operation.VR, [hub]), op),
                              BoundedTreewidth)
            g, hub = _star_beside_grid()
            out = find_area(1, 3, g, ModificationSet(Operation.VR, [hub]), op)
            assert isinstance(out, NoInstance)
            assert out.reason == f"no {op.value}-planarizer of size <= 1"

    def test_ea_grid_gives_wall(self):
        g = make_grid(6, 8).graph
        out = find_area(1, 3, g, ModificationSet(Operation.VR, []), Operation.EA)
        assert isinstance(out, WallArea)
        # the wall's compass has width at most f2 and is irrelevant
        comp = compass(g, out.wall)
        assert minfill_decomposition(comp).width() <= area_family(1, 3)["f2"]
        assert is_planarization_irrelevant(minimal_planarizers(g, Operation.EA, 1),
                                           comp.vertices)

    @staticmethod
    def _width_calls(monkeypatch) -> list:
        calls, real = [], solver.width_witness

        def spy(h, bound):
            calls.append(len(h.vertices))
            return real(h, bound)

        monkeypatch.setattr(solver, "width_witness", spy)
        return calls

    def test_small_compass_is_certified_by_its_size(self, monkeypatch):
        # the 7-wall's compass has 96 vertices, far below f2 + 1
        calls = self._width_calls(monkeypatch)
        cfg = PipelineConfig(q_hat=7, rho_hat=1, d_hat=1)
        g = make_elementary_wall(7).graph
        out = find_area(1, 7, g, ModificationSet(Operation.VR, []), Operation.VR, cfg)
        assert isinstance(out, WallArea)
        assert len(compass(g, out.wall).vertices) == 96
        assert calls == []

    def test_large_compass_gets_a_minfill_witness(self, monkeypatch):
        # a 200-vertex path hung off a centre vertex of the 3-wall joins its
        # compass, which then has more than f2 + 1 = 172 vertices
        wall = make_elementary_wall(3)
        centre = min(wall_center(wall))
        tail = path_graph(200, offset=1000)
        g = disjoint_union(wall.graph, tail).add_edges([(centre, 1000)])
        f2 = area_family(0, 3)["f2"]
        assert len(compass(g, wall).vertices) == 216 > f2 + 1
        calls = self._width_calls(monkeypatch)
        out = find_area(0, 3, g, ModificationSet(Operation.VR, []), Operation.VR)
        assert isinstance(out, WallArea)
        assert calls == [216]

    @pytest.mark.parametrize("op", [Operation.VR, Operation.ER, Operation.EC],
                             ids=lambda op: op.value)
    def test_irrelevance_check_reads_no_subset_cap(self, op):
        # the wall's irrelevance check is an exact branching of depth <= k,
        # so --cap-oracle-subsets, which bounds `planar_sets` alone, leaves
        # it alone. On a planar g it answers with no search, so the host is
        # nonplanar: a 5x5 grid with a K5 hung from vertex 0 by one edge,
        # S = one K5 vertex, and the search branches on a Kuratowski witness
        grid = make_grid(5, 5).graph
        k5 = complete_graph(5, offset=max(grid.vertices) + 1)
        g = Graph(grid.vertices | k5.vertices, grid.edges | k5.edges | {(0, min(k5.vertices))})
        s = ModificationSet(Operation.VR, [min(k5.vertices)])
        cfg = PipelineConfig(cap_wall_nodes=4000, cap_oracle_subsets=1)
        assert isinstance(find_area(1, 3, g, s, op, cfg), WallArea)

    def test_small_graph_gets_decomposition(self):
        out = find_area(1, 3, complete_graph(4).remove_edges([(0, 1)]),
                        ModificationSet(Operation.VR, []), Operation.VR)
        assert isinstance(out, BoundedTreewidth)

    def test_vr_planarizer_required(self):
        with pytest.raises(InputError):
            find_area(1, 3, complete_graph(5),
                      ModificationSet(Operation.ER, [(0, 1)]), Operation.VR)

    @pytest.mark.parametrize("op", [Operation.VR, Operation.ER, Operation.EC])
    def test_set_that_does_not_planarize_raises(self, op):
        # find_area owns the planarity test of G - S
        with pytest.raises(InputError, match="not a vr-planarizer"):
            find_area(1, 3, complete_graph(6), ModificationSet(Operation.VR, [0]), op)


@st.composite
def _small_graphs(draw):
    """Graphs on at most 9 vertices: sparse random ones, and random ones
    with a hub that is either shared by two K5s or joined to every other
    vertex, so that some have an obligatory vertex."""
    shape = draw(st.sampled_from(["sparse", "two-k5", "apex"]))
    n = 9 if shape == "two-k5" else draw(st.integers(5, 9))
    pairs = list(combinations(range(n), 2))
    keep = draw(st.lists(st.integers(0, 3), min_size=len(pairs), max_size=len(pairs)))
    edges = {e for e, k in zip(pairs, keep) if k < (2 if shape == "apex" else 1)}
    hub, *rest = draw(st.permutations(range(n)))
    if shape == "two-k5":
        edges |= {e for quad in (rest[:4], rest[4:]) for e in combinations(sorted([hub] + quad), 2)}
    elif shape == "apex":
        edges |= {(min(hub, v), max(hub, v)) for v in rest}
    return Graph(range(n), edges)


class TestObligatoryVertex:
    # two K4s, each joined to 0 by two edges and to 1 by two, the edge 01
    # and a pendant 10 on 1: 0 is the centre of a (K5, 2)-star minor, yet
    # {1} planarizes, so 0 is not obligatory
    HUB = hub_graph()

    def test_star_centre_that_a_planarizer_avoids_is_not_obligatory(self):
        assert has_k5_star_minor(self.HUB, 0, 2)
        out = find_area(1, 3, self.HUB, ModificationSet(Operation.VR, [0]), Operation.VR)
        assert not isinstance(out, ObligatoryVertex)

    @pytest.mark.parametrize("cross_check", [True, False], ids=["checked", "unchecked"])
    def test_hub_graph_answers_yes(self, cross_check):
        res = solve_pipeline(Instance(self.HUB, 1, Operation.VR, PHI_ISO),
                             PipelineConfig(cross_check=cross_check))
        assert res.answer and res.witness == ModificationSet(Operation.VR, [1])
        assert res.cross_checked == cross_check

    # vertex 5 joined to every vertex of a graph that needs one deletion:
    # at k = 2, S = {2, 5} and 5 alone is obligatory
    APEX = Graph(range(9), [(5, v) for v in range(9) if v != 5] + [
        (0, 3), (0, 4), (0, 7), (0, 8), (1, 2), (1, 6), (1, 7), (1, 8), (2, 3), (2, 4),
        (2, 6), (2, 7), (2, 8), (3, 4), (3, 6), (3, 8), (4, 6), (4, 7), (6, 8)])

    # the claim is the question the cross-check asks: u is obligatory iff
    # no vr-planarizer of size <= k avoids it, and the least such u of S is
    # taken; the star-minor search, which reads a fired budget as absent,
    # takes no part under vr
    @settings(max_examples=150, deadline=None)
    @given(g=_small_graphs(), k=st.sampled_from([1, 2]))
    @example(g=APEX, k=2)
    def test_obligatory_iff_no_planarizer_avoids_it(self, g, k):
        s = find_vr_planarizer(g, k)
        if not s:
            return
        obligatory = [u for u in s.sorted_elements()
                      if next(planar_sets(g, g.vertices - {u}, k, Operation.VR), None) is None]
        calls = []
        with patch.object(solver, "has_k5_star_minor", lambda *args: calls.append(args)):
            out = find_area(k, 3, g, s, Operation.VR)
        assert calls == []
        if obligatory:
            assert isinstance(out, ObligatoryVertex) and out.vertex == obligatory[0]
        else:
            assert not isinstance(out, ObligatoryVertex)

    @pytest.mark.parametrize("phi", [PHI_NB, PHI_ISO], ids=["has-neighbour", "isolated"])
    def test_pendant_k5_wall_makes_no_minor_search(self, monkeypatch, phi):
        # the 7-wall with a K5 hung from vertex 0 by one edge, under vr, er
        # and ec: a star-minor search on it uses up its budget, about 3 s.
        # S is a K5 vertex next to the wall's corner, so the wall's compass
        # is blocked and every run ends in its final search
        calls = []
        for name in ("has_k5_star_minor", "find_minor_model"):
            monkeypatch.setattr(solver, name, lambda *args, name=name: calls.append(name))
        cfg = PipelineConfig(q_hat=7, rho_hat=1, d_hat=1)
        for op in (Operation.VR, Operation.ER, Operation.EC):
            inst = Instance(pendant_wall(7, "k5", "bridge"), 1, op, phi)
            res = solve_pipeline(inst, cfg)
            assert calls == []
            assert res.answer == solve_oracle(inst, cfg) and res.cross_checked
            assert [t.outcome for t in res.trace] == ["bounded-treewidth", "cross-check"]


class TestNoInstance:
    """The er/ec no-instance step: the wall branch lists the minimal
    planarizers once and ends the step when there is none."""

    CFG = PipelineConfig(q_hat=7, rho_hat=1, d_hat=1)

    @pytest.mark.parametrize("cross_check", [True, False], ids=["checked", "unchecked"])
    @pytest.mark.parametrize("op", [Operation.ER, Operation.EC], ids=lambda op: op.value)
    def test_hub_wall_is_no_instance(self, monkeypatch, op, cross_check):
        # the hub graph hung from the 7-wall's corner by its pendant vertex:
        # {1} planarizes, so the run opens, and no one edge removal or
        # contraction does, so its first step is a no-instance
        calls = []
        monkeypatch.setattr(solver, "has_k5_star_minor", lambda *args: calls.append(args))
        inst = Instance(pendant_wall(7, "hub", "bridge"), 1, op, PHI_ISO)
        res = solve_pipeline(inst, dataclasses.replace(self.CFG, cross_check=cross_check))
        assert res.answer is False and res.witness is None
        assert [t.outcome for t in res.trace] == \
            ["no-instance", "cross-check"][:2 if cross_check else 1]
        assert res.trace[0].detail == {"reason": f"no {op.value}-planarizer of size <= 1"}
        assert res.cross_checked == cross_check
        assert calls == []

    def test_no_instance_iff_no_planarizer(self):
        # seeded: the gadgets on walls of height 3-7, and the hub graph
        # bridged from any of its vertices to any wall vertex, under every
        # operation at k = 1, with the default wall-search cap and a small
        # one. A no-instance step means planar_sets finds no planarizer, and
        # a graph with none never gets a wall area, whose irrelevance check
        # would pass over an empty list
        rng = random.Random(33)
        seen = set()
        for _ in range(40):
            height = rng.choice((3, 5, 7))
            if rng.random() < 0.5:
                g = gadget(rng.choice(GADGETS), height)
            else:
                wall = make_elementary_wall(height).graph
                base = max(wall.vertices) + 1
                g = disjoint_union(wall, hub_graph(base)).add_edges(
                    [(rng.choice(wall.sorted_vertices()), base + rng.randrange(11))])
            cfg = PipelineConfig(cap_wall_nodes=rng.choice((1000, DEFAULTS.cap_wall_nodes)))
            for op in Operation:
                s = find_vr_planarizer(g, 0 if op is Operation.EA else 1)
                if s is None:  # the run ends at the opening
                    continue
                out = find_area(1, 3, g, s, op, cfg)
                none = next(planar_sets(g, g.vertices, 1, op), None) is None
                if isinstance(out, NoInstance):
                    assert none, (sorted(g.edges), op)
                assert not (none and isinstance(out, WallArea)), (sorted(g.edges), op)
                seen.add(type(out))
        assert {NoInstance, WallArea, BoundedTreewidth} <= seen


def _wall_instance(height=11, rho=2, phi=PHI_NB, k=1):
    cfg = PipelineConfig(rho_hat=rho, d_hat=2, q_hat=height)
    params = compute_parameters(k, phi, cfg)
    wall = make_elementary_wall(height)
    return cfg, params, wall


class TestFindVertex:
    def test_symmetric_walls_replacement(self):
        cfg, params, wall, = _wall_instance()
        g = wall.graph
        out = find_vertex(1, g, g.vertices, wall, Operation.VR, PHI_NB, params, cfg)
        assert out.vertex in out.region
        # find_vertex only proposes the step; check the equivalence here
        assert is_triple(g, g.vertices, 1, Operation.VR, PHI_NB) == \
            is_triple(g.remove_vertices([out.vertex]),
                      frozenset(g.vertices) - out.region, 1, Operation.VR, PHI_NB)

    def test_early_exit_when_annotation_misses_compass(self):
        cfg, params, wall = _wall_instance()
        g = wall.graph
        r_set = frozenset(perimeter(wall))  # subwall compasses miss R entirely
        out = find_vertex(1, g, r_set, wall, Operation.VR, PHI_NB, params, cfg)
        assert out.vertex in out.region
        assert not (out.region & r_set)

    def test_q_is_not_read(self):
        # only rho, d and r are read, so a rendered tower for q changes nothing
        cfg = PipelineConfig(rho_hat=1, d_hat=1, q_hat=7)
        params = compute_parameters(1, PHI_NB, cfg)
        tower = dataclasses.replace(params, q="2^2^7")
        wall = make_elementary_wall(7)
        g = wall.graph
        assert find_vertex(1, g, g.vertices, wall, Operation.VR, PHI_NB, tower, cfg) \
            == find_vertex(1, g, g.vertices, wall, Operation.VR, PHI_NB, params, cfg)

    def test_asymmetric_annotations_raise(self):
        cfg, params, wall = _wall_instance()
        g = wall.graph
        from planmod.walls import disjoint_subwalls, extended_compass
        subs = disjoint_subwalls(wall, 5)
        assert len(subs) == 4
        # level-structured annotation gaps give four distinct characteristics
        r_set = set(g.vertices)
        for i, sub in enumerate(subs):
            ec = extended_compass(g, sub, 2)
            level1 = ec.level(1)
            if i == 1:
                r_set -= level1.graph.vertices - level1.perimeter
            elif i == 2:
                r_set -= level1.graph.vertices
            elif i == 3:
                r_set -= ec.compass.vertices - set(perimeter(sub))
        with pytest.raises(ResourceLimitError):
            find_vertex(1, g, frozenset(r_set), wall, Operation.VR, PHI_NB,
                        params, cfg)

    def test_replacement_witness_search(self):
        # every solution through wall 1's inner compass has a same-size
        # replacement avoiding it, with identical satisfaction
        cfg, params, wall = _wall_instance()
        g = wall.graph
        r_all = g.vertices
        out = find_vertex(1, g, r_all, wall, Operation.VR, PHI_NB, params, cfg)
        region, r_prime = out.region, frozenset(r_all) - out.region
        domain = application_domain(Operation.VR, g, r_all)
        checked = 0
        for sub in subsets_up_to(sorted(domain), 1):
            ms = ModificationSet(Operation.VR, sub)
            if not (ms.elements & region):
                continue
            h = apply(g, ms)
            if not is_planar(h) or not eval_gaifman(h, r_all & h.vertices, PHI_NB):
                continue
            replacement = None
            for sub2 in subsets_up_to(sorted(r_prime), 1):
                if len(sub2) != len(sub):
                    continue
                ms2 = ModificationSet(Operation.VR, sub2)
                h2 = apply(g, ms2)
                if is_planar(h2) and eval_gaifman(h2, r_prime & h2.vertices, PHI_NB):
                    replacement = ms2
                    break
            assert replacement is not None
            checked += 1
        assert checked > 0


@st.composite
def _memo_walls(draw):
    """An elementary or subdivided 7- or 9-wall with R ⊂ V: each vertex
    leaves R with a drawn probability, and at least one leaves."""
    wall = make_elementary_wall(draw(st.sampled_from([7, 9])))
    rng = random.Random(draw(st.integers(0, 2 ** 16)))
    if draw(st.booleans()):
        wall = subdivide_wall(wall, rng=rng, max_extra=1)
    verts = wall.graph.sorted_vertices()
    p = draw(st.sampled_from([0.02, 0.2, 0.6]))
    drop = {v for v in verts if rng.random() < p} or {rng.choice(verts)}
    return wall, frozenset(verts) - drop


def _served(chars: dict, *args) -> list:
    """find_vertex(*args, chars) with the run memo `chars`: the (tower,
    characteristic) of every lookup it answers from the memo."""
    served = []
    real = solver.char_key

    def key(ec, *rest):
        out = real(ec, *rest)
        if out is not None and out in chars:
            served.append((ec, chars[out]))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "char_key", key)
        try:
            find_vertex(*args, chars)
        except ResourceLimitError:
            pass
    return served


class TestCharacteristicMemo:
    CFG = PipelineConfig(rho_hat=1, d_hat=1, q_hat=7)

    # one memo serves R = V and then R ⊂ V, as it serves a run's steps:
    # every characteristic read from it is the one compute_char gives
    @settings(max_examples=15, deadline=None)
    @pytest.mark.parametrize("op", list(Operation))
    @given(case=_memo_walls(), phi=st.sampled_from([PHI_NB, PHI_ISO]))
    def test_memo_serves_what_compute_char_computes(self, op, case, phi):
        wall, r_set = case
        g = wall.graph
        params = compute_parameters(1, phi, self.CFG)
        chars: dict = {}
        for r in (g.vertices, r_set):
            for ec, char in _served(chars, 1, g, r, wall, op, phi, params, self.CFG):
                assert char == solver.compute_char(ec, r, op, 1, phi, params, self.CFG)

    @pytest.mark.parametrize("op", list(Operation))
    def test_alike_towers_share_one_characteristic(self, op):
        # the 9-wall's towers are cut from alike parts of it, so some are
        # served from the memo within one call
        wall = make_elementary_wall(9)
        params = compute_parameters(1, PHI_NB, self.CFG)
        chars: dict = {}
        served = _served(chars, 1, wall.graph, wall.graph.vertices, wall, op,
                         PHI_NB, params, self.CFG)
        assert served and chars

    def test_checked_run_characterises_few_towers(self, monkeypatch):
        # the checked 9-wall vr "is isolated" run takes five irrelevant-region
        # steps over 20 towers of a few shapes; each shape is characterised
        # once per run (20 compute_char calls without the memo)
        calls = []
        real = solver.compute_char
        monkeypatch.setattr(solver, "compute_char",
                            lambda *args: calls.append(args[0]) or real(*args))
        res = solve_pipeline(Instance(make_elementary_wall(9).graph, 1, Operation.VR,
                                      PHI_ISO), self.CFG)
        assert res.answer is False and res.cross_checked
        assert [t.outcome for t in res.trace].count("irrelevant-region") == 5
        assert len(calls) == 7


class TestStepVerification:
    def test_obligatory_vertex_check_passes_for_hub(self):
        from planmod.solver import _verify_no_planarizer
        g, hub = k5_star(2)
        # must not raise
        _verify_no_planarizer(g, g.vertices - {hub}, 1, Operation.VR, PipelineConfig(),
                              f"obligatory-vertex {hub!r}")

    def test_obligatory_vertex_check_rejects_wrong_vertex(self):
        from planmod.errors import SoundnessError
        from planmod.solver import _verify_no_planarizer
        g = complete_graph(5)  # every singleton planarizes, nothing obligatory
        with pytest.raises(SoundnessError, match="obligatory-vertex 0 cross-check"):
            _verify_no_planarizer(g, g.vertices - {0}, 1, Operation.VR, PipelineConfig(),
                                  "obligatory-vertex 0")

    def test_no_planarizer_check(self):
        from planmod.errors import SoundnessError
        from planmod.solver import _verify_no_planarizer
        g, _ = k5_star(2)
        _verify_no_planarizer(g, g.vertices, 1, Operation.ER, PipelineConfig(), "no-instance")
        with pytest.raises(SoundnessError, match="no-instance cross-check"):
            _verify_no_planarizer(complete_graph(5), frozenset(range(5)), 1, Operation.ER,
                                  PipelineConfig(), "no-instance")


class TestReduceInstance:
    def test_bounded_treewidth_branch(self):
        cfg = PipelineConfig()
        params = compute_parameters(1, PHI_NB, cfg)
        g = complete_graph(4)
        out = reduce_instance(1, g, ModificationSet(Operation.VR, []),
                              g.vertices, Operation.VR, PHI_NB, params, cfg)
        assert isinstance(out, BoundedTreewidth)
        assert validate_decomposition(g, out.decomposition)

    def test_star_no_instance_for_er(self):
        # under ec too; the lone star has no wall to reach
        cfg = PipelineConfig()
        params = compute_parameters(1, PHI_NB, cfg)
        for op in (Operation.ER, Operation.EC):
            g, hub = k5_star(2)
            out = reduce_instance(1, g, ModificationSet(Operation.VR, [hub]), g.vertices,
                                  op, PHI_NB, params, cfg)
            assert isinstance(out, BoundedTreewidth)
            g, hub = _star_beside_grid()
            out = reduce_instance(1, g, ModificationSet(Operation.VR, [hub]), g.vertices,
                                  op, PHI_NB, params, cfg)
            assert isinstance(out, NoInstance)

    def test_precondition_checked(self):
        cfg = PipelineConfig()
        params = compute_parameters(1, PHI_NB, cfg)
        with pytest.raises(InputError):
            reduce_instance(1, complete_graph(5), ModificationSet(Operation.VR, []),
                            complete_graph(5).vertices, Operation.VR, PHI_NB,
                            params, cfg)

    def test_ea_on_nonplanar_graph_is_no_instance(self):
        # the pipeline's opening answers a nonplanar G under ea, so a step
        # on one is handed a set that is not a planarizer
        cfg = PipelineConfig()
        params = compute_parameters(1, PHI_NB, cfg)
        g = complete_graph(5)
        with pytest.raises(InputError, match="not a vr-planarizer"):
            reduce_instance(1, g, ModificationSet(Operation.VR, []), g.vertices,
                            Operation.EA, PHI_NB, params, cfg)

    def test_one_planarity_test_of_g_minus_s_per_step(self, monkeypatch):
        cfg = PipelineConfig(rho_hat=1, d_hat=1, q_hat=7)
        params = compute_parameters(1, PHI_NB, cfg)
        g = make_elementary_wall(9).graph
        tested, real = [], solver.is_planar

        def spy(h):
            tested.append(h)
            return real(h)

        monkeypatch.setattr(solver, "is_planar", spy)
        out = reduce_instance(1, g, ModificationSet(Operation.VR, []), g.vertices,
                              Operation.VR, PHI_NB, params, cfg)
        assert isinstance(out, IrrelevantRegion)
        assert tested.count(g) == 1

    def test_big_wall_instance_yields_irrelevant_region(self):
        # the composed flow: find_area certifies a flat area, find_vertex
        # proposes (X, v), checked here as solve_pipeline would
        cfg = PipelineConfig(rho_hat=1, d_hat=1, q_hat=7)
        params = compute_parameters(1, PHI_NB, cfg)
        wall = make_elementary_wall(7)
        g = wall.graph
        out = reduce_instance(1, g, ModificationSet(Operation.VR, []),
                              g.vertices, Operation.VR, PHI_NB, params, cfg)
        assert isinstance(out, IrrelevantRegion)
        before = is_triple(g, g.vertices, 1, Operation.VR, PHI_NB)
        after = is_triple(g.remove_vertices([out.vertex]),
                          frozenset(g.vertices) - out.region, 1,
                          Operation.VR, PHI_NB)
        assert before == after


# sha256 of `_golden_reports()`. Answers, witnesses and untimed traces are
# deterministic, so a change here is a change of behaviour. After an intended
# one, paste in the new hashlib.sha256(_golden_reports()).hexdigest().
GOLDEN_SHA256 = "de30d25c2d1791c3d4824db35369c8e7a75cc4f67bfdce868eaef981ebd05b30"


def _golden_reports() -> bytes:
    """(answer, witness, untimed trace) of the pipeline on the first 60
    criterion-9 stream instances (cross-check on) and on the 7-wall under vr
    with a YES and a NO sentence (cross-check off), as canonical JSON."""
    runs = [(Instance(g, k, op, phi), PipelineConfig())
            for g, k, op, phi, _ in random_instances(9000, 60)]
    wall_cfg = PipelineConfig(cross_check=False, rho_hat=1, d_hat=1, q_hat=7)
    wall = make_elementary_wall(7).graph
    for psi in (HAS_NEIGHBOR, IS_ISOLATED):
        phi = GaifmanSentence((BasicSentence(1, 1, psi),), parse_combination("1"))
        runs.append((Instance(wall, 1, Operation.VR, phi), wall_cfg))
    rows = []
    for inst, cfg in runs:
        res = solve_pipeline(inst, cfg)
        witness = None if res.witness is None else res.witness.to_json_obj()
        rows.append([res.answer, witness, res.trace_json_obj()])
    return json.dumps(rows, sort_keys=True, separators=(",", ":")).encode()


# sha256 of `_wall_golden_reports()`, pinned like GOLDEN_SHA256
WALL_GOLDEN_SHA256 = "9f955ef358e3e34fe1d78bbab1d09d57d5c7d415a9e4d0134c5a33bdfbf75c00"


def _wall_golden_reports() -> bytes:
    """(answer, witness, untimed trace) of the pipeline on the 9-wall under
    vr with a YES and a NO sentence (cross-check off), as canonical JSON.
    Each run takes 5 irrelevant-region steps, so the pin covers the wall
    search, the compass towers and the characteristics of every step."""
    cfg = PipelineConfig(cross_check=False, rho_hat=1, d_hat=1, q_hat=7)
    wall = make_elementary_wall(9).graph
    rows = []
    for psi in (HAS_NEIGHBOR, IS_ISOLATED):
        phi = GaifmanSentence((BasicSentence(1, 1, psi),), parse_combination("1"))
        res = solve_pipeline(Instance(wall, 1, Operation.VR, phi), cfg)
        witness = None if res.witness is None else res.witness.to_json_obj()
        rows.append([res.answer, witness, res.trace_json_obj()])
    return json.dumps(rows, sort_keys=True, separators=(",", ":")).encode()


class TestSubdividedWall:
    @pytest.mark.parametrize("psi", [HAS_NEIGHBOR, IS_ISOLATED],
                             ids=["has-neighbour", "isolated"])
    def test_checked_run_takes_an_irrelevant_region_step(self, psi):
        # the wall search finds the central 7-wall of a subdivided 9-wall on
        # its degree-2 reduct, so the run shrinks it before the final search
        wall = subdivide_wall(make_elementary_wall(9), rng=random.Random(1), max_extra=1)
        phi = GaifmanSentence((BasicSentence(1, 1, psi),), parse_combination("1"))
        res = solve_pipeline(Instance(wall.graph, 1, Operation.VR, phi),
                             PipelineConfig(rho_hat=1, d_hat=1, q_hat=7))
        outcomes = [t.outcome for t in res.trace]
        assert "irrelevant-region" in outcomes and outcomes[-1] == "cross-check"
        assert res.cross_checked and res.answer == (psi is HAS_NEIGHBOR)


def _scripted(monkeypatch, steps):
    """Make `reduce_instance` propose `steps` first, then reduce as usual;
    count the exhaustive step checks."""
    real_reduce, real_triple = solver.reduce_instance, solver.is_triple
    script, solves = iter(steps), []

    def triple(*args, **kwargs):
        solves.append(args[:2])
        return real_triple(*args, **kwargs)

    monkeypatch.setattr(solver, "reduce_instance",
                        lambda *args: next(script, None) or real_reduce(*args))
    monkeypatch.setattr(solver, "is_triple", triple)
    return solves


class TestPipeline:
    def test_reports_match_pinned_digest(self):
        assert hashlib.sha256(_golden_reports()).hexdigest() == GOLDEN_SHA256

    def test_wall_reports_match_pinned_digest(self):
        assert hashlib.sha256(_wall_golden_reports()).hexdigest() == WALL_GOLDEN_SHA256

    def test_matches_direct_evaluation_at_k0(self):
        g = path_graph(6)
        res = solve_pipeline(Instance(g, 0, Operation.VR, PHI_NB))
        assert res.answer == eval_gaifman(g, g.vertices, PHI_NB)

    def test_k5_plus_grid(self):
        grid = make_grid(3, 3).graph
        shifted = Graph({v + 100 for v in grid.vertices},
                        ((u + 100, v + 100) for u, v in grid.edges))
        g = disjoint_union(complete_graph(5), shifted)
        res = solve_pipeline(Instance(g, 1, Operation.VR, TRIVIALLY_TRUE))
        assert res.answer and res.cross_checked
        assert res.trace[0].outcome in ("bounded-treewidth", "obligatory-vertex",
                                        "irrelevant-region")

    def test_trace_bounded_by_n(self):
        for g, k, op, phi, _ in random_instances(3, 25):
            res = solve_pipeline(Instance(g, k, op, phi))
            reductions = [t for t in res.trace
                          if t.outcome in ("obligatory-vertex", "irrelevant-region")]
            assert len(reductions) <= len(g.vertices)

    def test_plain_formula_rejected(self):
        with pytest.raises(InputError):
            solve_pipeline(Instance(complete_graph(4), 0, Operation.VR,
                                    parse_formula("true")))

    def test_randomized_agreement(self):
        count = done = 0
        for g, k, op, phi, _ in random_instances(99, 80):
            count += 1
            try:
                res = solve_pipeline(Instance(g, k, op, phi))
            except ResourceLimitError:
                continue
            done += 1
            assert res.cross_checked or res.trace[-1].outcome == "cross-check-skipped"
        assert done >= count * 0.9

    def test_skipped_cross_check_is_timed(self):
        # K6 needs two deletions, so the run ends with no search and the
        # closing cross-check asks the oracle, whose cap fires
        res = solve_pipeline(Instance(complete_graph(6), 1, Operation.VR, TRIVIALLY_TRUE),
                             PipelineConfig(cap_oracle_subsets=1))
        assert [t.outcome for t in res.trace] == ["no-planarizer", "cross-check-skipped"]
        assert res.trace[-1].ms > 0
        assert "ms" not in res.trace_json_obj()[-1]

    def test_obligatory_vertex_trace(self):
        # the hub of a (K5, k+1)-star is obligatory: it leaves G and R, and
        # the reported witness holds it again
        sentences = [TRIVIALLY_TRUE] + [phi for _, phi in fixed_sentences()]
        for copies, k in ((2, 1), (3, 1), (3, 2)):
            g, hub = k5_star(copies)
            for phi in sentences:
                inst = Instance(g, k, Operation.VR, phi)
                for cfg in (PipelineConfig(), PipelineConfig(cross_check=False)):
                    res = solve_pipeline(inst, cfg)
                    assert "obligatory-vertex" in [t.outcome for t in res.trace]
                    assert res.answer == solve_oracle(inst, cfg)
                    if res.answer:
                        h = apply(g, res.witness)
                        assert len(res.witness) <= k and hub in res.witness.elements
                        assert is_planar(h) and eval_gaifman(h, h.vertices, phi)

    def test_cap_fired_while_checking_a_step_propagates(self, monkeypatch):
        # a cap that stops the check of an irrelevant-region step raises; the
        # run does not fall back to the decomposition branch
        wall = make_elementary_wall(7).graph
        real = solver.is_triple

        def capped(g, *args, **kwargs):
            if len(g.vertices) < len(wall.vertices):
                raise ResourceLimitError("capped for the test")
            return real(g, *args, **kwargs)

        monkeypatch.setattr(solver, "is_triple", capped)
        with pytest.raises(ResourceLimitError):
            solve_pipeline(Instance(wall, 1, Operation.VR, PHI_NB),
                           PipelineConfig(rho_hat=1, d_hat=1, q_hat=7))

    def test_wall_branch_fallback_is_traced(self, monkeypatch):
        # a cap fired in find_vertex sends the step to the decomposition
        # branch, and the bounded-treewidth step says which cap it was
        def capped(*args):
            raise ResourceLimitError("scripted cap")

        monkeypatch.setattr(solver, "find_vertex", capped)
        wall = make_elementary_wall(7).graph
        res = solve_pipeline(Instance(wall, 1, Operation.VR, PHI_NB),
                             PipelineConfig(rho_hat=1, d_hat=1, q_hat=7))
        assert res.answer and res.cross_checked
        steps = [t for t in res.trace if t.outcome == "bounded-treewidth"]
        assert [t.detail["fallback"] for t in steps] == ["scripted cap"]

    # Two K5s sharing the hub 0, a third K5 on 9-13 and isolated vertices 14
    # and 15: at vr with k=2 the answer is yes, the hub is obligatory, and
    # unannotating the third K5 leaves nothing that can planarize it.
    FLIP_G = disjoint_union(k5_star(2)[0], complete_graph(5, offset=9), Graph([14, 15]))
    SOUND = IrrelevantRegion(frozenset({15}), 15)
    FLIP = IrrelevantRegion(frozenset(range(9, 15)), 14)

    @pytest.mark.parametrize("steps", [
        [FLIP],  # nothing checked yet: "before" is solved
        [SOUND, FLIP],  # "before" is the answer the first step's check found
        [ObligatoryVertex(0, "scripted"), FLIP],  # k drops before the step
    ], ids=["first-step", "chained", "after-obligatory"])
    def test_step_that_flips_the_answer_raises(self, monkeypatch, steps):
        from planmod.errors import SoundnessError
        inst = Instance(self.FLIP_G, 2, Operation.VR, TRIVIALLY_TRUE)
        assert solve_oracle(inst)
        _scripted(monkeypatch, steps)
        with pytest.raises(SoundnessError, match="removing 14 and unannotating 6"):
            solve_pipeline(inst)

    def test_step_checks_solve_each_question_once(self, monkeypatch):
        inst = Instance(self.FLIP_G, 2, Operation.VR, TRIVIALLY_TRUE)
        solves = _scripted(monkeypatch, [self.SOUND, IrrelevantRegion(
            frozenset({14}), 14)])
        res = solve_pipeline(inst)
        assert res.answer and res.cross_checked
        assert [t.outcome for t in res.trace][:2] == ["irrelevant-region"] * 2
        # the input, the two reduced questions, and the final search
        assert [len(g.vertices) for g, _ in solves] == [16, 15, 14, 13]


# -- the closing cross-check reuses the input question's answer ------------------

@st.composite
def _question(draw):
    """(g, R, k, op, phi, cfg) over the whole input space: R ⊂ V with an
    annotated sentence, or R = V with an unannotated one; both size modes."""
    n = draw(st.integers(1, 8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    g = Graph(range(n), [e for e, k in zip(pairs, keep) if k])
    phi = draw(st.sampled_from([TRIVIALLY_TRUE] + [phi for _, phi in fixed_sentences()]))
    if draw(st.booleans()):
        r_set = g.vertices
        phi = GaifmanSentence(phi.basics, phi.combination, False)
    else:
        inside = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        r_set = frozenset(v for v, i in zip(range(n), inside) if i)
    cfg = PipelineConfig(size_mode=draw(st.sampled_from(["at_most", "exact"])))
    return g, r_set, draw(st.integers(0, 2)), draw(st.sampled_from(list(Operation))), phi, cfg


@settings(max_examples=150)
@given(_question())
def test_is_triple_on_the_input_is_the_oracle(question):
    # the identity the reuse rests on: the pipeline's search on the input
    # question gives the oracle's answer and witness
    g, r_set, k, op, phi, cfg = question
    assert is_triple(g, r_set, k, op, phi, cfg, want_witness=True) == \
        solve_oracle(Instance(g, k, op, phi, r_set), cfg, want_witness=True)


class TestOracleCalls:
    """The oracle runs only when no search of the run answered the input
    question."""

    def _count(self, monkeypatch) -> list:
        calls, real = [], solver.solve_oracle

        def spy(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(solver, "solve_oracle", spy)
        return calls

    @pytest.mark.parametrize("inst, outcome, expect", [
        (Instance(path_graph(6), 1, Operation.VR, PHI_NB), "bounded-treewidth", 0),
        (Instance(complete_graph(6), 1, Operation.VR, TRIVIALLY_TRUE), "no-planarizer", 1),
        (Instance(complete_graph(5), 1, Operation.EA, TRIVIALLY_TRUE), "no-planarizer", 1),
    ], ids=["no-step", "no-planarizer", "ea-nonplanar"])
    def test_calls_by_outcome(self, monkeypatch, inst, outcome, expect):
        calls = self._count(monkeypatch)
        res = solve_pipeline(inst)
        assert res.trace[0].outcome == outcome and res.cross_checked
        assert res.trace[-1].outcome == "cross-check"
        assert len(calls) == expect

    @pytest.mark.parametrize("first, expect", [
        (TestPipeline.SOUND, 0),  # step 1's "before" is the input question
        (ObligatoryVertex(0, "scripted"), 1),  # no search asks the input question
    ], ids=["irrelevant-region", "obligatory-vertex"])
    def test_calls_by_first_step(self, monkeypatch, first, expect):
        calls = self._count(monkeypatch)
        _scripted(monkeypatch, [first])
        res = solve_pipeline(Instance(TestPipeline.FLIP_G, 2, Operation.VR,
                                      TRIVIALLY_TRUE))
        assert res.answer and res.cross_checked
        assert len(calls) == expect

    def test_ea_nonplanar_ends_at_the_opening(self, monkeypatch):
        # an edge addition never planarizes K5, so the opening search at
        # budget 0 answers, and no reduction step runs
        steps = []
        monkeypatch.setattr(solver, "reduce_instance",
                            lambda *args: steps.append(args))
        res = solve_pipeline(Instance(complete_graph(5), 1, Operation.EA, TRIVIALLY_TRUE))
        assert [t.outcome for t in res.trace] == ["no-planarizer", "cross-check"]
        assert res.trace[0].detail == {"within": "R"}
        assert not res.answer and res.cross_checked
        assert steps == []

    def test_ea_nonplanar_needs_a_concrete_q(self):
        # the opening alone answers a nonplanar G under ea, after the run
        # has asked for a concrete q
        with pytest.raises(InputError):
            solve_pipeline(Instance(complete_graph(5), 1, Operation.EA, TRIVIALLY_TRUE),
                           PipelineConfig(q_hat=None))

    def test_no_calls_without_cross_check(self, monkeypatch):
        calls = self._count(monkeypatch)
        res = solve_pipeline(Instance(complete_graph(6), 1, Operation.VR,
                                      TRIVIALLY_TRUE),
                             PipelineConfig(cross_check=False))
        assert not res.answer and not res.cross_checked
        assert calls == []
