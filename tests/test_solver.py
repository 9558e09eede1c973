import hashlib
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from graph_helpers import path_graph, planted_star, relabel

from planmod import solver
from planmod.config import PipelineConfig
from planmod.errors import InputError, ResourceLimitError
from planmod.fixtures import (HAS_NEIGHBOR, IS_ISOLATED, TRIVIALLY_TRUE,
                              fixed_sentences, random_instances)
from planmod.graphs import (Graph, complete_graph, disjoint_union, k5_star,
                            make_grid, make_triangulated_grid, verify_minor_model)
from planmod.logic import (BasicSentence, GaifmanSentence, eval_gaifman,
                           parse_combination, parse_formula)
from planmod.modification import (ModificationSet, Operation,
                                  application_domain, apply, subsets_up_to)
from planmod.planarity import is_planar
from planmod.signatures import compute_parameters, is_triple
from planmod.solver import (BoundedTreewidth, Instance, IrrelevantRegion,
                            NoInstance, ObligatoryVertex, WallArea, _cannot_host,
                            find_area, find_minor_model, find_vertex,
                            has_k5_star_minor, reduce_instance, solve_oracle,
                            solve_pipeline)
from planmod.treewidth import validate_decomposition
from planmod.walls import analyze_wall, make_elementary_wall

NB = parse_formula("exists y. adj(x,y)")
PHI_NB = GaifmanSentence((BasicSentence(1, 1, NB),), parse_combination("1"))


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


class TestFindArea:
    def test_ea_nonplanar_is_no(self):
        out = find_area(1, 3, complete_graph(5),
                        ModificationSet(Operation.VR, [0]), Operation.EA)
        assert isinstance(out, NoInstance)

    def test_vr_star_gives_obligatory_hub(self):
        g, hub = k5_star(2)
        out = find_area(1, 3, g, ModificationSet(Operation.VR, [hub]), Operation.VR)
        assert isinstance(out, ObligatoryVertex) and out.vertex == hub

    def test_er_star_gives_no_instance(self):
        g, hub = k5_star(2)
        out = find_area(1, 3, g, ModificationSet(Operation.VR, [hub]), Operation.ER)
        assert isinstance(out, NoInstance)

    def test_ea_grid_gives_wall(self):
        g = make_grid(6, 8).graph
        out = find_area(1, 3, g, ModificationSet(Operation.VR, []), Operation.EA)
        assert isinstance(out, WallArea)
        assert validate_decomposition(out.compass, out.tw_witness)
        # all four bullet guarantees
        fam_bound = out.tw_witness.width()
        assert fam_bound <= 9 * (2 * (2 * 9 + 3) + 1)
        from planmod.modification import is_planarization_irrelevant
        assert is_planarization_irrelevant(g, Operation.EA, 1, out.compass.vertices)

    def test_fired_irrelevance_cap_raises(self):
        # the wall's irrelevance check must not read a fired cap as "no wall"
        g = make_grid(6, 8).graph
        none = ModificationSet(Operation.VR, [])
        assert isinstance(find_area(1, 3, g, none, Operation.VR), WallArea)
        with pytest.raises(ResourceLimitError):
            find_area(1, 3, g, none, Operation.VR, PipelineConfig(cap_oracle_subsets=1))

    def test_small_graph_gets_decomposition(self):
        out = find_area(1, 3, complete_graph(4).remove_edges([(0, 1)]),
                        ModificationSet(Operation.VR, []), Operation.VR)
        assert isinstance(out, BoundedTreewidth)

    def test_vr_planarizer_required(self):
        with pytest.raises(InputError):
            find_area(1, 3, complete_graph(5),
                      ModificationSet(Operation.ER, [(0, 1)]), Operation.VR)


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
        an = analyze_wall(wall)
        r_set = frozenset(an.perimeter)  # subwall compasses miss R entirely
        out = find_vertex(1, g, r_set, wall, Operation.VR, PHI_NB, params, cfg)
        assert out.vertex in out.region
        assert not (out.region & r_set)

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
                r_set -= ec.compass.vertices - set(analyze_wall(sub).perimeter)
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


class TestStepVerification:
    def test_obligatory_vertex_check_passes_for_hub(self):
        from planmod.solver import _verify_obligatory
        g, hub = k5_star(2)
        _verify_obligatory(g, 1, hub, PipelineConfig())  # must not raise

    def test_obligatory_vertex_check_rejects_wrong_vertex(self):
        from planmod.errors import SoundnessError
        from planmod.solver import _verify_obligatory
        g = complete_graph(5)  # every singleton planarizes, nothing obligatory
        with pytest.raises(SoundnessError):
            _verify_obligatory(g, 1, 0, PipelineConfig())

    def test_no_planarizer_check(self):
        from planmod.errors import SoundnessError
        from planmod.solver import _verify_no_planarizer
        g, _ = k5_star(2)
        _verify_no_planarizer(g, 1, Operation.ER, PipelineConfig())
        with pytest.raises(SoundnessError):
            _verify_no_planarizer(complete_graph(5), 1, Operation.ER,
                                  PipelineConfig())


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
        cfg = PipelineConfig()
        params = compute_parameters(1, PHI_NB, cfg)
        g, hub = k5_star(2)
        out = reduce_instance(1, g, ModificationSet(Operation.VR, [hub]),
                              g.vertices, Operation.ER, PHI_NB, params, cfg)
        assert isinstance(out, NoInstance)

    def test_precondition_checked(self):
        cfg = PipelineConfig()
        params = compute_parameters(1, PHI_NB, cfg)
        with pytest.raises(InputError):
            reduce_instance(1, complete_graph(5), ModificationSet(Operation.VR, []),
                            complete_graph(5).vertices, Operation.VR, PHI_NB,
                            params, cfg)

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
GOLDEN_SHA256 = "3dc027a7ba17e3a5dacf1a399d7a0913b739a69284022cf501d529f053a14433"


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
        assert [len(g.vertices) for g, _ in solves] == [16, 15, 14, 14]


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
        (Instance(complete_graph(5), 1, Operation.EA, TRIVIALLY_TRUE), "no-instance", 1),
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

    def test_no_calls_without_cross_check(self, monkeypatch):
        calls = self._count(monkeypatch)
        res = solve_pipeline(Instance(complete_graph(6), 1, Operation.VR,
                                      TRIVIALLY_TRUE),
                             PipelineConfig(cross_check=False))
        assert not res.answer and not res.cross_checked
        assert calls == []
