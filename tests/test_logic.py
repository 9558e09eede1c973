import random
from itertools import combinations

import pytest
from graph_helpers import cycle_graph, distance, path_graph
from hypothesis import given, settings
from hypothesis import strategies as st

from planmod.errors import FormulaSyntaxError, InputError
from planmod.graphs import Graph, complete_graph, is_scattered
from planmod.logic import (FALSE, TRUE, And, Basic, BasicSentence, Exists,
                           GaifmanSentence, InR, Not, Or, check_fol, check_local,
                           distance_atom, eval_gaifman, eval_gaifman_expanded,
                           eval_with_env, parse_combination, parse_formula,
                           pretty, scattered_sets, verify_locality)
from planmod.fixtures import TRIVIALLY_TRUE, fixed_sentences, random_annotated


def _random_graph(rng, n, p=0.4):
    verts = list(range(n))
    return Graph(verts, [(u, v) for u in verts for v in verts
                         if u < v and rng.random() < p])


class TestParser:
    def test_closed_with_prefix(self):
        f = parse_formula("exists x. exists y. adj(x,y)")
        assert f.free_variables() == frozenset()
        assert isinstance(f, Exists) and isinstance(f.body, Exists)

    def test_free_variables(self):
        f = parse_formula("adj(x,y)")
        assert f.free_variables() == {"x", "y"}

    def test_annotated(self):
        f = parse_formula("exists x. (x in R & ~adj(x,x))")
        assert f.free_variables() == frozenset()
        assert "in R" in pretty(f)

    def test_round_trip(self):
        texts = ["exists x. exists y. adj(x,y)",
                 "forall x. (x in R | ~(x = x))",
                 "exists x. adj(x,y) & x = y",
                 "true", "~false"]
        for text in texts:
            f = parse_formula(text)
            assert pretty(parse_formula(pretty(f))) == pretty(f)

    def test_syntax_error_position(self):
        with pytest.raises(FormulaSyntaxError) as err:
            parse_formula("exists x. adj(x,")
        assert err.value.position == 16

    def test_unexpected_character(self):
        with pytest.raises(FormulaSyntaxError):
            parse_formula("exists x. adj(x,y) @")

    def test_error_shows_the_token_as_written(self):
        with pytest.raises(FormulaSyntaxError, match="trailing input 'x'"):
            parse_formula("true x")
        with pytest.raises(FormulaSyntaxError, match=r"expected '\)', found '2'"):
            parse_combination("(1 2)")

    def test_shadowing_rejected(self):
        with pytest.raises(FormulaSyntaxError):
            parse_formula("exists x. exists x. adj(x,x)")

    def test_r_is_not_a_variable(self):
        with pytest.raises(FormulaSyntaxError):
            parse_formula("exists R. R in R")


class TestCheckFol:
    def test_k2_has_edge(self):
        f = parse_formula("exists x. exists y. adj(x,y)")
        assert check_fol(complete_graph(2), [], f)

    def test_edgeless(self):
        f = parse_formula("exists x. exists y. adj(x,y)")
        assert not check_fol(Graph([0, 1]), [], f)

    def test_five_cycle_two_distinct_neighbors(self):
        f = parse_formula("forall x. exists y. exists z. adj(x,y) & adj(x,z) & ~(y=z)")
        assert check_fol(cycle_graph(5), [], f)

    def test_free_variables_rejected(self):
        with pytest.raises(InputError):
            check_fol(complete_graph(2), [], parse_formula("adj(x,y)"))

    def test_annotation_atom(self):
        f = parse_formula("exists x. x in R")
        g = path_graph(3)
        assert check_fol(g, [1], f)
        assert not check_fol(g, [], f)

    def test_caps_enforced(self):
        from planmod.config import PipelineConfig
        from planmod.errors import ResourceLimitError
        f = parse_formula("exists x. exists y. adj(x,y)")
        with pytest.raises(ResourceLimitError):
            check_fol(path_graph(5), [], f, cfg=PipelineConfig(cap_brute_vertices=4))
        with pytest.raises(ResourceLimitError):
            check_fol(path_graph(3), [], f, cfg=PipelineConfig(cap_quant_depth=1))

    def test_caps_come_from_the_config(self):
        # the brute-force caps reach every evaluation through the config, and
        # a capped run leaves no state behind for the next one
        from planmod.config import PipelineConfig
        from planmod.errors import ResourceLimitError
        from planmod.modification import Operation
        from planmod.solver import Instance, solve_oracle, solve_pipeline
        phi = dict(fixed_sentences())["annotated-neighbor"]
        inst = Instance(path_graph(4), 1, Operation.VR, phi)
        capped = PipelineConfig(cap_brute_vertices=1)
        for solve in (solve_pipeline, solve_oracle):
            with pytest.raises(ResourceLimitError, match="capped at 1 vertices"):
                solve(inst, capped)
        assert solve_oracle(inst, PipelineConfig())
        assert solve_pipeline(inst, PipelineConfig()).answer
        deep = Instance(complete_graph(3), 0, Operation.VR,
                        dict(fixed_sentences())["triangle-vertex"])
        with pytest.raises(ResourceLimitError, match="depth 2 exceeds the cap 1"):
            solve_oracle(deep, PipelineConfig(cap_quant_depth=1))
        assert solve_oracle(deep, PipelineConfig())


class TestCheckLocal:
    def test_neighbor_exists(self):
        psi = parse_formula("exists y. adj(x,y)")
        assert check_local(complete_graph(2), [], 0, psi, 1)

    def test_isolated(self):
        psi = parse_formula("exists y. adj(x,y)")
        assert not check_local(Graph([0]), [], 0, psi, 1)

    def test_degree_two_matches_global(self):
        psi = parse_formula("exists a. exists b. adj(x,a) & adj(x,b) & ~(a = b) & "
                            "(forall z. ~(adj(x,z) & ~(z = a) & ~(z = b)))")
        g = path_graph(9)
        local = check_local(g, [], 4, psi, 1)
        full = eval_with_env(g, [], psi, {"x": 4})
        assert local and full

    def test_too_many_free_variables(self):
        with pytest.raises(InputError):
            check_local(path_graph(2), [], 0, parse_formula("adj(x,y)"), 1)


class TestVerifyLocality:
    def test_one_local(self):
        psi = parse_formula("exists y. adj(x,y)")
        rng = random.Random(1)
        corpus = [random_annotated(rng, 6) for _ in range(20)]
        assert verify_locality(corpus, psi, 1)

    def test_nonlocal_exposed(self):
        # "some other vertex exists" is not 1-local: an isolated vertex in a
        # two-vertex edgeless graph sees nothing within distance 1
        psi = parse_formula("exists y. ~(x=y)")
        corpus = [(path_graph(5), frozenset(range(5))),
                  (Graph([0, 1]), frozenset([0, 1]))]
        assert not verify_locality(corpus, psi, 1)

    def test_empty_corpus_vacuous(self):
        assert verify_locality([], parse_formula("exists y. adj(x,y)"), 1)


class TestDistanceAtom:
    def test_zero_is_equality(self):
        d0 = distance_atom(0)
        g = path_graph(2)
        assert eval_with_env(g, [], d0, {"x": 0, "y": 0})
        assert not eval_with_env(g, [], d0, {"x": 0, "y": 1})

    def test_one_on_k2(self):
        assert eval_with_env(complete_graph(2), [], distance_atom(1), {"x": 0, "y": 1})

    def test_two_on_paths(self):
        d2 = distance_atom(2)
        assert not eval_with_env(path_graph(4), [], d2, {"x": 0, "y": 3})
        assert eval_with_env(path_graph(3), [], d2, {"x": 0, "y": 2})

    def test_agrees_with_bfs_on_random_graphs(self):
        rng = random.Random(5)
        checked = 0
        for _ in range(200):
            g = _random_graph(rng, rng.randint(2, 8))
            atoms = {r: distance_atom(r) for r in range(4)}
            verts = g.sorted_vertices()
            u, v = rng.choice(verts), rng.choice(verts)
            for r, atom in atoms.items():
                want = distance(g, u, v) <= r
                assert eval_with_env(g, [], atom, {"x": u, "y": v}) == want
                checked += 1
        assert checked == 800


class TestGaifman:
    def test_single_basic_on_k2(self):
        phi = GaifmanSentence((BasicSentence(1, 1, parse_formula("exists y. adj(x,y)")),),
                              parse_combination("1"))
        g = complete_graph(2)
        assert eval_gaifman(g, g.vertices, phi)

    def test_two_far_needs_diameter(self):
        phi = GaifmanSentence((BasicSentence(2, 1, TRUE),), parse_combination("1"))
        assert not eval_gaifman(path_graph(3), range(3), phi)
        assert eval_gaifman(path_graph(7), range(7), phi)

    def test_unannotated_ignores_r(self):
        phi = GaifmanSentence((BasicSentence(1, 1, parse_formula("exists y. adj(x,y)")),),
                              parse_combination("1"), annotated=False)
        assert eval_gaifman(path_graph(2), frozenset(), phi)

    def test_single_ell_one_equals_fol(self):
        # eval_gaifman of one basic with ell=1 matches "exists x. x in R & psi"
        psi = parse_formula("exists y. adj(x,y)")
        phi = GaifmanSentence((BasicSentence(1, 1, psi),), parse_combination("1"))
        fol = Exists("x", And(InR("x"), psi))
        rng = random.Random(9)
        for _ in range(120):
            g, r_set = random_annotated(rng, 8)
            assert eval_gaifman(g, r_set, phi) == check_fol(g, r_set, fol)

    def test_monotone_in_r(self):
        psi = parse_formula("exists y. adj(x,y)")
        rng = random.Random(3)
        for _ in range(80):
            g, r1 = random_annotated(rng, 7)
            r2 = r1 | frozenset(v for v in g.vertices if rng.random() < 0.4)
            phi = GaifmanSentence((BasicSentence(rng.randint(1, 2), 1, psi),),
                                  parse_combination("1"))
            if eval_gaifman(g, r1, phi):
                assert eval_gaifman(g, r2, phi)

    def test_expanded_agreement_sample(self):
        rng = random.Random(17)
        sentences = fixed_sentences()
        for i in range(40):
            g, r_set = random_annotated(rng, 6)
            _, phi = sentences[i % len(sentences)]
            assert eval_gaifman(g, r_set, phi) == eval_gaifman_expanded(g, r_set, phi)

    def test_bad_combination_index(self):
        with pytest.raises(InputError):
            GaifmanSentence((BasicSentence(1, 1, TRUE),), parse_combination("2"))

    def test_json_round_trip(self):
        import json
        for _, phi in fixed_sentences():
            again = GaifmanSentence.from_json_obj(json.loads(json.dumps(phi.to_json_obj())))
            assert again.to_json_obj() == phi.to_json_obj()


class TestCombination:
    combinations = st.recursive(
        st.integers(1, 12).map(Basic) | st.sampled_from([TRUE, FALSE]),
        lambda sub: (st.builds(Not, sub) | st.builds(And, sub, sub)
                     | st.builds(Or, sub, sub)),
        max_leaves=12)

    @settings(max_examples=200)
    @given(combinations)
    def test_round_trip(self, c):
        assert parse_combination(pretty(c)) == c

    def test_same_ast_as_formulas(self):
        assert parse_combination("1 & ~(2 | true)") == And(Basic(1), Not(Or(Basic(2), TRUE)))
        # "&" and "|" read left to right with no precedence
        assert parse_combination("1 | 2 & 3") == And(Or(Basic(1), Basic(2)), Basic(3))

    def test_pinned_json_text(self):
        texts = [phi.to_json_obj()["combination"] for _, phi in fixed_sentences()]
        assert texts == ["1", "1", "(1 & ~2)", "1", "(1 | 2)"]
        assert TRIVIALLY_TRUE.to_json_obj()["combination"] == "(1 | ~1)"

    @pytest.mark.parametrize("text", ["1", "adj(x,y) & 2"])
    def test_formula_rejects_indices(self, text):
        with pytest.raises(FormulaSyntaxError):
            parse_formula(text)

    @pytest.mark.parametrize("text", ["exists x. 1", "x = y", "adj(x,y)", "1 &", "(1"])
    def test_combination_rejects_formula_syntax(self, text):
        with pytest.raises(FormulaSyntaxError):
            parse_combination(text)


class TestScatteredSets:
    @settings(max_examples=80)
    @given(st.integers(0, 2 ** 12), st.integers(0, 2), st.integers(1, 4))
    def test_against_combinations(self, seed, r, ell):
        rng = random.Random(seed)
        g = _random_graph(rng, rng.randint(1, 10), p=0.25)
        candidates = [v for v in g.sorted_vertices() if rng.random() < 0.7]
        rng.shuffle(candidates)
        found = list(scattered_sets(g, candidates, r, ell))
        # every scattered tuple of at most ell candidates, each once
        assert sorted(found) == sorted(
            xs for size in range(ell + 1) for xs in combinations(candidates, size)
            if is_scattered(g, xs, size, r))
        assert next((xs for xs in found if len(xs) == ell), None) == next(
            (xs for xs in combinations(candidates, ell) if is_scattered(g, xs, ell, r)),
            None)
