import random
from itertools import combinations

import logic_reference as reference
import pytest
from graph_helpers import cycle_graph, distance, path_graph
from hypothesis import given, settings
from hypothesis import strategies as st

from planmod.config import DEFAULTS, PipelineConfig
from planmod.errors import FormulaSyntaxError, InputError, ResourceLimitError
from planmod.graphs import Graph, complete_graph, is_scattered
from planmod.logic import (FALSE, TRUE, Adj, And, Basic, BasicSentence, Eq, Exists,
                           Forall, GaifmanSentence, InR, Not, Or, check_fol,
                           check_local, distance_atom, eval_gaifman,
                           eval_gaifman_expanded, eval_with_env, parse_combination,
                           parse_formula, pretty, relativize, scattered_sets,
                           verify_locality)
from planmod.fixtures import TRIVIALLY_TRUE, fixed_sentences, random_annotated, random_graph


class TestParser:
    def test_closed_with_prefix(self):
        f = parse_formula("exists x. exists y. adj(x,y)")
        assert f.free_variables == frozenset()
        assert isinstance(f, Exists) and isinstance(f.body, Exists)

    def test_free_variables(self):
        f = parse_formula("adj(x,y)")
        assert f.free_variables == {"x", "y"}

    def test_annotated(self):
        f = parse_formula("exists x. (x in R & ~adj(x,x))")
        assert f.free_variables == frozenset()
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

    def test_builds_no_graph(self, monkeypatch):
        # psi is read on g itself, its quantifiers over the ball
        g = path_graph(9)
        built = []
        original = Graph.__init__

        def spy(self, *args, **kwargs):
            built.append(args)
            original(self, *args, **kwargs)

        monkeypatch.setattr(Graph, "__init__", spy)
        psi = parse_formula("exists y. exists z. adj(x,y) & adj(y,z) & ~(x = z)")
        assert check_local(g, frozenset(g.vertices), 4, psi, 2)
        assert not check_local(g, frozenset(), 4, parse_formula("x in R"), 1)
        assert built == []


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
            g = random_graph(rng, rng.randint(2, 8))
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


@st.composite
def psis(draw, scope=("x",), size=4):
    """Formulas free in x at most, of quantifier depth at most 2 (y, then
    z), over adj, =, in R, ~, & and |; local or not."""
    kinds = ["atom"]
    if size:
        kinds += ["~", "&", "|"] + (["exists", "forall"] if len(scope) < 3 else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "atom":
        u, v = draw(st.sampled_from(scope)), draw(st.sampled_from(scope))
        return draw(st.sampled_from((Adj(u, v), Eq(u, v), InR(u))))
    if kind == "~":
        return Not(draw(psis(scope, size - 1)))
    if kind in ("&", "|"):
        left, right = draw(psis(scope, size - 1)), draw(psis(scope, size - 1))
        return And(left, right) if kind == "&" else Or(left, right)
    var = "yz"[len(scope) - 1]
    body = draw(psis(scope + (var,), size - 1))
    return Exists(var, body) if kind == "exists" else Forall(var, body)


@st.composite
def annotated_graphs(draw):
    n = draw(st.integers(1, 6))
    pairs = list(combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    r_set = draw(st.frozensets(st.integers(0, n - 1)))
    return Graph(range(n), [e for e, k in zip(pairs, keep) if k]), r_set


def _one_basic(psi, ell=1, r=1, annotated=True):
    return GaifmanSentence((BasicSentence(ell, r, psi),), parse_combination("1"), annotated)


class TestBallReading:
    """psi is read as psi^(r): by check_local on the ball, and by the
    expansion through `relativize`, so the two agree on every psi."""

    @settings(max_examples=300)
    @given(psis(), annotated_graphs(), st.integers(1, 2), st.integers(1, 2), st.booleans())
    def test_pipeline_equals_expansion(self, psi, graph, r, ell, annotated):
        g, r_set = graph
        phi = _one_basic(psi, ell, r, annotated)
        assert eval_gaifman(g, r_set, phi) == eval_gaifman_expanded(g, r_set, phi)

    @settings(max_examples=150)
    @given(psis(), annotated_graphs(), st.integers(1, 2))
    def test_relativized_equals_check_local(self, psi, graph, r):
        g, r_set = graph
        bounded = relativize(psi, "x", r)
        for v in g.sorted_vertices():
            assert eval_with_env(g, r_set, bounded, {"x": v}) == \
                check_local(g, r_set, v, psi, r)

    # on the path 0-1-2-3, every 1-ball holds x and its neighbours only:
    # read on the whole path both formulas flip
    P4_CASES = [("exists y. ~adj(x,y) & ~(x = y)", False),
                ("forall y. adj(x,y) | x = y", True)]

    @pytest.mark.parametrize("text, holds", P4_CASES)
    def test_non_local_formula_on_p4(self, text, holds):
        g = path_graph(4)
        phi = _one_basic(parse_formula(text), annotated=False)
        assert eval_gaifman(g, g.vertices, phi) is holds
        assert eval_gaifman_expanded(g, g.vertices, phi) is holds
        assert eval_with_env(g, g.vertices, parse_formula("exists x. " + text), {}) is not holds

    @pytest.mark.parametrize("text", ["x in R & (exists x. ~(x in R))",
                                      "(exists x. ~(x in R)) & x in R"])
    def test_bound_names_never_capture_the_centre(self, text):
        # psi rebinds its free variable's name; the bound one must still
        # range over the ball of the free one, and the free one keep its
        # value outside the quantifier
        psi = parse_formula(text)
        g = path_graph(5)
        r_set = frozenset({0, 1, 2})
        for v in g.sorted_vertices():
            assert eval_with_env(g, r_set, relativize(psi, "x", 1), {"x": v}) == \
                check_local(g, r_set, v, psi, 1) == (v == 2)


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
        g = random_graph(rng, rng.randint(1, 10), 0.25)
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


# -- the compiled closures against the tree-walking reference ---------------------

NAMES = ("x", "y", "z")

grammar_formulas = st.recursive(
    st.builds(Adj, st.sampled_from(NAMES), st.sampled_from(NAMES))
    | st.builds(Eq, st.sampled_from(NAMES), st.sampled_from(NAMES))
    | st.builds(InR, st.sampled_from(NAMES)) | st.sampled_from([TRUE, FALSE]),
    # a quantifier may bind any name again, its own free variable's among them
    lambda sub: (st.builds(Not, sub) | st.builds(And, sub, sub) | st.builds(Or, sub, sub)
                 | st.builds(Exists, st.sampled_from(NAMES), sub)
                 | st.builds(Forall, st.sampled_from(NAMES), sub)),
    max_leaves=8)

index_combinations = st.recursive(
    st.integers(1, 4).map(Basic) | st.sampled_from([TRUE, FALSE]),
    lambda sub: st.builds(Not, sub) | st.builds(And, sub, sub) | st.builds(Or, sub, sub),
    max_leaves=8)


def _evaluated(evaluate, *args, **kwargs):
    try:
        return evaluate(*args, **kwargs)
    except (InputError, ResourceLimitError) as exc:
        return type(exc).__name__, str(exc)


class TestCompiledEvaluation:
    """`eval_with_env` runs each node's cached closure; the tree walk it
    replaced answers, and raises, alike."""

    @settings(max_examples=400)
    @given(grammar_formulas, annotated_graphs(), st.data())
    def test_formulas_match_tree_walk(self, f, graph, data):
        g, r_set = graph
        verts = g.sorted_vertices()
        env = data.draw(st.dictionaries(st.sampled_from(NAMES), st.sampled_from(verts)))
        domain = data.draw(st.none() | st.lists(st.sampled_from(verts), unique=True))
        cfg = PipelineConfig(cap_brute_vertices=data.draw(st.integers(1, len(verts) + 1)),
                             cap_quant_depth=data.draw(st.integers(1, 3)))
        assert f.free_variables == reference.free_variables(f)
        assert f.quantifier_depth == reference.quantifier_depth(f)
        assert _evaluated(eval_with_env, g, r_set, f, env, domain=domain, cfg=cfg) == \
            _evaluated(reference.reference_eval_with_env, g, r_set, f, env,
                       domain=domain, cfg=cfg)

    @settings(max_examples=200)
    @given(index_combinations, st.lists(st.booleans(), min_size=4, max_size=4))
    def test_combinations_match_tree_walk(self, c, values):
        # the h-th basic sentence has radius h, so holds() can tell them apart
        basics = tuple(BasicSentence(1, h, TRUE) for h in range(1, 5))
        asked = []
        phi = GaifmanSentence(basics, c)
        got = phi.combine(lambda b: asked.append(b.r) or values[b.r - 1])
        env = {h: values[h - 1] for h in range(1, 5)}
        assert got == reference.reference_eval(c, None, frozenset(), env, [])
        assert asked == sorted(reference.free_variables(c))

    def test_caps_and_unbound_variables_raise_alike(self):
        g = complete_graph(3)
        f = parse_formula("exists y. exists z. adj(x,y) & adj(y,z)")
        for env, cfg in (({}, DEFAULTS), ({"x": 0}, PipelineConfig(cap_brute_vertices=2)),
                         ({"x": 0}, PipelineConfig(cap_quant_depth=1))):
            got = _evaluated(eval_with_env, g, [], f, env, cfg=cfg)
            assert got[0] in ("InputError", "ResourceLimitError")
            assert got == _evaluated(reference.reference_eval_with_env, g, [], f, env, cfg=cfg)

    def test_compiled_once_per_node(self):
        f = parse_formula("exists y. adj(x,y)")
        assert f.compiled is f.compiled and f.body.compiled is f.body.compiled
        assert f.free_variables is f.free_variables
