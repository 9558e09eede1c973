import dataclasses
import json
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planmod.config import PipelineConfig
from planmod.errors import InputError, ResourceLimitError
from planmod.fixtures import crafted_sig_instances
from planmod.graphs import Graph, complete_graph
from planmod.logic import (TRUE, BasicSentence, GaifmanSentence,
                           parse_combination, parse_formula)
from planmod.modification import ModificationSet, Operation
from planmod.signatures import (SigEntry, area_family, compute_char, compute_parameters,
                                compute_sig, is_triple, z_range)
from planmod.sigoracle import char_oracle, sig_oracle
from planmod.walls import Wall, extended_compass, make_elementary_wall

NB = parse_formula("exists y. adj(x,y)")
PHI1 = GaifmanSentence((BasicSentence(1, 1, NB),), parse_combination("1"))
# no desk-scale hat set: the source's parameters
NO_HATS = PipelineConfig(q_hat=None)
PHI2 = GaifmanSentence((BasicSentence(2, 1, NB),), parse_combination("1"))
PHI_TRUE = GaifmanSentence((BasicSentence(1, 1, TRUE),), parse_combination("1 | ~1"))


def relabel_wall(w: Wall, mapping: dict) -> Wall:
    """The same wall with its host vertices renamed through `mapping`."""
    lift = lambda v: mapping.get(v, v)
    graph = Graph((lift(v) for v in w.graph.vertices),
                  ((lift(a), lift(b)) for a, b in w.graph.edges))
    if len(graph.vertices) != len(w.graph.vertices):
        raise InputError("relabeling is not injective")
    coords = {lift(v): p for v, p in w.branch_coords.items()}
    paths = {e: tuple(lift(v) for v in path) for e, path in w.paths.items()}
    return Wall(graph, w.height, coords, paths)


class TestParameters:
    def test_replacement_side_formulas(self):
        phi = GaifmanSentence((BasicSentence(2, 1, NB),), parse_combination("1"))
        p = compute_parameters(1, phi, NO_HATS)
        assert (p.r, p.ell) == (1, 2)
        assert p.d == 2 * (1 + 3 * 1 + 1) == 10
        assert p.rho == 3 * 10 == 30

    def test_w_renders_tower(self):
        phi = GaifmanSentence((BasicSentence(2, 1, NB),), parse_combination("1"))
        p = compute_parameters(1, phi, NO_HATS)
        assert isinstance(p.w, str)
        assert p.w == "2^(30*2*2^120)*15"
        assert isinstance(p.q, str) and p.q.startswith("ceil(61*sqrt(")

    def test_small_w_is_exact(self):
        phi = GaifmanSentence((BasicSentence(1, 1, NB),), parse_combination("1"))
        p = compute_parameters(0, phi, NO_HATS)
        # k=0, ell=1, r=1: d=8, rho=8, inner=16, exponent=8*2^16
        assert p.d == 8 and p.rho == 8
        assert isinstance(p.w, int)
        assert p.w == (2 ** (8 * 2 ** 16)) * 4
        assert isinstance(p.q, int)

    def test_area_family(self):
        fam = area_family(1, 3)
        assert fam["m"] == 9
        assert fam["r_area"] == 2 * (2 * 9 + 3) + 1 == 43
        assert fam["ell_area"] == 4 * 2 - 1 == 7
        assert fam["z_area"] == 9 * 43 + 2
        assert fam["b"] == 2 * 7 + 49 * (9 * 43 + 2)

    def test_configured_overrides(self):
        cfg = PipelineConfig(rho_hat=3, d_hat=2, q_hat=3)
        p = compute_parameters(1, PHI1, cfg)
        assert (p.d, p.rho, p.q) == (2, 3, 3)

    def test_z_range_clamps_with_warning(self):
        cfg = PipelineConfig(rho_hat=3, q_hat=3)  # formula d=8 exceeds rho
        p = compute_parameters(1, PHI1, cfg)
        with warnings.catch_warnings(record=True) as got:
            warnings.simplefilter("always")
            rng = z_range(p)
        assert list(rng) == [3]
        assert got and "clamped" in str(got[0].message)

    @settings(max_examples=60)
    @given(k=st.integers(0, 3),
           shapes=st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)),
                           min_size=1, max_size=3))
    def test_no_hats_never_clamp(self, k, shapes):
        # the formulas give rho = (2k+1)d >= d, so only a hat can invert the range
        phi = GaifmanSentence(tuple(BasicSentence(ell, r, NB) for ell, r in shapes),
                              parse_combination("1"))
        p = compute_parameters(k, phi, NO_HATS)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert z_range(p) == range(p.d, p.rho + 1)


def _setup(height=7, rho=3, d=2, phi=PHI1, k=1, annotate=None):
    cfg = PipelineConfig(rho_hat=rho, d_hat=d, q_hat=3)
    params = compute_parameters(k, phi, cfg)
    wall = make_elementary_wall(height)
    g = wall.graph
    r_set = g.vertices if annotate is None else annotate(g)
    ec = extended_compass(g, wall, rho)
    return cfg, params, wall, g, frozenset(r_set), ec


class TestComputeSig:
    def test_empty_modification_has_all_empty_entries(self):
        cfg, params, wall, g, r_set, ec = _setup()
        sig = compute_sig(ec, r_set, 3, ModificationSet(Operation.VR, []), PHI1, params)
        for t in range(1, 4):
            assert SigEntry((frozenset(),), t) in sig

    def test_empty_annotation_leaves_only_empty_entries(self):
        cfg, params, wall, g, _, ec = _setup()
        sig = compute_sig(ec, frozenset(), 3, ModificationSet(Operation.VR, []),
                          PHI1, params)
        assert sig == frozenset(SigEntry((frozenset(),), t) for t in range(1, 4))

    def test_matches_oracle_on_crafted_wall(self):
        cfg, params, wall, g, r_set, ec = _setup(annotate=lambda g: frozenset(
            v for v in g.vertices if v % 2 == 0))
        s = ModificationSet(Operation.VR, [])
        assert compute_sig(ec, r_set, 3, s, PHI1, params) == \
            sig_oracle(ec, r_set, 3, s, PHI1, params)

    def test_monotone_in_z(self):
        cfg, params, wall, g, r_set, ec = _setup()
        s = ModificationSet(Operation.VR, [])
        sig2 = compute_sig(ec, r_set, 2, s, PHI1, params)
        sig3 = compute_sig(ec, r_set, 3, s, PHI1, params)
        assert sig2 <= sig3
        assert sig2 == frozenset(e for e in sig3 if e.t <= 2)

    def test_precondition_on_affected(self):
        cfg, params, wall, g, r_set, ec = _setup()
        outer = next(iter(set(g.vertices) - ec.level(2).graph.vertices))
        with pytest.raises(InputError):
            compute_sig(ec, r_set, 3, ModificationSet(Operation.VR, [outer]),
                        PHI1, params)

    def test_nontrivial_modification_matches_oracle(self):
        cfg, params, wall, g, r_set, ec = _setup()
        anchor = sorted(ec.level(2).graph.vertices)
        s = ModificationSet(Operation.VR, [anchor[0]])
        assert compute_sig(ec, r_set, 3, s, PHI1, params) == \
            sig_oracle(ec, r_set, 3, s, PHI1, params)


class TestComputeChar:
    def test_s0_rows_for_every_z(self):
        cfg, params, wall, g, r_set, ec = _setup(rho=2, d=2)
        char = compute_char(ec, r_set, Operation.VR, 1, PHI1, params, cfg)
        zs_with_s0 = {z for (z, sig, s) in char.entries if s == 0}
        assert zs_with_s0 == {2}

    def test_empty_annotation_only_s0(self):
        cfg, params, wall, g, _, ec = _setup(rho=2, d=2)
        char = compute_char(ec, frozenset(), Operation.VR, 1, PHI1, params, cfg)
        assert {s for (_, _, s) in char.entries} == {0}

    def test_matches_oracle_all_ops(self):
        cfg, params, wall, g, r_set, ec = _setup(
            rho=2, d=2, annotate=lambda g: frozenset(v for v in g.vertices
                                                     if v % 3 != 0))
        for op in Operation:
            mine = compute_char(ec, r_set, op, 1, PHI1, params, cfg)
            orc = char_oracle(ec, r_set, op, 1, PHI1, params, cfg)
            assert mine.canonical_json() == orc.canonical_json()

    def test_crafted_suite_byte_equality(self):
        for case in crafted_sig_instances()[:8]:
            ec = extended_compass(case["graph"], case["wall"], case["params"].rho)
            assert len(ec.compass.vertices) <= 40
            args = (ec, case["r_set"], case["op"], case["k"], case["phi"],
                    case["params"], case["cfg"])
            mine, orc = compute_char(*args), char_oracle(*args)
            assert mine.canonical_json() == orc.canonical_json()

    def test_oracle_obeys_the_config_caps(self):
        # the local formulas' balls hold 4 vertices, so a cap of 2 must fire
        # in the search and in the oracle alike
        case = crafted_sig_instances()[0]
        cfg = dataclasses.replace(case["cfg"], cap_brute_vertices=2)
        ec = extended_compass(case["graph"], case["wall"], case["params"].rho)
        with pytest.raises(ResourceLimitError, match="capped at 2 vertices"):
            compute_char(ec, case["r_set"], case["op"], case["k"], case["phi"],
                         case["params"], cfg)
        with pytest.raises(ResourceLimitError, match="capped at 2 vertices"):
            char_oracle(ec, case["r_set"], case["op"], case["k"], case["phi"],
                        case["params"], cfg)


class TestEquivalence:
    def test_self(self):
        cfg, params, wall, g, r_set, ec = _setup(rho=2, d=2)
        first, again = (compute_char(ec, r_set, Operation.VR, 1, PHI1, params, cfg)
                        for _ in range(2))
        assert first.canonical_json() == again.canonical_json()

    def test_isomorphic_walls_equivalent(self):
        cfg, params, wall, g, r_set, ec = _setup(rho=2, d=2)
        shift = {v: v + 10_000 for v in g.vertices}
        wall2 = relabel_wall(wall, shift)
        g2 = wall2.graph
        ec2 = extended_compass(g2, wall2, 2)
        char1 = compute_char(ec, r_set, Operation.VR, 1, PHI1, params, cfg)
        char2 = compute_char(ec2, {shift[v] for v in r_set}, Operation.VR,
                             1, PHI1, params, cfg)
        assert char1.canonical_json() == char2.canonical_json()

    def test_center_annotation_differs(self):
        # with ell=2 the two adjacent central vertices can never host a
        # scattered pair, so the witness entries differ from full annotation
        from planmod.walls import analyze_wall
        cfg, params, wall, g, _, ec = _setup(rho=2, d=2, phi=PHI2)
        char_all = compute_char(ec, g.vertices, Operation.VR, 1, PHI2, params, cfg)
        center = set(analyze_wall(wall).center)
        char_center = compute_char(ec, center, Operation.VR, 1, PHI2, params, cfg)
        assert char_all.canonical_json() != char_center.canonical_json()


class TestIsTriple:
    def test_k0_is_planar_and_model(self):
        g = complete_graph(4)
        assert is_triple(g, g.vertices, 0, Operation.VR, PHI_TRUE)
        assert not is_triple(complete_graph(5), range(5), 0, Operation.VR, PHI_TRUE)

    def test_k5_vr_budget_one(self):
        g = complete_graph(5)
        assert is_triple(g, g.vertices, 1, Operation.VR, PHI_TRUE)

    def test_k5_empty_annotation_fails(self):
        g = complete_graph(5)
        assert not is_triple(g, frozenset(), 1, Operation.VR, PHI_TRUE)

    def test_exact_size_mode(self):
        g = complete_graph(4)
        # planar already; exact mode must spend exactly k removals
        exact = PipelineConfig(size_mode="exact")
        assert is_triple(g, g.vertices, 1, Operation.VR, PHI_TRUE, exact)
        phi_iso = GaifmanSentence(
            (BasicSentence(1, 1, parse_formula("~(exists y. adj(x,y))")),),
            parse_combination("1"))
        assert not is_triple(g, g.vertices, 0, Operation.VR, phi_iso, exact)


class TestCanonicalJson:
    def test_sorted_and_stable(self):
        cfg, params, wall, g, r_set, ec = _setup(rho=2, d=2)
        char = compute_char(ec, r_set, Operation.VR, 1, PHI1, params, cfg)
        text = char.canonical_json()
        assert text == char.canonical_json()
        rows = json.loads(text)
        assert rows == sorted(rows, key=lambda row: (row["z"], row["s"],
                                                     json.dumps(row["sig"])))
