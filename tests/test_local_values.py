"""Reusing local-formula values across the sets of one enumeration.

Each ψ_h is r-local, so on G ⊠ S it can differ from its value on G only at
vertices within distance r of affected(S). The property below checks that
lemma for each operation; the differential tests compare the searches with
reference loops that evaluate every vertex of every planar modified graph."""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planmod import logic
from planmod.config import PipelineConfig
from planmod.errors import ResourceLimitError
from planmod.fixtures import HAS_NEIGHBOR, fixed_sentences, random_instances
from planmod.graphs import Graph, complete_graph, neighborhood
from planmod.logic import GaifmanSentence, check_local
from planmod.modification import ModificationSet, Operation, affected, application_domain, apply
from planmod.signatures import is_triple
from planmod.solver import Instance, solve_oracle
from planmod.walls import make_elementary_wall
from logic_reference import reference_basic_witness
from test_planar_sets import ISOLATED, _contraction_set, _reference_search

LOCAL_FORMULAS = sorted({b.psi for _, phi in fixed_sentences() for b in phi.basics},
                        key=str)


def _modification(draw, g: Graph, op: Operation) -> ModificationSet:
    if op is Operation.EC:
        elements = draw(_contraction_set(g))
    else:
        domain = sorted(application_domain(op, g, g.vertices))
        elements = draw(st.permutations(domain))[:draw(st.integers(0, 4))]
    return ModificationSet(op, elements)


@st.composite
def _annotated_graph(draw):
    n = draw(st.integers(1, 9))
    pairs = list(combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    g = Graph(range(n), [e for e, k in zip(pairs, keep) if k])
    return g, frozenset(v for v in range(n) if draw(st.booleans()))


@st.composite
def _modified(draw, op: Operation):
    g, r_set = draw(_annotated_graph())
    return g, r_set, _modification(draw, g, op), draw(st.sampled_from((1, 2)))


@pytest.mark.parametrize("op", list(Operation), ids=lambda op: op.value)
@settings(max_examples=120)
@given(data=st.data())
def test_far_vertices_keep_their_local_values(op, data):
    g, r_set, s, r = data.draw(_modified(op))
    h = apply(g, s)
    near = set()
    for a in affected(s):
        near |= neighborhood(g, a, r)
    for v in sorted(h.vertices - near):
        for psi in LOCAL_FORMULAS:
            assert check_local(g, r_set, v, psi, r) == \
                check_local(h, r_set & h.vertices, v, psi, r), (v, str(psi))


@pytest.mark.parametrize("op", list(Operation), ids=lambda op: op.value)
@settings(max_examples=150)
@given(data=st.data())
def test_witness_with_base_is_the_witness_without(op, data):
    # one index serves several sets in turn, as in one enumeration; each
    # set's witness, or the message it raises, is the one found by
    # evaluating every vertex of g ⊠ S
    g, r_set = data.draw(_annotated_graph())
    basic = logic.BasicSentence(data.draw(st.sampled_from((1, 2))),
                                data.draw(st.sampled_from((1, 2))),
                                data.draw(st.sampled_from(LOCAL_FORMULAS)))
    annotated = data.draw(st.booleans())
    phi = GaifmanSentence((basic,), logic.parse_combination("1"), annotated)
    cfg = PipelineConfig(cap_brute_vertices=data.draw(st.sampled_from((1, 2, 3, 128))))
    base = logic.LocalValues(g, r_set, phi, cfg=cfg)
    for _ in range(data.draw(st.integers(1, 3))):
        s = _modification(data.draw, g, op)
        h = apply(g, s)
        r_here = phi.scope(h, r_set & h.vertices)
        assert _outcome(logic.basic_witness, h, r_here, basic, cfg=cfg, base=base,
                        touched=affected(s)) == \
            _outcome(reference_basic_witness, h, r_here, basic, cfg=cfg), (s, str(basic.psi))


# -- against reference loops that evaluate every vertex of every planar set --------

def _outcome(search, *args, **kwargs):
    try:
        return search(*args, **kwargs)
    except ResourceLimitError as exc:
        return "raised", str(exc)


def _cases():
    rng = random.Random(2024)
    for i, (g, k, op, phi, name) in enumerate(random_instances(5150, 48)):
        label = f"{i}-{name}-{op.value}-k{k}"
        yield label, g, g.vertices, k, op, phi
        scope = frozenset(v for v in g.vertices if rng.random() < 0.6)
        yield label + "-R", g, scope, k, op, phi
    # K6 stays nonplanar after one removal, so no set is ever evaluated
    k6 = complete_graph(6)
    for op in (Operation.VR, Operation.ER, Operation.EC):
        yield f"k6-{op.value}", k6, k6.vertices, 1, op, ISOLATED


CASES = list(_cases())


@pytest.mark.parametrize("cap", [2, 3, 128])
@pytest.mark.parametrize("size_mode", ["at_most", "exact"])
def test_is_triple_matches_reference(size_mode, cap):
    for label, g, scope, k, op, phi in CASES:
        annotated = GaifmanSentence(phi.basics, phi.combination, True)
        expect = _outcome(_reference_search, g, scope, k, op, annotated, size_mode, cap)
        cfg = PipelineConfig(size_mode=size_mode, cap_brute_vertices=cap)
        assert _outcome(is_triple, g, scope, k, op, phi, cfg,
                        want_witness=True) == expect, label
        plain = _outcome(is_triple, g, scope, k, op, phi, cfg)
        assert plain == (expect if expect[0] == "raised" else expect[0]), label


@pytest.mark.parametrize("cap", [2, 3, 128])
@pytest.mark.parametrize("size_mode", ["at_most", "exact"])
def test_solve_oracle_matches_reference(size_mode, cap):
    cfg = PipelineConfig(size_mode=size_mode, cap_brute_vertices=cap)
    for label, g, scope, k, op, phi in CASES:
        sentences = [phi]
        if scope == g.vertices:
            sentences.append(GaifmanSentence(phi.basics, phi.combination, False))
        for sentence in sentences:
            expect = _outcome(_reference_search, g, scope, k, op, sentence, size_mode, cap)
            got = _outcome(solve_oracle, Instance(g, k, op, sentence, scope), cfg,
                           want_witness=True)
            assert got == expect, (label, sentence.annotated)


def test_nonplanar_sets_are_never_evaluated():
    g = complete_graph(6)
    for op in (Operation.VR, Operation.ER, Operation.EC):
        assert is_triple(g, g.vertices, 1, op, ISOLATED,
                         PipelineConfig(cap_brute_vertices=2),
                         want_witness=True) == (False, None)


def test_wall_evaluates_only_near_the_removed_vertex(monkeypatch):
    # every vertex once on G, then for each removed v only its neighbours
    calls = []
    original = logic.check_local

    def spy(*args, **kwargs):
        calls.append(args[2])
        return original(*args, **kwargs)

    monkeypatch.setattr(logic, "check_local", spy)
    g = make_elementary_wall(7).graph
    assert not is_triple(g, g.vertices, 1, Operation.VR, ISOLATED)
    bound = len(g.vertices) + sum(len(neighborhood(g, v, 1) - {v}) for v in g.vertices)
    assert len(calls) <= bound


def test_witness_search_with_base_sorts_nothing(monkeypatch):
    # every g ⊠ S keeps a subset of G's ids, so basic_witness walks G's
    # order, sorted once per LocalValues, and never sorts g ⊠ S again
    g = make_elementary_wall(5).graph
    basic = logic.BasicSentence(2, 1, HAS_NEIGHBOR)
    phi = GaifmanSentence((basic,), logic.parse_combination("1"))
    cases = []
    for op, elements in ((Operation.VR, [0]), (Operation.VR, [7, 20]),
                         (Operation.EC, [sorted(g.edges)[3]]),
                         (Operation.ER, sorted(g.edges)[:2])):
        s = ModificationSet(op, elements)
        h = apply(g, s)
        cases.append((h, affected(s), reference_basic_witness(h, h.vertices, basic)))
    base = logic.LocalValues(g, g.vertices, phi)
    assert base.order == g.sorted_vertices()
    sorts = []
    real = Graph.sorted_vertices
    monkeypatch.setattr(Graph, "sorted_vertices", lambda self: sorts.append(self) or real(self))
    for h, touched, expect in cases:
        assert expect is not None
        assert logic.basic_witness(h, h.vertices, basic, base=base, touched=touched) == expect
    assert sorts == []


def test_wall_sets_read_only_the_index_and_the_removed_ball(monkeypatch):
    # "is isolated" holds nowhere on the 9-wall and no cap fires, so the
    # index is empty, and each set {v} reads the scope at v's 1-ball alone,
    # never all of V
    g = make_elementary_wall(9).graph
    reads = []

    class Scope(frozenset):
        def __contains__(self, v):
            reads[-1][1].add(v)
            return frozenset.__contains__(self, v)

    original = logic.basic_witness

    def spy(h, r_set, basic, **kwargs):
        reads.append((kwargs["touched"], set()))
        return original(h, Scope(r_set), basic, **kwargs)

    monkeypatch.setattr(logic, "basic_witness", spy)
    assert not is_triple(g, g.vertices, 1, Operation.VR, ISOLATED)
    assert len(reads) == 1 + len(g.vertices)
    for touched, read in reads:
        assert read <= {u for v in touched for u in neighborhood(g, v, 1)}, touched
    basic = ISOLATED.basics[0]
    assert logic.LocalValues(g, g.vertices, ISOLATED).index(basic) == ([], [])
