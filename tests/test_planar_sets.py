"""Deciding planarity of modified graphs by minor-closure.

vr, er and ec make minors, and minors of planar graphs are planar, so the
exhaustive searches answer a superset of a planar set without a test. The
property below checks the theorem itself with networkx; the differential
tests compare the searches with reference loops that test every set."""

import random
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planmod import modification, signatures, solver
from planmod.config import PipelineConfig
from planmod.fixtures import IS_ISOLATED, fixed_sentences, random_instances
from planmod.graphs import Graph, complete_graph, norm_edge
from planmod.logic import BasicSentence, GaifmanSentence, eval_gaifman, parse_combination
from planmod.modification import (ModificationSet, Operation, application_domain,
                                  apply, minimal_planarizers, planar_sets,
                                  subsets_up_to)
from planmod.planarity import is_planar
from planmod.signatures import is_triple
from planmod.solver import Instance, solve_oracle
from planmod.walls import make_elementary_wall

MINOR_OPS = [Operation.VR, Operation.ER, Operation.EC]
ISOLATED = GaifmanSentence((BasicSentence(1, 1, IS_ISOLATED),), parse_combination("1"))


def _nx_planar(g: Graph) -> bool:
    h = nx.Graph()
    h.add_nodes_from(g.vertices)
    h.add_edges_from(g.edges)
    return nx.check_planarity(h)[0]


@st.composite
def _graph(draw):
    """A random graph, or a complete one on 5 or 6 vertices short of at most
    two edges, which is mostly nonplanar."""
    if draw(st.booleans()):
        n = draw(st.integers(5, 6))
        pairs = list(combinations(range(n), 2))
        missing = set(draw(st.lists(st.sampled_from(pairs), max_size=2)))
        return Graph(range(n), [e for e in pairs if e not in missing])
    n = draw(st.integers(1, 8))
    pairs = list(combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(range(n), [e for e, k in zip(pairs, keep) if k])


@st.composite
def _contraction_set(draw, g: Graph):
    """Edges forming walks and triangles, so that merges chain."""
    chosen = set()
    triangles = [t for t in combinations(g.sorted_vertices(), 3)
                 if all(g.has_edge(u, v) for u, v in combinations(t, 2))]
    for _ in range(draw(st.integers(1, 2))):
        if triangles and draw(st.booleans()):
            chosen |= {norm_edge(u, v) for u, v in
                       combinations(draw(st.sampled_from(triangles)), 2)}
            continue
        v = draw(st.sampled_from(g.sorted_vertices()))
        for _ in range(draw(st.integers(1, 4))):
            if not g.adj[v]:
                break
            w = draw(st.sampled_from(sorted(g.adj[v])))
            chosen.add(norm_edge(v, w))
            v = w
    return chosen


@st.composite
def _nested_sets(draw, op: Operation):
    g = draw(_graph())
    if op is Operation.EC:
        big = draw(_contraction_set(g))
    else:
        domain = sorted(application_domain(op, g, g.vertices))
        big = set(draw(st.permutations(domain))[:draw(st.integers(1, 5))])
    # a proper subset, one or two elements short
    small = set(draw(st.permutations(sorted(big)))[draw(st.integers(1, 2)):])
    return g, ModificationSet(op, small), ModificationSet(op, big)


@pytest.mark.parametrize("op", MINOR_OPS, ids=lambda op: op.value)
@settings(max_examples=150)
@given(data=st.data())
def test_planar_modification_stays_planar_on_supersets(op, data):
    g, small, big = data.draw(_nested_sets(op))
    if _nx_planar(apply(g, small)):
        assert _nx_planar(apply(g, big))


# -- reference loops: every set is tested ----------------------------------------

def _reference_search(g, scope, k, op, phi, size_mode, max_vertices=128):
    for sub in subsets_up_to(application_domain(op, g, scope), k):
        if size_mode == "exact" and len(sub) != k:
            continue
        ms = ModificationSet(op, sub)
        h = apply(g, ms)
        if is_planar(h) and eval_gaifman(h, scope & h.vertices, phi,
                                         max_vertices=max_vertices):
            return True, ms
    return False, None


def _reference_planar(g, scope, k, op, exact):
    out = []
    for sub in subsets_up_to(application_domain(op, g, scope), k):
        ms = ModificationSet(op, sub)
        h = apply(g, ms)
        if (not exact or len(sub) == k) and is_planar(h):
            out.append((ms, h))
    return out


def _reference_minimal(g, op, k):
    planar = [sub for sub in subsets_up_to(application_domain(op, g, g.vertices), k)
              if is_planar(apply(g, ModificationSet(op, sub)))]
    return [ModificationSet(op, sub) for sub in planar
            if not any(prev < sub for prev in planar)]


def _wall_with_pendant_k5(height: int) -> tuple:
    """A wall with a K5 hanging from corner 0 by one edge, and R: the K5 plus
    the wall within distance 2 of the corner. Nonplanar, so a planar set
    is found only by removing something of the K5."""
    wall = make_elementary_wall(height).graph
    base = max(wall.vertices) + 1
    k5 = complete_graph(5, offset=base)
    g = Graph(wall.vertices | k5.vertices, wall.edges | k5.edges | {(0, base)})
    near = {v for v, d in wall.bfs_distances(0).items() if d <= 2}
    return g, frozenset(near | k5.vertices)


def _cases():
    for g, k, op, phi, name in random_instances(4321, 60):
        yield f"random-{name}-{op.value}-k{k}", g, g.vertices, k, op, phi
    g, scope = _wall_with_pendant_k5(7)
    for op in (Operation.VR, Operation.ER):
        for name in ("annotated-neighbor", "isolated-but-not-two-matched"):
            yield f"wall7-k5-{name}-{op.value}", g, scope, 2, op, dict(fixed_sentences())[name]


CASES = list(_cases())


@pytest.mark.parametrize("size_mode", ["at_most", "exact"])
def test_is_triple_and_oracle_match_reference(size_mode):
    cfg = PipelineConfig(size_mode=size_mode)
    for label, g, scope, k, op, phi in CASES:
        expect = _reference_search(g, scope, k, op, phi, size_mode)
        assert is_triple(g, scope, k, op, phi, size_mode=size_mode,
                         want_witness=True) == expect, label
        assert solve_oracle(Instance(g, k, op, phi, scope), cfg,
                            want_witness=True) == expect, label


@pytest.mark.parametrize("exact", [False, True])
def test_planar_sets_match_reference(exact):
    rng = random.Random(77)
    for g, k, _, _, name in random_instances(4321, 60):
        part = frozenset(v for v in g.vertices if rng.random() < 0.6)
        for scope in (g.vertices, part):
            for op in Operation:
                assert list(planar_sets(g, scope, k, op, exact=exact)) == \
                    _reference_planar(g, scope, k, op, exact), (name, op, sorted(scope))


def test_minimal_planarizers_match_reference():
    graphs = [(g, k, op) for g, k, op, _, _ in random_instances(4321, 60)]
    g, _ = _wall_with_pendant_k5(3)
    graphs += [(g, 2, op) for op in (Operation.VR, Operation.ER)]
    for g, k, op in graphs:
        assert list(minimal_planarizers(g, op, k)) == _reference_minimal(g, op, k)


def _count_is_planar(monkeypatch) -> list:
    calls = []
    for module in (modification, signatures, solver):
        original = module.is_planar

        def spy(h, original=original):
            calls.append(h)
            return original(h)

        monkeypatch.setattr(module, "is_planar", spy)
    return calls


def test_wall_superset_rule_fires(monkeypatch):
    # the pendant K5 makes G nonplanar; each of its five vertices is a
    # planar set, so only the empty set, the singletons and the pairs of two
    # wall vertices are tested
    calls = _count_is_planar(monkeypatch)
    g, scope = _wall_with_pendant_k5(7)
    planar = modification.PlanarSets(g, Operation.VR)
    answers = [planar(ModificationSet(Operation.VR, sub))
               for sub in subsets_up_to(sorted(scope), 2)]
    wall_side = len(scope) - 5
    assert len(planar.minimal) == 5
    assert sum(answers) == 5 + 5 * wall_side + 10
    assert len(calls) == 1 + len(scope) + wall_side * (wall_side - 1) // 2


def test_planar_wall_is_tested_once(monkeypatch):
    calls = _count_is_planar(monkeypatch)
    g = make_elementary_wall(7).graph
    assert not is_triple(g, g.vertices, 1, Operation.VR, ISOLATED)
    assert len(calls) <= 1


def test_edge_additions_are_each_tested(monkeypatch):
    calls = _count_is_planar(monkeypatch)
    g = Graph(range(5), [(0, 1), (1, 2), (2, 3), (3, 4)])
    domain = application_domain(Operation.EA, g, g.vertices)
    assert not is_triple(g, g.vertices, 1, Operation.EA, ISOLATED)
    assert len(calls) == 1 + len(domain)
