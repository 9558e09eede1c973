"""Deciding planarity of modified graphs from the sets already tested.

vr, er and ec make minors, and minors of planar graphs are planar, so the
exhaustive searches answer a superset of a planar set without a test. ea
makes supergraphs, so a superset of a nonplanar ea set is nonplanar. The
properties check both rules with networkx; the differential tests compare
the searches with reference loops that test every set."""

import random
from itertools import combinations

import pytest
from graph_helpers import nx_planar
from hypothesis import given, settings
from hypothesis import strategies as st
from planarizer_reference import GADGETS, gadget

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
from planmod.walls import central_subwall, compass, make_elementary_wall, subdivide_wall

MINOR_OPS = [Operation.VR, Operation.ER, Operation.EC]
ISOLATED = GaifmanSentence((BasicSentence(1, 1, IS_ISOLATED),), parse_combination("1"))


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
    if nx_planar(apply(g, small)):
        assert nx_planar(apply(g, big))


# -- reference loops: every set is tested ----------------------------------------

def _reference_search(g, scope, k, op, phi, size_mode, max_vertices=128):
    cfg = PipelineConfig(cap_brute_vertices=max_vertices)
    for sub in subsets_up_to(application_domain(op, g, scope), k):
        if size_mode == "exact" and len(sub) != k:
            continue
        ms = ModificationSet(op, sub)
        h = apply(g, ms)
        if is_planar(h) and eval_gaifman(h, scope & h.vertices, phi, cfg=cfg):
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


def _reference_minimal(g, op, k, scope=None):
    scope = g.vertices if scope is None else scope
    planar = [sub for sub in subsets_up_to(application_domain(op, g, scope), k)
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
        assert is_triple(g, scope, k, op, phi, cfg, want_witness=True) == expect, label
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
    # the gadgets are nonplanar through one block or two; under ea the
    # reference tests every set of non-edges, so the walls stop at k = 1
    graphs = [(g, k, op) for g, k, op, _, _ in random_instances(4321, 60)]
    g, _ = _wall_with_pendant_k5(3)
    graphs += [(g, 2, op) for op in MINOR_OPS]
    graphs += [(gadget(name), k, op) for name in GADGETS for op in Operation for k in (1, 2)
               if not (op is Operation.EA and k == 2 and name.startswith("wall-"))]
    for g, k, op in graphs:
        assert list(minimal_planarizers(g, op, k)) == _reference_minimal(g, op, k)


@pytest.mark.parametrize("op", MINOR_OPS, ids=lambda op: op.value)
def test_planarizer_branching_matches_reference(op):
    # random graphs on 5 to 9 vertices, sparse to nearly complete, and the
    # gadgets, each with scope V and a random R: the inclusion-minimal sets
    # that the Kuratowski branching yields are the reference's
    rng = random.Random(31)
    hosts = [(gadget(name), k) for name in GADGETS for k in (1, 2)]
    for _ in range(100):
        n = rng.randint(5, 9)
        p = rng.choice([0.4, 0.6, 0.8, 0.95])
        hosts.append((Graph(range(n), [e for e in combinations(range(n), 2)
                                       if rng.random() < p]), rng.randint(0, 2)))
    for g, k in hosts:
        for scope in (g.vertices, frozenset(v for v in g.vertices if rng.random() < 0.7)):
            found = set(modification._planarizers(g, op, k, scope))
            minimal = {s for s in found if not any(t < s for t in found)}
            assert minimal == {ms.elements for ms in _reference_minimal(g, op, k, scope)}, \
                (sorted(g.edges), k, sorted(scope))


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
    # a path has one face, which holds every pair, so after the test of G
    # each one-pair set is answered planar from that face without a test
    calls = _count_is_planar(monkeypatch)
    g = Graph(range(5), [(0, 1), (1, 2), (2, 3), (3, 4)])
    assert not is_triple(g, g.vertices, 1, Operation.EA, ISOLATED)
    assert len(calls) == 1


# -- ea: a nonplanar set rules out its supersets ------------------------------------

@st.composite
def _ea_graph(draw):
    """A random graph on at most 9 vertices, or K6 short of one edge, which
    is nonplanar."""
    if draw(st.booleans()):
        return Graph(range(6), [e for e in combinations(range(6), 2) if e != (0, 1)])
    n = draw(st.integers(1, 9))
    pairs = list(combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(range(n), [e for e, k in zip(pairs, keep) if k])


@settings(max_examples=120)
@given(g=_ea_graph(), k=st.integers(0, 2), exact=st.booleans())
def test_ea_sets_agree_with_networkx(g, k, exact):
    # every set planar_sets yields is planar and every set it skips is not,
    # by networkx on g + S
    got = [ms.elements for ms, _ in planar_sets(g, g.vertices, k, Operation.EA,
                                                 exact=exact)]
    domain = application_domain(Operation.EA, g, g.vertices)
    expect = [sub for sub in subsets_up_to(domain, k)
              if (not exact or len(sub) == k)
              and nx_planar(g.add_edges(sub))]
    assert got == expect


def test_nonplanar_additions_rule_out_their_supersets(monkeypatch):
    # the octahedron short of the edge 02 is planar with one quadrilateral
    # face 0425: adding 02 or 45 keeps it planar, adding 01 or 23 does not.
    # It is 3-connected, so the faces decide all four one-pair sets: 02 and
    # 45 are built (to be yielded) but not tested, 01 and 23 neither. Of
    # the six two-pair sets only {02, 45} is built and tested. So G and
    # {02, 45} are tested, and the empty set, 02, 45 and {02, 45} built
    calls = _count_is_planar(monkeypatch)
    built = []
    real_apply = modification.apply
    monkeypatch.setattr(modification, "apply",
                        lambda g, s: built.append(s.elements) or real_apply(g, s))
    antipodal = {(0, 1), (2, 3), (4, 5)}
    g = Graph(range(6), [e for e in combinations(range(6), 2)
                         if e not in antipodal and e != (0, 2)])
    got = [ms.elements for ms, _ in planar_sets(g, g.vertices, 2, Operation.EA)]
    assert got == [frozenset(), {(0, 2)}, {(4, 5)}]
    assert len(calls) == 2
    assert built == [set(), {(0, 2)}, {(4, 5)}, {(0, 2), (4, 5)}]


def test_nonplanar_graph_takes_one_ea_test(monkeypatch):
    calls = _count_is_planar(monkeypatch)
    g = complete_graph(6).remove_edges([(0, 1), (2, 3)])
    assert list(planar_sets(g, g.vertices, 2, Operation.EA, exact=True)) == []
    assert len(calls) == 1


# -- ea: one added pair, read off the faces of one embedding -------------------------

def _stacked_triangulation(rng: random.Random, n: int) -> Graph:
    """A random stacked triangulation on n >= 3 vertices: each new vertex
    goes into a random inner face and is joined to its three corners. It is
    3-connected for n >= 4."""
    edges = [(0, 1), (1, 2), (0, 2)]
    faces = [(0, 1, 2)]
    for v in range(3, n):
        a, b, c = faces.pop(rng.randrange(len(faces)))
        edges += [(a, v), (b, v), (c, v)]
        faces += [(a, b, v), (b, c, v), (a, c, v)]
    return Graph(range(n), edges)


@st.composite
def _one_pair_graph(draw):
    """A graph for one-pair ea sets: random graphs (mostly planar), stacked
    triangulations short of a few edges or subdivided, elementary and
    subdivided walls, compasses of central subwalls, walls whose reduct is
    not 3-connected (a pendant vertex or path, two walls at a cut vertex),
    and walls short of a vertex or an edge."""
    rng = random.Random(draw(st.integers(0, 2 ** 16)))
    kind = draw(st.sampled_from(["random", "stacked", "wall", "subdivided",
                                 "compass", "pendant", "two-walls", "damaged"]))
    if kind == "random":
        return draw(_ea_graph())
    if kind == "stacked":
        g = _stacked_triangulation(rng, draw(st.integers(3, 14)))
        drop = [e for e in g.sorted_edges() if rng.random() < 0.1]
        g = g.remove_edges(drop)
        if g.edges and draw(st.booleans()):
            u, v = rng.choice(g.sorted_edges())
            g = Graph(g.vertices | {100}, (g.edges - {(u, v)}) | {(u, 100), (v, 100)})
        return g
    height = draw(st.sampled_from([3, 5, 7]))
    wall = make_elementary_wall(height)
    if kind == "wall":
        return wall.graph
    if kind == "subdivided":
        return subdivide_wall(wall, rng, max_extra=1).graph
    if kind == "compass":
        sub = central_subwall(wall, draw(st.sampled_from(range(3, height + 1, 2))))
        return compass(wall.graph, sub)
    g = wall.graph
    top = max(g.vertices)
    if kind == "pendant":
        at = rng.choice(g.sorted_vertices())
        length = draw(st.integers(1, 2))
        path = [at] + list(range(top + 1, top + 1 + length))
        return g.add_vertices(path[1:]).add_edges(zip(path, path[1:]))
    if kind == "two-walls":
        other = make_elementary_wall(3).graph
        shift = {v: (v + top if v else rng.choice(g.sorted_vertices())) for v in other.vertices}
        return Graph(g.vertices | set(shift.values()),
                     g.edges | {norm_edge(shift[a], shift[b]) for a, b in other.edges})
    if draw(st.booleans()):
        return g.remove_vertices([rng.choice(g.sorted_vertices())])
    return g.remove_edges([rng.choice(g.sorted_edges())])


class _Tested(modification.PlanarSets):
    """PlanarSets that tests every set, as before the face rule."""

    def _by_faces(self, u, v):
        return None


@settings(max_examples=150)
@given(g=_one_pair_graph(), data=st.data())
def test_one_pair_additions_agree_with_networkx(g, data):
    # the faces' answer for g + uv is networkx's, and the sets it keeps are
    # those that testing every set keeps
    domain = sorted(application_domain(Operation.EA, g, g.vertices))
    if not domain:
        return
    pairs = data.draw(st.lists(st.sampled_from(domain), min_size=1, max_size=12))
    planar, tested = modification.PlanarSets(g, Operation.EA), _Tested(g, Operation.EA)
    for pair in pairs:
        ms = ModificationSet(Operation.EA, [pair])
        assert planar(ms) == nx_planar(g.add_edges([pair])) == tested(ms), pair
    assert planar.minimal == tested.minimal
    assert planar.nonplanar == tested.nonplanar


def test_wall_isolated_ea_tests_only_g(monkeypatch):
    # "is isolated" is NO on the 7-wall at k = 1, so every one-pair set is
    # asked for; the faces answer all of them, and G is the one test
    is_planar.cache_clear()
    calls = _count_is_planar(monkeypatch)
    g = make_elementary_wall(7).graph
    assert not is_triple(g, g.vertices, 1, Operation.EA, ISOLATED)
    assert calls == [g]
    assert is_planar.cache_info().misses == 1
