import random
import re
from itertools import combinations

import pytest
from graph_helpers import cycle_graph, path_graph, seeded_graph
from hypothesis import given, settings
from hypothesis import strategies as st
from planarizer_reference import GADGETS, branch_vr, gadget

from planmod import modification, planarity
from planmod.errors import InputError
from planmod.graphs import Graph, complete_graph, disjoint_union
from planmod.modification import (ModificationSet, Operation, affected,
                                  application_domain, apply,
                                  find_vr_planarizer, is_planarization_irrelevant,
                                  minimal_planarizers, subsets_up_to)
from planmod.planarity import is_planar
from planmod.walls import central_subwall, compass, make_elementary_wall


class TestApplicationDomain:
    def test_vr_is_scope(self):
        g = path_graph(4)
        assert application_domain(Operation.VR, g, {0, 2}) == {0, 2}

    def test_ea_on_complete_graph_empty(self):
        g = complete_graph(3)
        assert application_domain(Operation.EA, g, g.vertices) == frozenset()

    def test_er_restricted_scope(self):
        tri = cycle_graph(3)
        assert application_domain(Operation.ER, tri, {0, 1}) == {(0, 1)}

    def test_unknown_scope(self):
        with pytest.raises(InputError):
            application_domain(Operation.VR, path_graph(2), {9})


class TestAffected:
    def test_vr(self):
        assert affected(ModificationSet(Operation.VR, [3])) == {3}

    def test_er(self):
        assert affected(ModificationSet(Operation.ER, [(1, 2)])) == {1, 2}

    def test_ec_union(self):
        s = ModificationSet(Operation.EC, [(0, 1), (1, 2)])
        assert affected(s) == {0, 1, 2}


class TestApply:
    def test_ea_closes_triangle(self):
        g = apply(path_graph(3), ModificationSet(Operation.EA, [(0, 2)]))
        assert g == cycle_graph(3)

    def test_ec_path_to_edge(self):
        g = apply(path_graph(3), ModificationSet(Operation.EC, [(0, 1)]))
        assert g == Graph([0, 2], [(0, 2)])

    def test_ec_triangle_collapses(self):
        g = apply(cycle_graph(3), ModificationSet(Operation.EC, [(0, 1), (1, 2)]))
        assert g == Graph([0])

    def test_ec_merged_identity_is_least_id(self):
        g = apply(path_graph(4), ModificationSet(Operation.EC, [(2, 3)]))
        assert g.vertices == {0, 1, 2}

    def test_outside_domain_rejected(self):
        with pytest.raises(InputError):
            apply(path_graph(3), ModificationSet(Operation.ER, [(0, 2)]))

    @pytest.mark.parametrize("op, elements, bad", [
        (Operation.VR, [1, 9], "['9']"),
        (Operation.EC, [(0, 1), (0, 2)], "['(0, 2)']"),
        (Operation.EA, [(0, 2), (0, 1)], "['(0, 1)']"),
        (Operation.EA, [(0, 2), (0, 9)], "['(0, 9)']"),
    ], ids=["vr-unknown-vertex", "ec-non-edge", "ea-existing-edge",
            "ea-unknown-endpoint"])
    def test_rejects_and_lists_only_the_bad_elements(self, op, elements, bad):
        with pytest.raises(InputError, match=re.escape(
                f"elements outside the application domain: {bad}")):
            apply(path_graph(3), ModificationSet(op, elements))

    @settings(max_examples=30)
    @given(st.integers(0, 4000), st.sampled_from(list(Operation)))
    def test_accepts_every_element_of_the_domain(self, seed, op):
        g = seeded_graph(seed, 6, 0.45)
        domain = application_domain(op, g, g.vertices)
        for e in domain:
            apply(g, ModificationSet(op, [e]))
        apply(g, ModificationSet(op, domain))

    @settings(max_examples=40)
    @given(st.integers(0, 4000), st.sampled_from(list(Operation)))
    def test_empty_set_is_identity(self, seed, op):
        g = seeded_graph(seed, 8, 0.45)
        assert apply(g, ModificationSet(op, [])) == g

    def test_ec_component_merge_is_order_free(self):
        # applying the set at once equals folding the edges one by one in any
        # order (with ids tracked through merges)
        rng = random.Random(2)
        for seed in range(30):
            g = seeded_graph(seed, 7, 0.5)
            edges = list(g.sorted_edges())
            if len(edges) < 3:
                continue
            chosen = rng.sample(edges, k=3)
            whole = apply(g, ModificationSet(Operation.EC, chosen))
            for order in (chosen, chosen[::-1]):
                h = g
                rep = {}

                def find(x):
                    while x in rep:
                        x = rep[x]
                    return x

                for (u, v) in order:
                    ru, rv = find(u), find(v)
                    if ru == rv:
                        continue
                    h = apply(h, ModificationSet(Operation.EC, [(ru, rv)]))
                    keep, gone = min(ru, rv), max(ru, rv)
                    rep[gone] = keep
                assert h == whole


class TestPlanarizers:
    def test_k5_vertex_deletion(self):
        assert is_planar(apply(complete_graph(5), ModificationSet(Operation.VR, [0])))

    def test_k5_edge_deletion(self):
        assert is_planar(apply(complete_graph(5), ModificationSet(Operation.ER, [(0, 1)])))

    def test_empty_on_planar(self):
        assert is_planar(apply(path_graph(4), ModificationSet(Operation.EA, [])))

    def test_minimal_on_planar_graph_is_empty_set(self):
        for op in Operation:
            mins = list(minimal_planarizers(cycle_graph(4), op, 2))
            assert len(mins) == 1 and len(mins[0].elements) == 0

    def test_k5_vr_minimal_are_singletons(self):
        mins = list(minimal_planarizers(complete_graph(5), Operation.VR, 1))
        assert sorted(tuple(m.elements) for m in mins) == [(0,), (1,), (2,), (3,), (4,)]

    def test_minimality_filter_drops_supersets(self):
        mins = list(minimal_planarizers(complete_graph(5), Operation.VR, 2))
        assert all(len(m.elements) == 1 for m in mins) and len(mins) == 5

    def test_er_or_ec_planarizer_implies_vr_planarizer(self):
        # cited fact, desk check: a counterexample would be a build stopper
        for seed in range(40):
            g = seeded_graph(seed, 7, 0.55)
            for op in (Operation.ER, Operation.EC):
                for k in (1, 2):
                    has_op = any(
                        is_planar(apply(g, ModificationSet(op, sub)))
                        for sub in subsets_up_to(
                            application_domain(op, g, g.vertices), k))
                    if has_op:
                        assert find_vr_planarizer(g, k) is not None


class TestFindVrPlanarizer:
    def test_planar_returns_empty(self):
        s = find_vr_planarizer(path_graph(4), 0)
        assert s is not None and len(s.elements) == 0

    def test_k5_single_deletion(self):
        s = find_vr_planarizer(complete_graph(5), 1)
        assert s is not None and len(s.elements) == 1

    def test_two_k5_needs_two(self):
        g = disjoint_union(complete_graph(5), complete_graph(5, offset=5))
        assert find_vr_planarizer(g, 1) is None
        assert find_vr_planarizer(g, 2) is not None

    def test_shared_subdivision_vertex(self):
        # two K5-subdivisions sharing one path vertex: branching only on
        # branch vertices would miss the solution {x}
        x = 100
        parts = []
        for off in (0, 10):
            ks = complete_graph(5, offset=off).remove_edges([(off, off + 1)])
            parts.append(ks)
        g = disjoint_union(*parts).add_vertices([x])
        g = g.add_edges([(0, x), (1, x), (10, x), (11, x)])
        assert not is_planar(g)
        s = find_vr_planarizer(g, 1)
        assert s is not None and s.elements == frozenset({x})

    def test_scope(self):
        g = complete_graph(5)
        assert find_vr_planarizer(g, 1).elements == {0}
        assert find_vr_planarizer(g, 1, {1, 2, 3, 4}).elements == {1}
        assert find_vr_planarizer(g, 1, set()) is None

    def test_oracle_equivalence_on_small_graphs(self):
        # the denser graphs are mostly nonplanar, so the scope matters
        graphs = [seeded_graph(seed, 8, 0.5) for seed in range(80)]
        graphs += [seeded_graph(seed, 8, 0.8) for seed in range(30)]
        for seed, g in enumerate(graphs):
            rng = random.Random(seed)
            r_set = frozenset(v for v in g.vertices if rng.random() < 0.5)
            for k in (0, 1, 2):
                for scope in (None, r_set):
                    domain = g.vertices if scope is None else scope
                    brute = any(is_planar(g.remove_vertices(sub))
                                for sub in subsets_up_to(domain, k))
                    found = find_vr_planarizer(g, k, scope)
                    assert (found is not None) == brute
                    if found is not None:
                        assert len(found) <= k and found.elements <= domain
                        assert is_planar(g.remove_vertices(found.elements))


class TestIrrelevance:
    def test_planar_everything_irrelevant(self):
        g = cycle_graph(4)
        assert is_planarization_irrelevant(minimal_planarizers(g, Operation.VR, 1),
                                           g.vertices)

    def test_pendant_is_irrelevant_on_k5(self):
        g = complete_graph(5).add_vertices([9]).add_edges([(0, 9)])
        assert is_planarization_irrelevant(minimal_planarizers(g, Operation.VR, 1), {9})

    def test_k5_vertices_are_relevant(self):
        g = complete_graph(5)
        assert not is_planarization_irrelevant(minimal_planarizers(g, Operation.VR, 1), {3})

    def test_planar_wall_needs_no_search(self, monkeypatch):
        # ∅ is the one minimal planarizer of a planar g, for every operation
        calls = _spy_searches(monkeypatch)
        g = make_elementary_wall(7).graph
        for op in Operation:
            assert is_planarization_irrelevant(minimal_planarizers(g, op, 1), g.vertices)
        assert calls == {"subsets_up_to": 0, "kuratowski": 0}

    def test_pendant_k5_wall_branches_on_one_block(self, monkeypatch):
        # vr at k = 2 branches on the K5's five vertices, each of which
        # planarizes, and enumerates nothing. Left-right questions: g, its
        # three blocks (wall, bridge, K5), the ten K5 edges of the deletion
        # loop, and the five g - v; the loop over all of g would ask one
        # per edge
        g = gadget("wall-k5-bridge", 7)
        k5 = frozenset(v for v in g.vertices if g.degree(v) >= 4)
        assert minimal_planarizers(g, Operation.VR, 2) == \
            [ModificationSet(Operation.VR, [v]) for v in sorted(k5)]
        calls = _spy_searches(monkeypatch)
        planar_calls = []
        real = planarity._planar
        monkeypatch.setattr(planarity, "_planar",
                            lambda edges: planar_calls.append(1) or real(edges))
        is_planar.cache_clear()
        assert not is_planarization_irrelevant(minimal_planarizers(g, Operation.VR, 2), k5)
        assert calls == {"subsets_up_to": 0, "kuratowski": 1}
        assert len(planar_calls) == 1 + 3 + 10 + 5 < len(g.edges)

    def test_ec_branches_like_vr_and_er(self, monkeypatch):
        # ec branches on the edges at a Kuratowski witness's contraction
        # groups: each of the pendant K5's ten edges planarizes, and no set
        # is enumerated, on the 7-wall or for a compass inside the 9-wall
        calls = []
        for name in ("planar_sets", "subsets_up_to"):
            monkeypatch.setattr(modification, name,
                                lambda *args, name=name, **kwargs: calls.append(name))
        g = gadget("wall-k5-bridge", 7)
        k5 = sorted(v for v in g.vertices if g.degree(v) >= 4)
        assert minimal_planarizers(g, Operation.EC, 2) == \
            [ModificationSet(Operation.EC, [e]) for e in combinations(k5, 2)]
        g = gadget("wall-k5-bridge", 9)
        inner = compass(g, central_subwall(make_elementary_wall(9), 5))
        assert is_planarization_irrelevant(minimal_planarizers(g, Operation.EC, 2),
                                           inner.vertices)
        assert calls == []


def _spy_searches(monkeypatch) -> dict:
    """Count the calls of modification's enumeration and witness search."""
    calls = {"subsets_up_to": 0, "kuratowski": 0}
    for name in calls:
        real = getattr(modification, name)

        def spy(*args, name=name, real=real, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(modification, name, spy)
    return calls


@st.composite
def _vr_host(draw):
    """A random graph, sparse or dense, or a nonplanar gadget on a 3- or
    5-wall, and a scope: None or a random part of V."""
    name = draw(st.sampled_from(("random",) + GADGETS))
    seed = draw(st.integers(0, 2 ** 16))
    if name == "random":
        g = seeded_graph(seed, 9, draw(st.sampled_from([0.45, 0.7])))
    else:
        g = gadget(name, draw(st.sampled_from([3, 5])))
    if draw(st.booleans()):
        return g, None
    rng, p = random.Random(seed), draw(st.sampled_from([0.3, 0.7, 0.95]))
    return g, frozenset(v for v in g.vertices if rng.random() < p)


@settings(max_examples=200)
@given(host=_vr_host(), k=st.integers(0, 2))
def test_find_vr_planarizer_matches_branching_reference(host, k):
    g, scope = host
    found = find_vr_planarizer(g, k, scope)
    assert (None if found is None else found.elements) == branch_vr(g, k, scope)
