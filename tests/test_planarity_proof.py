"""The planarity proof a graph carries: `certified_planar(g, P)` marks a copy
of g with `planar_without` = P when g − P is planar, deletions keep what the
mark still proves, and a run never marks its input."""

import random

import pytest
from graph_helpers import nx_planar, relabel
from hypothesis import given, settings
from hypothesis import strategies as st
from planarizer_reference import pendant_wall

from planmod import planarity, solver
from planmod.config import PipelineConfig
from planmod.fixtures import IS_ISOLATED, random_graph
from planmod.graphs import (Graph, complete_graph, disjoint_union, make_grid,
                            merge_groups)
from planmod.logic import BasicSentence, GaifmanSentence, parse_combination
from planmod.modification import Operation
from planmod.planarity import certified_planar, is_planar
from planmod.solver import Instance, solve_pipeline
from planmod.walls import make_elementary_wall, subdivide_wall

K33 = Graph(range(6), [(a, b) for a in range(3) for b in range(3, 6)])
IS_ISOLATED_SOMEWHERE = GaifmanSentence((BasicSentence(1, 1, IS_ISOLATED),),
                                        parse_combination("1"))


def _gadget(rng: random.Random) -> Graph:
    """K5 or K3,3, with an edge subdivided or not, beside a small random graph."""
    core = rng.choice((complete_graph(5), K33))
    u, v = rng.choice(core.sorted_edges())
    if rng.random() < 0.5:
        core = core.remove_edges([(u, v)]).add_vertices([50]).add_edges([(u, 50), (50, v)])
    return disjoint_union(core, relabel(random_graph(rng, rng.randint(1, 9)), {i: 100 + i for i in range(9)}))


def _graph(seed: int, family: str, ids: str) -> Graph:
    rng = random.Random(seed)
    if family == "random":
        g = random_graph(rng, rng.randint(1, 9))
    elif family == "grid":
        g = make_grid(rng.randint(1, 4), rng.randint(1, 4)).graph
    elif family == "wall":
        w = make_elementary_wall(rng.choice((3, 5)))
        g = (subdivide_wall(w, rng, 1) if rng.random() < 0.5 else w).graph
    else:
        g = _gadget(rng)
    return relabel(g, {v: f"v{v}" for v in g.vertices}) if ids == "str" else g


class TestMark:
    @settings(max_examples=120, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 2 ** 16),
           family=st.sampled_from(("random", "grid", "wall", "gadget")),
           ids=st.sampled_from(("int", "str")))
    def test_deletions_keep_the_mark_and_nothing_else_sets_it(self, data, seed,
                                                              family, ids):
        g = _graph(seed, family, ids)
        verts, edges = g.sorted_vertices(), g.sorted_edges()
        some = lambda xs, most=None: data.draw(
            st.lists(st.sampled_from(xs), unique=True, max_size=most)) if xs else []
        without = frozenset(some(verts, 3))
        marked = certified_planar(g, without)
        assert g.planar_without is None
        if marked is None:
            assert not nx_planar(g.remove_vertices(without))
            return
        assert marked is not g and marked.planar_without == without
        assert marked == g and hash(marked) == hash(g)
        assert marked.to_json_obj() == g.to_json_obj()
        new = ["new", "v999"] if ids == "str" else [998, 999]  # ids of g's one type
        drop, keep = some(verts), some(verts)
        kept = [marked.remove_vertices(drop), marked.remove_edges(some(edges)),
                marked.induced(keep), marked.add_vertices(new)]
        assert [h.planar_without for h in kept] == [
            without - set(drop), without, without & set(keep), without]
        # a chain of deletions keeps it too
        kept.append(kept[0].remove_edges(some(kept[0].sorted_edges())).induced(
            some(kept[0].sorted_vertices())))
        assert all(h.planar_without is not None for h in kept)
        assert all(nx_planar(h.remove_vertices(h.planar_without)) for h in kept)
        # the proof for ∅ answers without a test, and only that one
        assert all(is_planar(h) for h in kept if not h.planar_without)
        pairs = [(u, v) for i, u in enumerate(verts) for v in verts[i + 1:]
                 if not g.has_edge(u, v)]
        groups = [set(some(verts)) or {verts[0]}]
        lost = [marked.add_edges(some(pairs)), marked.add_edges([]),
                merge_groups(marked, groups), merge_groups(marked, [])]
        assert all(h.planar_without is None for h in lost)
        # an unmarked graph's derivations stay unmarked
        assert all(h.planar_without is None for h in (
            g.remove_vertices(some(verts)), g.induced(verts), g.add_vertices(new)))

    @pytest.mark.parametrize("ids", ["int", "str"])
    @pytest.mark.parametrize("g", [complete_graph(5), K33], ids=["K5", "K33"])
    def test_nonplanar_graphs_get_no_copy(self, g, ids):
        if ids == "str":
            g = relabel(g, {v: f"v{v}" for v in g.vertices})
        assert certified_planar(g, ()) is None

    def test_a_marked_graph_runs_no_test(self, monkeypatch):
        runs = []
        real = planarity._planar
        monkeypatch.setattr(planarity, "_planar", lambda es: runs.append(1) or real(es))
        is_planar.cache_clear()
        marked = certified_planar(make_elementary_wall(7).graph, ())
        assert len(runs) == 1
        assert is_planar(marked.remove_vertices([0]).induced(range(1, 40)))
        assert len(runs) == 1
        # a proof that leaves vertices out covers only graphs without them
        g = pendant_wall(7, "k5", "bridge")
        k5 = max(g.vertices) - 4
        marked = certified_planar(g, {k5})
        assert len(runs) == 2 and certified_planar(g, ()) is None and len(runs) == 3
        assert is_planar(marked.remove_vertices([k5, 0]).induced(range(1, 40)))
        assert not is_planar(marked.remove_vertices([0]))
        assert len(runs) == 4


def _wall_run(monkeypatch) -> tuple:
    """The 9-wall at k = 1 under vr with "is isolated", cross-check off, and
    a counter of the planarity tests it runs."""
    runs = []
    real = planarity._planar
    monkeypatch.setattr(planarity, "_planar", lambda es: runs.append(1) or real(es))
    inst = Instance(make_elementary_wall(9).graph, 1, Operation.VR, IS_ISOLATED_SOMEWHERE)
    cfg = PipelineConfig(rho_hat=1, d_hat=1, q_hat=7, cross_check=False)
    return inst, cfg, runs


class TestOneProofPerRun:
    def test_the_input_is_tested_once(self, monkeypatch):
        # five irrelevant-region steps, each a new G − v, and every compass
        # derive from the one proof of the input
        inst, cfg, runs = _wall_run(monkeypatch)
        is_planar.cache_clear()
        res = solve_pipeline(inst, cfg)
        outcomes = [t.outcome for t in res.trace]
        assert outcomes.count("irrelevant-region") == 5 and not res.answer
        assert len(runs) == 1

    def test_the_callers_graph_stays_unmarked(self, monkeypatch):
        inst, cfg, runs = _wall_run(monkeypatch)
        counts = []
        for _ in range(2):
            is_planar.cache_clear()
            runs.clear()
            solve_pipeline(inst, cfg)
            assert inst.graph.planar_without is None
            counts.append(len(runs))
        assert counts[0] == counts[1]


class TestSettledPlanarizer:
    """On the 9-wall with a K5 hung from its corner by one edge, under vr
    with "is isolated", cross-check off, S = {the K5's bridge vertex} and
    the run takes 4 irrelevant-region steps."""

    @staticmethod
    def _run(monkeypatch, spies: dict):
        for name, spy in spies.items():
            monkeypatch.setattr(solver, name, spy)
        is_planar.cache_clear()
        res = solve_pipeline(
            Instance(pendant_wall(9, "k5", "bridge"), 1, Operation.VR, IS_ISOLATED_SOMEWHERE),
            PipelineConfig(rho_hat=1, d_hat=1, q_hat=7, cross_check=False))
        assert [t.outcome for t in res.trace] == ["irrelevant-region"] * 4 + ["bounded-treewidth"]

    def test_the_planarizer_search_runs_once_per_vertex_of_s(self, monkeypatch):
        # the opening search, and one obligatory check per vertex of S
        calls, real = [], solver.find_vr_planarizer
        self._run(monkeypatch, {"find_vr_planarizer":
                                lambda *args: calls.append(args) or real(*args)})
        g = pendant_wall(9, "k5", "bridge")
        s = real(g, 1)
        assert len(s) == 1 and len(calls) == 1 + len(s)

    def test_no_step_tests_its_g_minus_s(self, monkeypatch):
        # the opening proved G − S planar, and every step's G − S derives
        # from that proof by deletion
        tested, real_planar = [], planarity._planar
        monkeypatch.setattr(planarity, "_planar",
                            lambda es: tested.append(frozenset(es)) or real_planar(es))
        flats, during, real_reduce = [], [], solver.reduce_instance

        def reduce(k, g, s, *rest):
            flats.append(g.remove_vertices(s.elements).edges)
            start = len(tested)
            try:
                return real_reduce(k, g, s, *rest)
            finally:
                during.extend(tested[start:])

        self._run(monkeypatch, {"reduce_instance": reduce})
        assert len(flats) == 5 and tested
        assert not set(flats) & set(during)
