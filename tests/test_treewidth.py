import random

import pytest
from decomposition_reference import decomposition_violations_reference
from graph_helpers import cycle_graph, path_graph, seeded_graph
from hypothesis import Phase, given, settings
from hypothesis import strategies as st
from minfill_reference import minfill_order_reference

from planmod.errors import ResourceLimitError
from planmod.graphs import Graph, complete_graph, load_graph, make_grid, vertex_key
from planmod.treewidth import (TreeDecomposition, _minfill, decomposition_from_order,
                               decomposition_violations, exact_treewidth,
                               exact_treewidth_bb, minfill_decomposition,
                               validate_decomposition, width_witness)
from planmod.walls import make_elementary_wall, subdivide_wall


class TestValidation:
    def test_single_bag_always_valid(self):
        for g in (complete_graph(5), path_graph(4), Graph([0, 1])):
            single_bag = TreeDecomposition(Graph([0]), {0: frozenset(g.vertices)})
            assert validate_decomposition(g, single_bag)

    def test_path_decomposition(self):
        g = path_graph(4)
        td = TreeDecomposition(path_graph(3, offset=100),
                               {100: frozenset({0, 1}), 101: frozenset({1, 2}),
                                102: frozenset({2, 3})})
        assert validate_decomposition(g, td)

    def test_broken_connectivity_reported(self):
        g = path_graph(4)
        td = TreeDecomposition(path_graph(3, offset=100),
                               {100: frozenset({0, 1}), 101: frozenset({2}),
                                102: frozenset({2, 3})})
        bad = decomposition_violations(g, td)
        assert bad and any("no bag" in b or "subtree" in b for b in bad)


class TestExact:
    def test_tree_is_one(self):
        tw, td = exact_treewidth(path_graph(6))
        assert tw == 1 and validate_decomposition(path_graph(6), td)

    def test_k4_is_three(self):
        assert exact_treewidth(complete_graph(4))[0] == 3

    def test_cliques_up_to_eight(self):
        for n in range(2, 9):
            assert exact_treewidth(complete_graph(n))[0] == n - 1
            assert exact_treewidth_bb(complete_graph(n)) == n - 1

    def test_cycle_is_two(self):
        assert exact_treewidth(cycle_graph(6))[0] == 2

    def test_grid_4x4_is_four(self):
        g = make_grid(4, 4).graph
        tw, td = exact_treewidth(g, cap=16)
        assert tw == 4 and validate_decomposition(g, td)
        assert exact_treewidth_bb(g, cap=16) == 4

    def test_cap_enforced(self):
        with pytest.raises(ResourceLimitError):
            exact_treewidth(make_grid(4, 5).graph)

    def test_witness_width_matches(self):
        for seed in range(30):
            g = seeded_graph(seed, 10, 0.4, min_n=2)
            tw, td = exact_treewidth(g)
            assert td.width() == tw
            assert validate_decomposition(g, td)

    def test_two_algorithms_agree(self):
        for seed in range(60):
            g = seeded_graph(seed, 11, 0.4, min_n=2)
            assert exact_treewidth(g)[0] == exact_treewidth_bb(g)

    def test_monotone_under_subgraphs(self):
        for seed in range(15):
            g = seeded_graph(seed, 9, 0.5, min_n=2)
            tw, _ = exact_treewidth(g)
            h = g.remove_vertices([g.sorted_vertices()[0]])
            assert exact_treewidth(h)[0] <= tw
            if g.edges:
                h2 = g.remove_edges([g.sorted_edges()[0]])
                assert exact_treewidth(h2)[0] <= tw


class TestWitnessHelpers:
    def test_minfill_is_valid_upper_bound(self):
        for seed in range(20):
            g = seeded_graph(seed, 11, 0.4, min_n=2)
            td = minfill_decomposition(g)
            assert validate_decomposition(g, td)
            assert td.width() >= exact_treewidth(g)[0]

    def test_width_witness_bound(self):
        g = make_grid(5, 5).graph
        td = width_witness(g, 8)
        assert td is not None and td.width() <= 8 and validate_decomposition(g, td)
        assert width_witness(complete_graph(8), 3) is None

    def test_order_must_be_permutation(self):
        from planmod.errors import InputError
        with pytest.raises(InputError):
            decomposition_from_order(path_graph(3), [0, 1])



@st.composite
def labelled_graphs(draw):
    """Random graphs on at most 40 vertices, often disconnected and with
    isolated vertices, under integer or string vertex ids, or mixed ones
    read through the JSON loader."""
    n = draw(st.integers(0, 40))
    kind = draw(st.sampled_from(["int", "str", "mixed"]))
    ints = st.integers(-1000, 1000)
    strs = st.text("abcxyz019", min_size=1, max_size=4)
    ids = {"int": ints, "str": strs, "mixed": st.one_of(ints, strs)}[kind]
    labels = draw(st.lists(ids, min_size=n, max_size=n, unique=True))
    p = draw(st.sampled_from([0.05, 0.15, 0.3, 0.6]))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    edges = [(labels[i], labels[j]) for i in range(n)
             for j in range(i + 1, n) if rng.random() < p]
    if kind == "mixed":
        return load_graph({"vertices": labels, "edges": [list(e) for e in edges]})[0]
    return Graph(labels, edges)


class TestMinfillOrder:
    # no shrinking: with the slow reference, hypothesis would spend its whole
    # five-minute shrink allowance on a failure before reporting it
    @settings(max_examples=100, phases=(Phase.explicit, Phase.reuse, Phase.generate))
    @given(labelled_graphs())
    def test_matches_reference_on_random_graphs(self, g):
        assert _minfill(g)[0] == minfill_order_reference(g)

    # the wall branch certifies a compass by its size alone when its one bag
    # is narrow enough, since min-fill is never wider than that bag
    @given(labelled_graphs())
    def test_never_wider_than_one_bag(self, g):
        assert minfill_decomposition(g).width() <= len(g.vertices) - 1

    @pytest.mark.parametrize("height", [3, 5, 7, 9, 11])
    def test_matches_reference_on_walls(self, height):
        w = make_elementary_wall(height)
        for g in (w.graph, subdivide_wall(w, rng=random.Random(height)).graph):
            assert _minfill(g)[0] == minfill_order_reference(g)


@st.composite
def minfill_hosts(draw):
    """Random graphs, grids, elementary walls and subdivided walls."""
    kind = draw(st.sampled_from(["random", "grid", "wall", "subdivided"]))
    if kind == "random":
        return draw(labelled_graphs())
    if kind == "grid":
        return make_grid(draw(st.integers(1, 8)), draw(st.integers(1, 8))).graph
    wall = make_elementary_wall(draw(st.sampled_from([3, 5, 7, 9])))
    if kind == "subdivided":
        wall = subdivide_wall(wall, rng=random.Random(draw(st.integers(0, 2 ** 16))),
                              max_extra=draw(st.integers(1, 3)))
    return wall.graph


class TestMinfillDecomposition:
    # the bags come from min-fill's own elimination, with its counts kept
    # up to date, not from a second fill run over the finished order; both
    # must give the reference order's tree and bags
    @settings(max_examples=100, phases=(Phase.explicit, Phase.reuse, Phase.generate))
    @given(minfill_hosts())
    def test_matches_the_reference_order_decomposition(self, g):
        td = minfill_decomposition(g)
        ref = decomposition_from_order(g, minfill_order_reference(g))
        assert td.tree == ref.tree
        assert dict(td.bags) == dict(ref.bags)


@st.composite
def decompositions(draw):
    """A graph with a decomposition from a random elimination order, often
    corrupted: a vertex dropped from or added to a bag, a foreign vertex in
    a bag, a tree edge dropped or added, or a bag's node renamed."""
    g = draw(labelled_graphs())
    order = draw(st.permutations(g.sorted_vertices()))
    td = decomposition_from_order(g, list(order))
    tree, bags = td.tree, dict(td.bags)
    nodes = tree.sorted_vertices()
    for _ in range(draw(st.integers(0, 2)) if nodes else 0):
        kind = draw(st.sampled_from(["drop", "add", "foreign", "cut", "link", "rename"]))
        t = draw(st.sampled_from(sorted(bags, key=vertex_key)))
        if kind == "drop" and bags[t]:
            bags[t] = bags[t] - {draw(st.sampled_from(sorted(bags[t], key=vertex_key)))}
        elif kind == "add":
            bags[t] = bags[t] | {draw(st.sampled_from(nodes))}
        elif kind == "foreign":
            bags[t] = bags[t] | {("foreign", 0)}
        elif kind == "cut" and tree.edges:
            tree = tree.remove_edges([draw(st.sampled_from(tree.sorted_edges()))])
        elif kind == "link":
            u = draw(st.sampled_from(nodes))
            if u != t and t in tree.vertices and not tree.has_edge(u, t):
                tree = tree.add_edges([(u, t)])
        elif kind == "rename":
            bags[("renamed", 0)] = bags.pop(t)
    return g, TreeDecomposition(tree, bags)


class TestViolationsReference:
    # the linear check against the quadratic direct reading: the same
    # messages, so the same verdict and the same first message
    @settings(max_examples=300)
    @given(decompositions())
    def test_matches_reference(self, case):
        g, td = case
        assert decomposition_violations(g, td) == decomposition_violations_reference(g, td)

    @pytest.mark.parametrize("height", [5, 7, 9])
    def test_matches_reference_on_walls(self, height):
        g = make_elementary_wall(height).graph
        td = minfill_decomposition(g)
        assert decomposition_violations(g, td) == [] == \
            decomposition_violations_reference(g, td)
        v = g.sorted_vertices()[height]
        t = next(t for t in td.tree.sorted_vertices() if v in td.bags[t] and t != v)
        broken = TreeDecomposition(td.tree, {**td.bags, t: td.bags[t] - {v}})
        assert decomposition_violations(g, broken) == \
            decomposition_violations_reference(g, broken) != []

