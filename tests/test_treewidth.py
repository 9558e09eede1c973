import random

import pytest

from planmod.errors import ResourceLimitError
from planmod.graphs import Graph, complete_graph, cycle_graph, make_grid, \
    path_graph
from planmod.treewidth import (TreeDecomposition, decomposition_from_order,
                               decomposition_violations, exact_treewidth,
                               exact_treewidth_bb, minfill_decomposition,
                               single_bag_decomposition, validate_decomposition,
                               width_witness)


def _random_graph(seed, max_n=12, p=0.4):
    rng = random.Random(seed)
    n = rng.randint(2, max_n)
    verts = list(range(n))
    return Graph(verts, [(u, v) for u in verts for v in verts
                         if u < v and rng.random() < p])


class TestValidation:
    def test_single_bag_always_valid(self):
        for g in (complete_graph(5), path_graph(4), Graph([0, 1])):
            assert validate_decomposition(g, single_bag_decomposition(g))

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
            g = _random_graph(seed, max_n=10)
            tw, td = exact_treewidth(g)
            assert td.width() == tw
            assert validate_decomposition(g, td)

    def test_two_algorithms_agree(self):
        for seed in range(60):
            g = _random_graph(seed, max_n=11)
            assert exact_treewidth(g)[0] == exact_treewidth_bb(g)

    def test_monotone_under_subgraphs(self):
        for seed in range(15):
            g = _random_graph(seed, max_n=9, p=0.5)
            tw, _ = exact_treewidth(g)
            h = g.remove_vertices([g.sorted_vertices()[0]])
            assert exact_treewidth(h)[0] <= tw
            if g.edges:
                h2 = g.remove_edges([g.sorted_edges()[0]])
                assert exact_treewidth(h2)[0] <= tw


class TestWitnessHelpers:
    def test_minfill_is_valid_upper_bound(self):
        for seed in range(20):
            g = _random_graph(seed, max_n=11)
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

