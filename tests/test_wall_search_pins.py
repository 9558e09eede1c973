"""Pins the node order of the wall searches.

`wall_search_pins.json` holds, for a few fixed hosts, both values of q and
each (max_path, node_budget) run below, the digests of the walls the search
yields (in order) and whether its node budget fired. The max_path 1 runs
are the production kernel `walls.find_wall_subdivisions`, whose walls feed
the pipeline's irrelevant-region branch, so any change to it that moves one
of them, or moves the node at which the budget fires, changes traces. The
max_path 3 and 12 runs are the general reference search of
`wall_reference.py`, which at max_path 1 visits the kernel's nodes in the
kernel's order.

Regenerate (only when such a change is intended) with

    PYTHONPATH=src python tests/test_wall_search_pins.py
"""

import hashlib
import json
import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from wall_reference import find_wall_subdivisions as reference_search

from planmod.errors import ResourceLimitError
from planmod.graphs import Graph
from planmod.walls import (find_wall_subdivisions, make_elementary_wall,
                           subdivide_wall)

PINS = os.path.join(os.path.dirname(__file__), "wall_search_pins.json")
HOSTS = ("elementary-5", "elementary-7", "subdivided-5", "elementary-7-minus-2")
QS = (3, 5)
FIRST = 5
# (max_path, node_budget); max_path 3 yields hundreds of walls, so its
# largest budget pins a long stretch of the node order
RUNS = ((1, 50), (1, 500), (1, 5000), (3, 500), (3, 5000), (3, 40_000),
        (12, 50), (12, 500), (12, 5000))
CASES = [(name, q, p, b) for name in HOSTS for q in QS for p, b in RUNS]


def hosts() -> dict:
    seven = make_elementary_wall(7).graph
    return {
        "elementary-5": make_elementary_wall(5).graph,
        "elementary-7": seven,
        "subdivided-5": subdivide_wall(make_elementary_wall(5),
                                       rng=random.Random(5)).graph,
        "elementary-7-minus-2": seven.remove_vertices([20, 61]),
    }


def wall_digest(w) -> str:
    coords = sorted((v, list(p)) for v, p in w.branch_coords.items())
    paths = sorted(([list(e[0]), list(e[1])], list(path))
                   for e, path in w.paths.items())
    blob = json.dumps([w.height, coords, paths], separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def run(g: Graph, q: int, max_path: int, budget: int) -> dict:
    digests = []
    raised = False
    walls = (find_wall_subdivisions(g, q, node_budget=budget) if max_path == 1
             else reference_search(g, q, node_budget=budget, max_path=max_path))
    try:
        for w in walls:
            digests.append(wall_digest(w))
    except ResourceLimitError:
        raised = True
    whole = hashlib.sha256(",".join(digests).encode()).hexdigest()[:16]
    return {"first": digests[:FIRST], "yielded": len(digests),
            "all": whole, "raised": raised}


def case_id(name, q, max_path, budget) -> str:
    return f"{name}/q{q}/p{max_path}/b{budget}"


def record() -> dict:
    gs = hosts()
    return {case_id(*c): run(gs[c[0]], *c[1:]) for c in CASES}


@pytest.fixture(scope="module")
def pins():
    with open(PINS) as f:
        return json.load(f)


@pytest.fixture(scope="module")
def host_graphs():
    return hosts()


@pytest.mark.parametrize("name,q,max_path,budget", CASES,
                         ids=[case_id(*c) for c in CASES])
def test_wall_search_matches_pins(pins, host_graphs, name, q, max_path, budget):
    assert run(host_graphs[name], q, max_path, budget) == \
        pins[case_id(name, q, max_path, budget)]


def test_pins_cover_both_outcomes(pins):
    # the fixture is only a pin if it holds runs that hit the budget and
    # runs that finish, and runs that yield walls
    assert len(pins) == len(CASES)
    assert any(v["raised"] for v in pins.values())
    assert any(not v["raised"] for v in pins.values())
    assert any(v["yielded"] for v in pins.values())


@st.composite
def graph_and_source(draw):
    n = draw(st.integers(1, 25))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=40)) if pairs else []
    return Graph(range(n), edges), draw(st.integers(0, n - 1)), draw(st.integers(0, 8))


@settings(max_examples=150)
@given(graph_and_source())
def test_depth_bounded_bfs_is_truncated_bfs(case):
    g, source, r = case
    full = g.bfs_distances(source)
    assert g.bfs_distances(source, r) == {v: d for v, d in full.items() if d <= r}


if __name__ == "__main__":
    with open(PINS, "w") as f:
        json.dump(record(), f, indent=1, sort_keys=True)
        f.write("\n")
