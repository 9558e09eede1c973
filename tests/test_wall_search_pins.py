"""Pins the node order of the wall search.

`wall_search_pins.json` holds, for a few fixed hosts, both values of q and
each node budget below, the digests of the walls that a fresh
`walls.WallSearch` yields (in order) and whether its node budget fired. Its walls feed the pipeline's irrelevant-region branch, so any change
to it that moves one of them, or moves the node at which the budget fires,
changes traces. The "p1" in each case id names these direct-edge runs, whose
every wall path is one edge (paths of length 1).

Regenerate (only when such a change is intended) with

    PYTHONPATH=src python tests/test_wall_search_pins.py
"""

import hashlib
import json
import os
import random

import pytest

from planmod.errors import ResourceLimitError
from planmod.graphs import Graph
from planmod.walls import WallSearch, make_elementary_wall, subdivide_wall

PINS = os.path.join(os.path.dirname(__file__), "wall_search_pins.json")
HOSTS = ("elementary-5", "elementary-7", "subdivided-5", "elementary-7-minus-2")
QS = (3, 5)
FIRST = 5
BUDGETS = (50, 500, 5000)
CASES = [(name, q, b) for name in HOSTS for q in QS for b in BUDGETS]


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


def run(g: Graph, q: int, budget: int) -> dict:
    digests = []
    raised = False
    try:
        for w in WallSearch().walls(g, q, budget):
            digests.append(wall_digest(w))
    except ResourceLimitError:
        raised = True
    whole = hashlib.sha256(",".join(digests).encode()).hexdigest()[:16]
    return {"first": digests[:FIRST], "yielded": len(digests),
            "all": whole, "raised": raised}


def case_id(name, q, budget) -> str:
    return f"{name}/q{q}/p1/b{budget}"


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


@pytest.mark.parametrize("name,q,budget", CASES, ids=[case_id(*c) for c in CASES])
def test_wall_search_matches_pins(pins, host_graphs, name, q, budget):
    assert run(host_graphs[name], q, budget) == pins[case_id(name, q, budget)]


def test_pins_cover_both_outcomes(pins):
    # the fixture is only a pin if it holds runs that hit the budget and
    # runs that finish, and runs that yield walls
    assert len(pins) == len(CASES)
    assert any(v["raised"] for v in pins.values())
    assert any(not v["raised"] for v in pins.values())
    assert any(v["yielded"] for v in pins.values())


if __name__ == "__main__":
    with open(PINS, "w") as f:
        json.dump(record(), f, indent=1, sort_keys=True)
        f.write("\n")
