"""Pins the results of `solver.find_minor_model`.

`minor_model_pins.json` holds, for each (host, pattern, centre, node budget)
run below, a digest of the model the search returns, or of None when it
finds none within the budget. The hosts are 40 planted (K5, 1-3)-stars
and 60 random graphs searched for (K5, 1)- and (K5, 2)-stars; the budgets
run from a few dozen nodes to 200 000. Any change to the search that moves
a model, or moves the node at which the budget fires, fails here.

Regenerate (only when such a change is intended) with

    PYTHONPATH=src python tests/test_minor_model_pins.py
"""

import hashlib
import json
import os
import random

import pytest
from graph_helpers import planted_star

from planmod.fixtures import random_graph
from planmod.graphs import k5_star, vertex_key
from planmod.solver import find_minor_model

PINS = os.path.join(os.path.dirname(__file__), "minor_model_pins.json")
PLANTED_BUDGETS = (20, 60, 200, 1_000, 200_000)
RANDOM_BUDGETS = (30, 300, 3_000)


def searches() -> list:
    """(case id, host, pattern, hub, centre, budget) for every pinned run."""
    out = []
    rng = random.Random(20211)
    for t in range(40):
        host, center, pattern, hub = planted_star(rng, 1 + t % 3)
        out += [(f"planted-{t}/b{b}", host, pattern, hub, center, b)
                for b in PLANTED_BUDGETS]
    rng = random.Random(5)
    for t in range(60):
        host = random_graph(rng, rng.randint(8, 14), 0.55)
        center = rng.choice(host.sorted_vertices())
        for copies in (1, 2):
            pattern, hub = k5_star(copies)
            out += [(f"random-{t}/c{copies}/b{b}", host, pattern, hub, center, b)
                    for b in RANDOM_BUDGETS]
    return out


SEARCHES = searches()


def model_digest(model) -> str:
    rows = None if model is None else \
        sorted([p, sorted(vs, key=vertex_key)] for p, vs in model.items())
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]


def run(host, pattern, hub, center, budget) -> str:
    return model_digest(find_minor_model(host, pattern, hub, center, budget))


def record() -> dict:
    return {case: run(*args) for case, *args in SEARCHES}


@pytest.fixture(scope="module")
def pins():
    with open(PINS) as f:
        return json.load(f)


@pytest.mark.parametrize("case,host,pattern,hub,center,budget", SEARCHES,
                         ids=[s[0] for s in SEARCHES])
def test_minor_model_matches_pins(pins, case, host, pattern, hub, center, budget):
    assert run(host, pattern, hub, center, budget) == pins[case]


def test_pins_cover_both_outcomes(pins):
    # the fixture is only a pin if it holds runs that find a model and runs
    # that do not
    none = model_digest(None)
    assert len(pins) == len(SEARCHES) == 560
    assert any(d == none for d in pins.values())
    assert any(d != none for d in pins.values())


if __name__ == "__main__":
    with open(PINS, "w") as f:
        json.dump(record(), f, indent=1, sort_keys=True)
        f.write("\n")
