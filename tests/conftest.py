import os
import sys

import pytest
from hypothesis import settings

sys.path.insert(0, os.path.dirname(__file__))

# Property tests draw the same examples on every run and never fail on time,
# so a slow machine cannot turn them red.
settings.register_profile("planmod", derandomize=True, deadline=None)
settings.load_profile("planmod")

from planmod.graphs import Graph


@pytest.fixture
def rng():
    import random
    return random.Random(0xC0FFEE)


def adj_of(g: Graph) -> dict:
    return {v: set(g.adj[v]) for v in g.vertices}
