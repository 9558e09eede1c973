"""Shipped example sentences, random-instance generators, and the crafted
signature suite. Used by the check subcommand and the test suite alike."""

from __future__ import annotations

import random

from .config import PipelineConfig
from .errors import InputError
from .graphs import Graph
from .logic import BasicSentence, GaifmanSentence, parse_combination, parse_formula
from .modification import Operation
from .signatures import compute_parameters
from .walls import make_elementary_wall, subdivide_wall

HAS_NEIGHBOR = parse_formula("exists y. adj(x,y)")
IS_ISOLATED = parse_formula("~(exists y. adj(x,y))")
IN_TRIANGLE = parse_formula(
    "exists y. exists z. adj(x,y) & adj(x,z) & adj(y,z) & ~(y=z)")
HAS_DISTANCE_TWO = parse_formula(
    "exists y. exists z. adj(x,y) & adj(y,z) & ~(x=z) & ~adj(x,z)")
ALWAYS = parse_formula("true")


def fixed_sentences() -> list:
    """Five Gaifman sentences used by the agreement and soundness batteries."""
    return [
        ("annotated-neighbor",
         GaifmanSentence((BasicSentence(1, 1, HAS_NEIGHBOR),),
                         parse_combination("1"))),
        ("two-far-vertices",
         GaifmanSentence((BasicSentence(2, 1, ALWAYS),),
                         parse_combination("1"))),
        ("isolated-but-not-two-matched",
         GaifmanSentence((BasicSentence(1, 1, IS_ISOLATED),
                          BasicSentence(2, 1, HAS_NEIGHBOR)),
                         parse_combination("1 & ~2"))),
        ("triangle-vertex",
         GaifmanSentence((BasicSentence(1, 1, IN_TRIANGLE),),
                         parse_combination("1"))),
        ("distance-two-or-two-scattered",
         GaifmanSentence((BasicSentence(1, 2, HAS_DISTANCE_TWO),
                          BasicSentence(2, 2, ALWAYS)),
                         parse_combination("1 | 2"))),
    ]


def shipped_local_formulas() -> list:
    """(psi, declared radius) for every local formula shipped above."""
    seen = []
    for _, phi in fixed_sentences():
        for basic in phi.basics:
            if (basic.psi, basic.r) not in seen:
                seen.append((basic.psi, basic.r))
    return seen


TRIVIALLY_TRUE = GaifmanSentence((BasicSentence(1, 1, ALWAYS),),
                                 parse_combination("1 | ~1"))


def random_graph(rng: random.Random, n: int, p: float = 0.4) -> Graph:
    if n < 0:
        raise InputError(f"vertex count must be >= 0, got {n}")
    if not 0 <= p <= 1:
        raise InputError(f"edge probability must lie in [0, 1], got {p}")
    verts = list(range(n))
    edges = [(u, v) for u in verts for v in verts if u < v and rng.random() < p]
    return Graph(verts, edges)


def random_annotated(rng: random.Random, n_max: int) -> tuple:
    n = rng.randint(1, n_max)
    g = random_graph(rng, n)
    r_set = frozenset(v for v in g.vertices if rng.random() < 0.6)
    return g, r_set


def random_instances(seed: int, count: int):
    """Deterministic stream of (graph, k, op, sentence) for the soundness
    battery: 3-9 vertices, k <= 2."""
    rng = random.Random(seed)
    sentences = fixed_sentences()
    ops = list(Operation)
    for _ in range(count):
        n = rng.randint(3, 9)
        g = random_graph(rng, n, rng.choice((0.3, 0.45, 0.6)))
        k = rng.randint(0, 2)
        op = rng.choice(ops)
        name, phi = sentences[rng.randrange(len(sentences))]
        yield g, k, op, phi, name


# -- crafted signature suite --------------------------------------------------------

def sig_suite_config() -> PipelineConfig:
    # one-level towers keep every compass at or below 40 vertices
    return PipelineConfig(rho_hat=1, d_hat=1, q_hat=3)


def crafted_sig_instances() -> list:
    """At least 20 instances (wall, host graph, annotations, op, k, sentence)
    with compasses of at most 40 vertices, for the oracle-equality battery."""
    cfg = sig_suite_config()
    base_phis = [
        GaifmanSentence((BasicSentence(1, 1, HAS_NEIGHBOR),), parse_combination("1")),
        GaifmanSentence((BasicSentence(2, 1, ALWAYS),), parse_combination("1")),
    ]
    instances = []
    case = 0
    for phi in base_phis:
        for op in (Operation.VR, Operation.ER, Operation.EC, Operation.EA):
            for variant in range(3):
                case += 1
                wall = make_elementary_wall(3)
                if variant == 1:
                    wall = subdivide_wall(wall, rng=random.Random(case), max_extra=1)
                g = wall.graph
                if variant == 2:
                    # a pendant decoration on an interior vertex
                    inner = sorted(wall.graph.vertices)[7]
                    pid = max(g.vertices) + 1
                    g = g.add_vertices([pid]).add_edges([(pid, inner)])
                verts = sorted(g.vertices)
                r_set = frozenset(v for i, v in enumerate(verts)
                                  if (i + case) % 3 != 0)
                k = 1 if variant != 1 else 0
                params = compute_parameters(k, phi, cfg)
                instances.append({
                    "name": f"case{case}-{op.value}",
                    "wall": wall, "graph": g, "r_set": r_set,
                    "op": op, "k": k, "phi": phi, "params": params, "cfg": cfg,
                })
    return instances
