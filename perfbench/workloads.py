"""The benchmark's three workloads and their reference answers.

Every reference is independent of the pipeline: the wall answers follow from
the wall's degrees (below), and the stream answers were computed once with
`solve_oracle` and pinned in STREAM_ANSWERS.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from planmod.config import PipelineConfig
from planmod.fixtures import HAS_NEIGHBOR, IS_ISOLATED, random_instances
from planmod.logic import BasicSentence, GaifmanSentence, parse_combination
from planmod.modification import Operation
from planmod.solver import Instance
from planmod.walls import make_elementary_wall, subdivide_wall

NAMES = ("stream", "wall-checked", "wall-unchecked")

# The stream is the criterion-9 soundness stream. Its total time is set by a
# handful of star-minor searches that use up their node budget, and their
# number depends on the seed: four seeds gave totals from 6.2 s to 11.0 s.
# So the instances stay fixed and the seed only sets the order they run in.
STREAM_SEED = 9000
STREAM_SIZE = 500
# solve_oracle's answers for random_instances(STREAM_SEED, STREAM_SIZE), in
# generation order, "1" for YES.
STREAM_ANSWERS = (
    "11101001010111110111111011110011001110101111111111"
    "11111111110100101111010111110110111111011101100011"
    "10101011001000111101111111111111110011111100110110"
    "11010100111111101100111111111000101111010101011111"
    "10011110100111111101010110010011011110110011010111"
    "11101101110111110101011111011111011110001101111110"
    "11111101011111011101001110101111101011111110110111"
    "11111110001011111110111110100101011110110101011110"
    "11101001011111111101100101110111010100101110101111"
    "11111110110011111101100000101111001011111010100110"
)

# At k=1 "has a neighbour" is YES under every operation: the wall is already
# planar and has edges, so the empty set is a witness. "Is isolated" is NO:
# wall vertices have degree >= 2 and one operation lowers a degree by <= 1.
HAS_A_NEIGHBOUR = GaifmanSentence((BasicSentence(1, 1, HAS_NEIGHBOR),),
                                  parse_combination("1"))
IS_ISOLATED_SOMEWHERE = GaifmanSentence((BasicSentence(1, 1, IS_ISOLATED),),
                                        parse_combination("1"))
SENTENCES = {True: ("has-neighbour", HAS_A_NEIGHBOUR),
             False: ("isolated", IS_ISOLATED_SOMEWHERE)}


@dataclass(frozen=True)
class Case:
    label: str
    instance: Instance
    expect: bool


def _wall_case(graph, height: int, op: str, expect: bool, prefix: str = "") -> Case:
    name, phi = SENTENCES[expect]
    return Case(f"{prefix}{height}-wall {op} {name}",
                Instance(graph, 1, Operation(op), phi), expect)


def _checked_walls() -> list:
    # The 7-wall ea NO case is left out: it alone takes about 76 s checked.
    cases = []
    w7 = make_elementary_wall(7).graph
    for op in ("vr", "er", "ec"):
        for expect in (True, False):
            cases.append(_wall_case(w7, 7, op, expect))
    cases.append(_wall_case(w7, 7, "ea", True))
    w9 = make_elementary_wall(9).graph
    for expect in (True, False):
        cases.append(_wall_case(w9, 9, "vr", expect))
    return cases


def _unchecked_walls(seed: int) -> list:
    cases = _checked_walls()
    w11 = make_elementary_wall(11).graph
    for expect in (True, False):
        cases.append(_wall_case(w11, 11, "vr", expect))
    rng = random.Random(seed)
    for height in (9, 11):
        sub = subdivide_wall(make_elementary_wall(height), rng=rng, max_extra=1)
        cases.append(_wall_case(sub.graph, height, "vr", True, "subdivided "))
    return cases


def _stream(seed: int) -> list:
    cases = []
    for i, (g, k, op, phi, name) in enumerate(random_instances(STREAM_SEED, STREAM_SIZE)):
        cases.append(Case(f"#{i} {op.value} k={k} n={len(g.vertices)} {name}",
                          Instance(g, k, op, phi), STREAM_ANSWERS[i] == "1"))
    random.Random(seed).shuffle(cases)
    return cases


def build(name: str, seed: int) -> tuple:
    """(PipelineConfig, list of Case) for a workload."""
    if name == "stream":
        return PipelineConfig(), _stream(seed)
    walls = dict(rho_hat=1, d_hat=1, q_hat=7)
    if name == "wall-checked":
        return PipelineConfig(**walls), _checked_walls()
    if name == "wall-unchecked":
        return PipelineConfig(cross_check=False, **walls), _unchecked_walls(seed)
    raise ValueError(f"unknown workload {name!r}; expected one of {', '.join(NAMES)}")
