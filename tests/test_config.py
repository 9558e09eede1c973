"""The config is the one home of every cap and hat: each function that reads
a cap takes the config, and every default comes from `config.DEFAULTS`."""

import dataclasses
import importlib
import inspect
import pkgutil

import pytest

import planmod
from planmod import config, treewidth
from planmod.config import DEFAULTS, PipelineConfig
from planmod.errors import InputError, ResourceLimitError
from planmod.fixtures import IS_ISOLATED, TRIVIALLY_TRUE, fixed_sentences
from planmod.graphs import Graph, complete_graph
from planmod.logic import (BasicSentence, GaifmanSentence, check_fol, check_local,
                           eval_gaifman, parse_combination, parse_formula)
from planmod.modification import ModificationSet, Operation
from planmod.signatures import compute_parameters, compute_sig, first_model, is_triple
from planmod.solver import Instance, solve_oracle, solve_pipeline
from planmod.walls import extended_compass, make_elementary_wall

# a local formula of quantifier depth 2, so a depth cap of 1 fires
PHI = dict(fixed_sentences())["triangle-vertex"]
PSI = PHI.basics[0].psi
CLOSED = parse_formula("exists x. exists y. adj(x,y)")
K3 = complete_graph(3)


def _compute_sig(cfg):
    wall = make_elementary_wall(7)
    ec = extended_compass(wall.graph, wall, 2)
    params = compute_parameters(1, PHI, PipelineConfig(rho_hat=2, d_hat=2, q_hat=3))
    return compute_sig(ec, wall.graph.vertices, 1, ModificationSet(Operation.VR),
                       PHI, params, cfg=cfg)


CALLS = {
    "check_fol": lambda cfg: check_fol(K3, K3.vertices, CLOSED, cfg=cfg),
    "check_local": lambda cfg: check_local(K3, K3.vertices, 0, PSI, 1, cfg=cfg),
    "eval_gaifman": lambda cfg: eval_gaifman(K3, K3.vertices, PHI, cfg=cfg),
    "compute_sig": _compute_sig,
    "first_model": lambda cfg: first_model(K3, K3.vertices, 0, Operation.VR, PHI, cfg),
    "is_triple": lambda cfg: is_triple(K3, K3.vertices, 0, Operation.VR, PHI, cfg),
    "solve_oracle": lambda cfg: solve_oracle(Instance(K3, 0, Operation.VR, PHI), cfg),
}
CAPPED = {
    "vertices": (PipelineConfig(cap_brute_vertices=2),
                 r"^brute-force evaluation capped at 2 vertices, got \d+$"),
    "depth": (PipelineConfig(cap_quant_depth=1),
              r"^quantifier depth 2 exceeds the cap 1$"),
}


@pytest.mark.parametrize("cap", sorted(CAPPED))
@pytest.mark.parametrize("call", sorted(CALLS))
def test_brute_force_caps_reach_every_evaluation(call, cap):
    cfg, message = CAPPED[cap]
    with pytest.raises(ResourceLimitError, match=message):
        CALLS[call](cfg)
    CALLS[call](DEFAULTS)  # the same call finishes under the default caps


# budget parameters and the config field each one's default must equal
BUDGETS = {"node_budget": "cap_wall_nodes"}


def _signatures():
    """(qualified name, signature) for every function and method that a
    module of the package defines, outside the config itself."""
    for info in pkgutil.iter_modules(planmod.__path__):
        if info.name == "config":
            continue
        module = importlib.import_module(f"planmod.{info.name}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            members = vars(obj).items() if inspect.isclass(obj) else [(None, obj)]
            for attr, fn in members:
                if inspect.isfunction(fn):
                    yield f"{info.name}.{name}" + (f".{attr}" if attr else ""), \
                        inspect.signature(fn)


def test_every_default_is_the_config():
    checked = set()
    for qualname, sig in _signatures():
        for p in sig.parameters.values():
            assert p.name not in ("max_vertices", "max_depth", "size_mode"), qualname
            if p.name == "cfg" and p.default is not p.empty:
                assert p.default is config.DEFAULTS, qualname
                checked.add(qualname)
            elif p.name in BUDGETS and p.default is not None:
                assert p.default == getattr(DEFAULTS, BUDGETS[p.name]), (qualname, p.name)
                checked.add(qualname)
    assert {"solver.find_minor_model", "solver.has_k5_star_minor",
            "walls.wall_candidates",
            "logic.LocalValues.__init__",
            "sigoracle._witness_exists", "signatures.compute_parameters"} <= checked


def test_treewidth_reads_no_config_cap():
    # the pipeline's width witnesses are min-fill; only the exact algorithms,
    # which no run calls, take a vertex cap, with the module's own default
    assert list(inspect.signature(treewidth.width_witness).parameters) == ["g", "bound"]
    for fn in (treewidth.exact_treewidth, treewidth.exact_treewidth_bb):
        assert inspect.signature(fn).parameters["cap"].default == treewidth.EXACT_CAP


# For each switch and cap: (instance, base config, value) where replacing the
# field's base value by `value` changes solve_pipeline's answer, witness or
# untimed trace, or makes the run raise. For each hat: a value under which
# compute_parameters differs from the default's. A field with no entry here
# fails `test_every_config_field_is_live`, so no field can go unread.
WALLS = PipelineConfig(q_hat=7, rho_hat=1, d_hat=1)
WALL7 = Instance(make_elementary_wall(7).graph, 1, Operation.VR,
                 dict(fixed_sentences())["annotated-neighbor"])
PATH = Graph(range(3), [(0, 1), (1, 2)])
ISOLATED = GaifmanSentence((BasicSentence(1, 1, IS_ISOLATED),), parse_combination("1"))
SOLVES = {
    "size_mode": (Instance(PATH, 1, Operation.VR, TRIVIALLY_TRUE), DEFAULTS, "exact"),
    "cross_check": (Instance(PATH, 1, Operation.VR, TRIVIALLY_TRUE), DEFAULTS, False),
    "cap_oracle_subsets": (Instance(PATH, 1, Operation.VR, ISOLATED), DEFAULTS, 1),
    "cap_char_subsets": (WALL7, WALLS, 1),
    "cap_wall_nodes": (WALL7, WALLS, 4),
    "cap_compass": (WALL7, WALLS, 1),
    "cap_brute_vertices": (Instance(PATH, 1, Operation.VR, TRIVIALLY_TRUE), DEFAULTS, 1),
    "cap_quant_depth": (Instance(PATH, 1, Operation.VR, PHI), DEFAULTS, 1),
}
HATS = {"rho_hat": 1, "q_hat": 5, "d_hat": 1}


def _solve(inst, cfg):
    try:
        res = solve_pipeline(inst, cfg)
    except (ResourceLimitError, InputError) as exc:
        return type(exc).__name__
    return res.answer, res.witness, res.trace_json_obj()


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(PipelineConfig)])
def test_every_config_field_is_live(name):
    assert name in SOLVES or name in HATS, f"{name} has no case that reads it"
    if name in HATS:
        changed = dataclasses.replace(DEFAULTS, **{name: HATS[name]})
        assert compute_parameters(1, PHI, changed) != compute_parameters(1, PHI, DEFAULTS)
        return
    inst, base, value = SOLVES[name]
    assert getattr(base, name) != value
    before = _solve(inst, base)
    assert isinstance(before, tuple), before
    assert _solve(inst, dataclasses.replace(base, **{name: value})) != before
