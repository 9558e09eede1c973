"""The tree-walking evaluator that `Formula.compiled` replaced, kept as the
reference for it: it dispatches on the node type at every step, and it
finds a formula's free variables and quantifier depth by walking the tree
on every call, so it is slow but plainly follows the definitions. Beside it,
the witness scan that `LocalValues` replaced, the reference for
`logic.basic_witness`."""

from typing import Collection, Iterable, Mapping

from planmod import logic
from planmod.config import DEFAULTS, PipelineConfig
from planmod.errors import InputError, ResourceLimitError
from planmod.graphs import Graph
from planmod.logic import (Adj, And, Basic, BasicSentence, Const, Eq, Exists, Forall,
                           Formula, InR, Not, Or)


def free_variables(f: Formula) -> frozenset:
    if isinstance(f, (Exists, Forall)):
        return free_variables(f.body) - {f.var}
    if isinstance(f, (And, Or)):
        return free_variables(f.left) | free_variables(f.right)
    if isinstance(f, Not):
        return free_variables(f.body)
    if isinstance(f, (Adj, Eq)):
        return frozenset((f.x, f.y))
    if isinstance(f, InR):
        return frozenset((f.x,))
    if isinstance(f, Basic):
        return frozenset((f.index,))
    return frozenset()


def quantifier_depth(f: Formula) -> int:
    if isinstance(f, (Exists, Forall)):
        return 1 + quantifier_depth(f.body)
    if isinstance(f, (And, Or)):
        return max(quantifier_depth(f.left), quantifier_depth(f.right))
    if isinstance(f, Not):
        return quantifier_depth(f.body)
    return 0


def reference_eval(f: Formula, g: Graph | None, r_set: frozenset, env: Mapping,
                   domain: Collection) -> bool:
    if isinstance(f, (Exists, Forall)):
        # bind in a copy, so that a name bound again keeps its outer value
        # outside
        exists, env = isinstance(f, Exists), dict(env)
        for v in domain:
            env[f.var] = v
            if reference_eval(f.body, g, r_set, env, domain) == exists:
                return exists
        return not exists
    if isinstance(f, And):
        return (reference_eval(f.left, g, r_set, env, domain)
                and reference_eval(f.right, g, r_set, env, domain))
    if isinstance(f, Or):
        return (reference_eval(f.left, g, r_set, env, domain)
                or reference_eval(f.right, g, r_set, env, domain))
    if isinstance(f, Not):
        return not reference_eval(f.body, g, r_set, env, domain)
    if isinstance(f, Adj):
        return g.has_edge(env[f.x], env[f.y])
    if isinstance(f, Eq):
        return env[f.x] == env[f.y]
    if isinstance(f, InR):
        return env[f.x] in r_set
    if isinstance(f, Const):
        return f.value
    if isinstance(f, Basic):
        return env[f.index]
    raise TypeError(f"not a formula node: {f!r}")


def reference_eval_with_env(g: Graph, r_set: Iterable, phi: Formula, env: Mapping, *,
                            domain: Collection | None = None,
                            cfg: PipelineConfig = DEFAULTS) -> bool:
    """`logic.eval_with_env` as first written: the same checks, in the same
    order and with the same messages, then the tree walk."""
    missing = free_variables(phi) - set(env)
    if missing:
        raise InputError(f"unbound free variables {sorted(missing)}")
    if domain is None:
        domain = g.vertices
    if len(domain) > cfg.cap_brute_vertices:
        raise ResourceLimitError(
            f"brute-force evaluation capped at {cfg.cap_brute_vertices} vertices, "
            f"got {len(domain)}")
    d = quantifier_depth(phi)
    if d > cfg.cap_quant_depth:
        raise ResourceLimitError(f"quantifier depth {d} exceeds the cap {cfg.cap_quant_depth}")
    return reference_eval(phi, g, frozenset(r_set), env, domain)


def reference_basic_witness(g: Graph, r_set: frozenset, basic: BasicSentence, *,
                            cfg: PipelineConfig = DEFAULTS) -> tuple | None:
    """`logic.basic_witness` as first written: psi evaluated at every vertex
    of r_set on g, in sorted order, so the first vertex that raises, raises;
    then the first (ell, r)-scattered set of the vertices where it holds."""
    psi, r = basic.psi, basic.r
    candidates = [v for v in g.sorted_vertices()
                  if v in r_set and logic.check_local(g, r_set, v, psi, r, cfg=cfg)]
    if len(candidates) < basic.ell:
        return None
    return next((xs for xs in logic.scattered_sets(g, candidates, r, basic.ell)
                 if len(xs) == basic.ell), None)
