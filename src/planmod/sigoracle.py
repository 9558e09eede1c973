"""Raw set-comprehension evaluators for signatures and characteristics.

Deliberately naive: every candidate tuple is enumerated and every local
formula is evaluated on the whole modified level by plain quantifier
expansion (never through check_local), so this module shares only the
semantics helpers with `signatures`, not its search strategy. It is the
authority that module is tested against.
"""

from __future__ import annotations

from itertools import combinations, product
from typing import Iterable

from .config import DEFAULTS, PipelineConfig
from .errors import InputError
from .graphs import Graph, is_scattered, vertex_key
from .logic import GaifmanSentence, eval_with_env
from .modification import ModificationSet, Operation, affected, application_domain, apply
from .planarity import is_planar
from .signatures import (Characteristic, Parameters, SigEntry, apply_within,
                         level_pair, z_range)
from .walls import ExtendedCompass


def sig_oracle(ec: ExtendedCompass, r_set: Iterable, z: int, s: ModificationSet,
               phi: GaifmanSentence, params: Parameters, *,
               cfg: PipelineConfig = DEFAULTS) -> frozenset:
    """Literal transcription of the signature comprehension; each local
    formula is evaluated under the config's brute-force caps."""
    r_set = frozenset(r_set)
    if not 1 <= z <= ec.rho:
        raise InputError(f"z={z} outside the tower range [1, {ec.rho}]")
    rho = min(params.rho, ec.rho)
    r = params.r
    entries = set()
    index_sets = [list(range(1, b.ell + 1)) for b in phi.basics]
    all_ys = [tuple(frozenset(c) for size in range(len(idx) + 1)
                    for c in combinations(idx, size))
              for idx in index_sets]
    for t in range(1, rho + 1):
        if t > z:
            continue
        kt, ktr, ptr = level_pair(ec, t, r)
        kt_mod = apply_within(kt, s)
        ktr_mod = apply_within(ktr, s)
        pool = sorted((ktr_mod.vertices - ptr) & r_set & kt_mod.vertices,
                      key=vertex_key)
        r_here = r_set & kt_mod.vertices
        for ys in product(*all_ys):
            if all(_witness_exists(kt_mod, r_here, pool, phi.basics[h], len(ys[h]), cfg)
                   for h in range(len(ys))):
                entries.add(SigEntry(tuple(ys), t))
    return frozenset(entries)


def _witness_exists(kt_mod: Graph, r_here: frozenset, pool: list, basic, size: int,
                    cfg: PipelineConfig = DEFAULTS) -> bool:
    var = basic.psi_var
    for combo in combinations(pool, size):
        if not is_scattered(kt_mod, combo, size, basic.r):
            continue
        if all(eval_with_env(kt_mod, r_here, basic.psi,
                             {var: x} if basic.psi.free_variables() else {}, cfg=cfg)
               for x in combo):
            return True
    return False


def char_oracle(ec: ExtendedCompass, r_set: Iterable, op: Operation,
                k: int, phi: GaifmanSentence, params: Parameters,
                cfg: PipelineConfig = DEFAULTS) -> Characteristic:
    """Literal transcription of the characteristic comprehension, under the
    config's brute-force caps."""
    r_set = frozenset(r_set)
    compass_graph = ec.compass
    r_k = r_set & compass_graph.vertices
    domain = sorted(application_domain(op, compass_graph, r_k), key=vertex_key)
    rows = set()
    for z in z_range(params, warn=False):
        if z > ec.rho:
            continue
        anchor = ec.level(max(1, z - params.d + 1)).graph.vertices & r_k
        for size in range(0, k + 1):
            for combo in combinations(domain, size):
                ms = ModificationSet(op, combo)
                if not affected(ms) <= anchor:
                    continue
                if not is_planar(apply(compass_graph, ms)):
                    continue
                rows.add((z, sig_oracle(ec, r_k, z, ms, phi, params, cfg=cfg), size))
    return Characteristic(frozenset(rows))
