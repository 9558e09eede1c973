"""Wall signatures and characteristics: the data that makes two walls
interchangeable for the replacement argument, plus the parameter formulas
with their tower-of-exponentials growth.

The raw-comprehension evaluator in `sigoracle` is the authority for every
derived value here; this module's searches must agree with it entry for entry.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from itertools import combinations, product
from math import isqrt
from typing import Iterable

from .config import DEFAULTS, PipelineConfig
from .errors import InputError, ResourceLimitError
from .graphs import Graph, vertex_key
from .logic import (Formula, GaifmanSentence, LocalValues, check_fol, check_local,
                    eval_gaifman, scattered_sets)
# is_planar, planar_with_additions and subsets_up_to are not called here but
# stay bound: the benchmark's tracer (perfbench/spans.py) wraps them in this
# module
from .modification import (ModificationSet, Operation, PlanarSets, affected,  # noqa: F401
                           application_domain, apply, planar_sets, subsets_up_to)
from .planarity import is_planar, planar_with_additions  # noqa: F401
# extended_compass is not called here but stays bound: the benchmark's tracer
# (perfbench/spans.py) wraps it in this module
from .walls import ExtendedCompass, extended_compass  # noqa: F401

EXACT_W_EXPONENT_LIMIT = 1 << 21  # bits; beyond this w is rendered, not computed
# The constants c1 and c2 of the area argument, which the source cites but never
# quantifies. Any value keeps the contracts internally consistent, because both
# branches of the trichotomy are verified directly.
C1 = C2 = 9


# -- parameters -----------------------------------------------------------------

@dataclass(frozen=True)
class Parameters:
    """Derived quantities of (k, phi): the largest radius r, the total ell,
    and the replacement-side d, rho, w and q. Values too large to
    materialize are strings showing the exponent tower. The area-side
    family is `area_family`'s, for a concrete q."""

    r: int
    ell: int
    d: int
    rho: int
    w: int | str
    q: int | str


def _exact_w(k: int, ell: int, rho: int) -> int | str:
    inner = (2 ** ell) * rho
    factor = (2 * k + 1) * (ell + 3)
    display = f"2^({rho}*{k + 1}*2^{inner})*{factor}"
    if inner > 64:
        return display
    exponent = rho * (k + 1) * (2 ** inner)
    if exponent > EXACT_W_EXPONENT_LIMIT:
        return display
    return factor << exponent


def _ceil_sqrt(n: int) -> int:
    s = isqrt(n)
    return s if s * s == n else s + 1


def area_family(k: int, q: int) -> dict:
    """The area-side parameter family for a concrete wall height q."""
    m = 3 * (2 * k + 1)
    r_area = 2 * (2 * m + q) + 1
    z_area = C1 * r_area + 2
    f2 = z_area - 2
    ell_area = 4 * _ceil_sqrt(k + 1) - 1
    # the side count of the block grid is rounded up to stay integral
    b = 2 * ell_area + _ceil_sqrt(ell_area ** 4 * k) * z_area
    f1 = max(C2 * b + k, C1 * q)
    return {"m": m, "r_area": r_area, "z_area": z_area, "f2": f2,
            "ell_area": ell_area, "b": b, "f1": f1}


def compute_parameters(k: int, phi: GaifmanSentence,
                       cfg: PipelineConfig = DEFAULTS) -> Parameters:
    """The defining formulas, evaluated exactly (big integers or rendered
    towers), with each desk-scale hat the config sets in place of its
    formula: d_hat for d, rho_hat for rho, q_hat for q. With no hat set the
    parameters are the source's."""
    r = phi.max_r()
    ell = phi.total_ell()
    d = cfg.d_hat if cfg.d_hat is not None else 2 * (r + (ell + 1) * r + r)
    rho = cfg.rho_hat if cfg.rho_hat is not None else (2 * k + 1) * d
    w = _exact_w(k, ell, rho)
    if cfg.q_hat is not None:
        q = cfg.q_hat
    elif isinstance(w, int):
        q = _ceil_of_scaled_sqrt(2 * rho + 1, w)
    else:
        q = f"ceil({2 * rho + 1}*sqrt({w}))"
    return Parameters(r=r, ell=ell, d=d, rho=rho, w=w, q=q)


def _ceil_of_scaled_sqrt(a: int, w: int) -> int:
    """ceil(a * sqrt(w)) for exact integers."""
    lo = isqrt(a * a * w)
    return lo if lo * lo == a * a * w else lo + 1


def z_range(params: Parameters, warn: bool = True) -> range:
    """The z indices [d, rho]. Only hats can invert the bounds, since the
    formulas give rho = (2k+1)d >= d; an inverted range is clamped."""
    d, rho = params.d, params.rho
    if d > rho:
        if warn:
            warnings.warn(f"z range [{d}, {rho}] is empty; clamped to [{rho}, {rho}]",
                          stacklevel=2)
        return range(rho, rho + 1)
    return range(d, rho + 1)


# -- signature entries -------------------------------------------------------------

@dataclass(frozen=True)
class SigEntry:
    """(Y_1, ..., Y_m, t): which basic variables can be realized by scattered
    witnesses inside the t-th compass level."""

    ys: tuple  # tuple of frozensets of 1-based indices
    t: int

    def to_json_obj(self) -> list:
        return [[sorted(y) for y in self.ys], self.t]


def sig_canonical(entries: Iterable) -> list:
    return sorted((e.to_json_obj() for e in entries))


@dataclass(frozen=True)
class Characteristic:
    """The set of realizable (z, sig, s) rows for one extended compass."""

    entries: frozenset  # of (z, frozenset[SigEntry], s)

    def to_json_obj(self) -> list:
        rows = []
        for z, sig, s in self.entries:
            rows.append({"z": z, "s": s, "sig": sig_canonical(sig)})
        rows.sort(key=lambda row: (row["z"], row["s"], json.dumps(row["sig"])))
        return rows

    def canonical_json(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True, separators=(",", ":"))


# -- shared semantics helpers (used by this module and by sigoracle) ----------------

def restrict_modset(s: ModificationSet, sub: Graph) -> ModificationSet:
    """Drop elements that do not lie entirely inside the subgraph."""
    kept = [e for e in s.sorted_elements()
            if (e in sub.vertices if s.op is Operation.VR
                else e[0] in sub.vertices and e[1] in sub.vertices)]
    return ModificationSet(s.op, kept)


def apply_within(sub: Graph, s: ModificationSet) -> Graph:
    return apply(sub, restrict_modset(s, sub))


def level_pair(ec: ExtendedCompass, t: int, r: int):
    """K^(t) and the pair (K^(t-r+1), P^(t-r+1)), indices clamped at 1."""
    kt = ec.level(t).graph
    low = ec.level(max(1, t - r + 1))
    return kt, low.graph, low.perimeter


# -- signature computation -----------------------------------------------------------

def compute_sig(ec: ExtendedCompass, r_set: Iterable, z: int, s: ModificationSet,
                phi: GaifmanSentence, params: Parameters, *,
                cfg: PipelineConfig = DEFAULTS) -> frozenset:
    """All (Y_1..Y_m, t) with t <= z realizable by scattered local witnesses
    in the modified compass tower; exhaustive search driven by check_local
    under the config's brute-force caps."""
    r_set = frozenset(r_set)
    rho = min(params.rho, ec.rho)
    if not 1 <= z <= ec.rho:
        raise InputError(f"z={z} outside the tower range [1, {ec.rho}]")
    anchor_idx = max(1, z - params.d + 1)
    anchor = ec.level(anchor_idx).graph.vertices & r_set
    if not affected(s) <= anchor:
        raise InputError("modification set affects vertices outside K^(z-d+1) ∩ R")
    r = params.r
    entries = set()
    for t in range(1, min(z, rho) + 1):
        kt, ktr, ptr = level_pair(ec, t, r)
        kt_mod = apply_within(kt, s)
        ktr_mod = apply_within(ktr, s)
        allowed = (ktr_mod.vertices - ptr) & r_set & kt_mod.vertices
        feasible = []
        for basic in phi.basics:
            feasible.append(_feasible_sizes(kt_mod, r_set, allowed, basic, cfg))
        for ys in product(*(_subsets_of_sizes(basic.ell, sizes)
                            for basic, sizes in zip(phi.basics, feasible))):
            entries.add(SigEntry(tuple(ys), t))
    return frozenset(entries)


def _subsets_of_sizes(ell: int, sizes: set) -> list:
    out = []
    universe = list(range(1, ell + 1))
    for size in sorted(sizes):
        out.extend(frozenset(c) for c in combinations(universe, size))
    return out


def _feasible_sizes(kt_mod: Graph, r_set: frozenset, allowed: frozenset, basic,
                    cfg: PipelineConfig = DEFAULTS) -> set:
    """Witness-set sizes y for which an (y, r_h)-scattered set of psi_h
    vertices exists inside `allowed`; downward closed, so one search for the
    largest size up to ell_h settles them all."""
    candidates = [v for v in sorted(allowed, key=vertex_key)
                  if check_local(kt_mod, r_set & kt_mod.vertices, v, basic.psi, basic.r,
                                 cfg=cfg)]
    top = 0
    for xs in scattered_sets(kt_mod, candidates, basic.r, basic.ell):
        top = max(top, len(xs))
        if top == basic.ell:
            break
    return set(range(0, top + 1))


def compute_char(ec: ExtendedCompass, r_set: Iterable, op: Operation, k: int,
                 phi: GaifmanSentence, params: Parameters,
                 cfg: PipelineConfig = DEFAULTS) -> Characteristic:
    """All realizable (z, sig, s) of the extended compass: some S inside
    the z-anchored region of the compass, of size exactly s, keeping the
    compass planar, with that sig.

    Planarity is decided by `PlanarSets` over the whole compass, so no
    vr/er/ec set is tested once the compass or a tested subset of it is
    planar, and no ea set once the compass or a tested subset of it is
    nonplanar."""
    r_set = frozenset(r_set)
    if len(ec.compass.vertices) > cfg.cap_compass:
        raise ResourceLimitError(
            f"compass has {len(ec.compass.vertices)} vertices, cap is {cfg.cap_compass}")
    compass_graph = ec.compass
    r_k = r_set & compass_graph.vertices
    entries = set()
    budget = cfg.cap_char_subsets
    planar = PlanarSets(compass_graph, op)
    for z in z_range(params):
        if z > ec.rho:
            continue
        anchor_idx = max(1, z - params.d + 1)
        anchor = ec.level(anchor_idx).graph.vertices & r_k
        domain = [e for e in sorted(application_domain(op, compass_graph, r_k),
                                    key=vertex_key)
                  if (affected(ModificationSet(op, [e])) <= anchor)]
        for size in range(0, k + 1):
            for combo in combinations(domain, size):
                budget -= 1
                if budget < 0:
                    raise ResourceLimitError(
                        "characteristic enumeration exceeded cap-char-subsets")
                ms = ModificationSet(op, combo)
                if not planar(ms):
                    continue
                sig = compute_sig(ec, r_k, z, ms, phi, params, cfg=cfg)
                entries.add((z, sig, size))
    return Characteristic(frozenset(entries))


# -- triples -----------------------------------------------------------------------

def first_model(g: Graph, scope: frozenset, k: int, op: Operation,
                phi: GaifmanSentence | Formula,
                cfg: PipelineConfig = DEFAULTS) -> ModificationSet | None:
    """The first S of `planar_sets` (smallest first) whose G ⊠ S models
    phi, or None. The config gives the size mode, the subset cap
    (cap_oracle_subsets) and the brute-force caps.

    A Gaifman sentence's local formulas are evaluated once per vertex of
    the scope on G, and on G ⊠ S only within distance r_h of affected(S):
    elsewhere the r_h-ball is the same in both graphs, so `LocalValues`
    supplies the value. A plain formula is checked by brute force on every
    planar G ⊠ S."""
    gaifman = isinstance(phi, GaifmanSentence)
    base = LocalValues(g, scope, phi, cfg=cfg) if gaifman else None
    for ms, h in planar_sets(g, scope, k, op, exact=cfg.size_mode == "exact",
                             cap=cfg.cap_oracle_subsets):
        r_here = scope & h.vertices
        if (eval_gaifman(h, r_here, phi, cfg=cfg, base=base, touched=affected(ms))
                if gaifman else check_fol(h, r_here, phi, cfg=cfg)):
            return ms
    return None


def is_triple(g: Graph, r_set: Iterable, k: int, op: Operation,
              phi: GaifmanSentence, cfg: PipelineConfig = DEFAULTS, *,
              want_witness: bool = False):
    """Does some S ⊆ op⟨G, R⟩ within the budget make G ⊠ S planar and a model
    of the annotated sentence? `first_model` under the annotated reading."""
    annotated = phi if phi.annotated else GaifmanSentence(phi.basics, phi.combination, True)
    witness = first_model(g, frozenset(r_set), k, op, annotated, cfg)
    return (witness is not None, witness) if want_witness else witness is not None
