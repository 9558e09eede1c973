"""First-order formulas over graphs: parsing, brute-force model checking,
r-local evaluation, and Gaifman-sentence evaluation via scattered-set search.

Evaluation is plain quantifier expansion over the vertex set; the n^depth
cost is accepted and capped. Atoms: adjacency, equality, membership in the
annotation set R, and the constants true/false. A Gaifman sentence's Boolean
combination is a formula too, over one more atom: the index of a basic
sentence.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import inf
from typing import Iterable, Iterator, Mapping

from .config import DEFAULTS, PipelineConfig
from .errors import FormulaSyntaxError, InputError, ResourceLimitError
from .graphs import Graph, neighborhood


# -- AST -----------------------------------------------------------------------

class Formula:
    """Base class; nodes are immutable and hashable."""

    def free_variables(self) -> frozenset:
        raise NotImplementedError

    def __str__(self) -> str:
        return pretty(self)


@dataclass(frozen=True)
class Exists(Formula):
    var: str
    body: Formula

    def free_variables(self):
        return self.body.free_variables() - {self.var}


@dataclass(frozen=True)
class Forall(Formula):
    var: str
    body: Formula

    def free_variables(self):
        return self.body.free_variables() - {self.var}


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula

    def free_variables(self):
        return self.left.free_variables() | self.right.free_variables()


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula

    def free_variables(self):
        return self.left.free_variables() | self.right.free_variables()


@dataclass(frozen=True)
class Not(Formula):
    body: Formula

    def free_variables(self):
        return self.body.free_variables()


@dataclass(frozen=True)
class Adj(Formula):
    x: str
    y: str

    def free_variables(self):
        return frozenset((self.x, self.y))


@dataclass(frozen=True)
class Eq(Formula):
    x: str
    y: str

    def free_variables(self):
        return frozenset((self.x, self.y))


@dataclass(frozen=True)
class InR(Formula):
    x: str

    def free_variables(self):
        return frozenset((self.x,))


@dataclass(frozen=True)
class Const(Formula):
    value: bool

    def free_variables(self):
        return frozenset()


@dataclass(frozen=True)
class Basic(Formula):
    """The truth value of a Gaifman sentence's index-th basic sentence
    (1-based). It occurs only in combinations, where the indices are the
    free variables and `_eval` reads their values from its env."""
    index: int

    def free_variables(self):
        return frozenset((self.index,))


TRUE = Const(True)
FALSE = Const(False)


def pretty(f: Formula) -> str:
    if isinstance(f, Exists):
        return f"exists {f.var}. {pretty(f.body)}"
    if isinstance(f, Forall):
        return f"forall {f.var}. {pretty(f.body)}"
    if isinstance(f, And):
        return f"({pretty(f.left)} & {pretty(f.right)})"
    if isinstance(f, Or):
        return f"({pretty(f.left)} | {pretty(f.right)})"
    if isinstance(f, Not):
        if isinstance(f.body, (Exists, Forall)):
            return f"~({pretty(f.body)})"
        return f"~{pretty(f.body)}"
    if isinstance(f, Adj):
        return f"adj({f.x},{f.y})"
    if isinstance(f, Eq):
        return f"{f.x} = {f.y}"
    if isinstance(f, InR):
        return f"{f.x} in R"
    if isinstance(f, Const):
        return "true" if f.value else "false"
    if isinstance(f, Basic):
        return str(f.index)
    raise TypeError(f"not a formula node: {f!r}")


def quantifier_depth(f: Formula) -> int:
    if isinstance(f, (Exists, Forall)):
        return 1 + quantifier_depth(f.body)
    if isinstance(f, (And, Or)):
        return max(quantifier_depth(f.left), quantifier_depth(f.right))
    if isinstance(f, Not):
        return quantifier_depth(f.body)
    return 0


# -- parser ---------------------------------------------------------------------

_TOKEN = re.compile(r"(exists|forall|in|adj|true|false)\b|([A-Za-z_]\w*)|(\d+)|([().,=&|~])")
_COMBINATION_TOKENS = frozenset(("true", "false", "~", "&", "|", "(", ")"))


def _shown(tok) -> str:
    """A token as it was written, for error messages."""
    return "end of input" if tok is None else repr(tok.split(":", 1)[-1])


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.toks = []
        pos = 0
        while pos < len(text):
            if text[pos].isspace():
                pos += 1
                continue
            m = _TOKEN.match(text, pos)
            if not m:
                raise FormulaSyntaxError(f"unexpected character {text[pos]!r}", pos)
            kw, ident, index, punct = m.groups()
            if kw is not None:
                self.toks.append((kw, pos))
            elif ident is not None:
                self.toks.append(("IDENT:" + ident, pos))
            elif index is not None:
                self.toks.append(("INDEX:" + index, pos))
            else:
                self.toks.append((punct, pos))
            pos = m.end()
        self.i = 0

    def reject(self, bad, what: str):
        """Raise at the first token for which bad(token) holds."""
        for tok, pos in self.toks:
            if bad(tok):
                raise FormulaSyntaxError(f"{_shown(tok)} {what}", pos)

    def peek(self):
        return self.toks[self.i][0] if self.i < len(self.toks) else None

    def pos(self):
        return self.toks[self.i][1] if self.i < len(self.toks) else len(self.text)

    def take(self, expected=None):
        tok = self.peek()
        if tok is None:
            raise FormulaSyntaxError(f"unexpected end of input (wanted {expected})", len(self.text))
        if expected is not None and tok != expected:
            raise FormulaSyntaxError(f"expected {expected!r}, found {_shown(tok)}", self.pos())
        self.i += 1
        return tok

    def take_ident(self):
        tok = self.peek()
        if tok is None or not tok.startswith("IDENT:"):
            raise FormulaSyntaxError("expected an identifier", self.pos())
        name = tok[6:]
        if name == "R":
            raise FormulaSyntaxError("'R' is the annotation set, not a variable", self.pos())
        self.i += 1
        return name


def parse_formula(text: str) -> Formula:
    """Parse the concrete grammar; round-trips through pretty-printing.

    formula := quant | bool
    quant   := ("exists"|"forall") IDENT "." formula
    bool    := term (("&"|"|") term)*
    term    := "~" term | "(" formula ")" | atom
    atom    := "adj(" IDENT "," IDENT ")" | IDENT "=" IDENT | IDENT "in R"
             | "true" | "false" | INDEX

    "&" and "|" bind left to right with no precedence. INDEX atoms (1-based
    basic-sentence indices) belong to combinations only and are rejected
    here."""
    toks = _Tokens(text)
    toks.reject(lambda tok: tok.startswith("INDEX:"),
                "is a basic-sentence index; it belongs in a combination")
    return _parse_all(toks)


def parse_combination(text: str) -> Formula:
    """Parse a Gaifman sentence's Boolean combination: the formula grammar
    restricted to INDEX atoms, "true", "false", "~", "&", "|" and
    parentheses."""
    toks = _Tokens(text)
    toks.reject(lambda tok: not tok.startswith("INDEX:") and tok not in _COMBINATION_TOKENS,
                "cannot appear in a combination")
    return _parse_all(toks)


def _parse_all(toks: _Tokens) -> Formula:
    f = _parse_formula(toks, scope=[])
    if toks.peek() is not None:
        raise FormulaSyntaxError(f"trailing input {_shown(toks.peek())}", toks.pos())
    return f


def _parse_formula(toks: _Tokens, scope: list) -> Formula:
    if toks.peek() in ("exists", "forall"):
        kind = toks.take()
        var = toks.take_ident()
        if var in scope:
            raise FormulaSyntaxError(f"variable {var!r} shadows an enclosing quantifier", toks.pos())
        toks.take(".")
        body = _parse_formula(toks, scope + [var])
        return Exists(var, body) if kind == "exists" else Forall(var, body)
    return _parse_bool(toks, scope)


def _parse_bool(toks: _Tokens, scope: list) -> Formula:
    f = _parse_term(toks, scope)
    while toks.peek() in ("&", "|"):
        op = toks.take()
        g = _parse_term(toks, scope)
        f = And(f, g) if op == "&" else Or(f, g)
    return f


def _parse_term(toks: _Tokens, scope: list) -> Formula:
    tok = toks.peek()
    if tok == "~":
        toks.take()
        return Not(_parse_term(toks, scope))
    if tok == "(":
        toks.take()
        f = _parse_formula(toks, scope)
        toks.take(")")
        return f
    return _parse_atom(toks, scope)


def _parse_atom(toks: _Tokens, scope: list) -> Formula:
    tok = toks.peek()
    if tok == "true":
        toks.take()
        return TRUE
    if tok == "false":
        toks.take()
        return FALSE
    if tok is not None and tok.startswith("INDEX:"):
        toks.take()
        return Basic(int(tok[6:]))
    if tok == "adj":
        toks.take()
        toks.take("(")
        x = toks.take_ident()
        toks.take(",")
        y = toks.take_ident()
        toks.take(")")
        return Adj(x, y)
    if tok is None or not tok.startswith("IDENT:"):
        raise FormulaSyntaxError(f"expected an atom, found {_shown(tok)}", toks.pos())
    x = toks.take_ident()
    nxt = toks.peek()
    if nxt == "=":
        toks.take()
        return Eq(x, toks.take_ident())
    if nxt == "in":
        toks.take()
        if toks.peek() != "IDENT:R":
            raise FormulaSyntaxError("membership atom must read 'in R'", toks.pos())
        toks.take()
        return InR(x)
    raise FormulaSyntaxError("expected '=', 'in R', or 'adj(...)'", toks.pos())


# -- substitution ----------------------------------------------------------------

def rename(f: Formula, mapping: Mapping) -> Formula:
    """Substitute free variable names; bound variables are untouched."""
    if isinstance(f, (Exists, Forall)):
        inner = {k: v for k, v in mapping.items() if k != f.var}
        body = rename(f.body, inner)
        return type(f)(f.var, body)
    if isinstance(f, (And, Or)):
        return type(f)(rename(f.left, mapping), rename(f.right, mapping))
    if isinstance(f, Not):
        return Not(rename(f.body, mapping))
    if isinstance(f, Adj):
        return Adj(mapping.get(f.x, f.x), mapping.get(f.y, f.y))
    if isinstance(f, Eq):
        return Eq(mapping.get(f.x, f.x), mapping.get(f.y, f.y))
    if isinstance(f, InR):
        return InR(mapping.get(f.x, f.x))
    return f


def rename_bound(f: Formula, suffix: str) -> Formula:
    """Freshen every bound variable with a suffix (for copies side by side)."""
    if isinstance(f, (Exists, Forall)):
        fresh = f.var + suffix
        body = rename_bound(rename(f.body, {f.var: fresh}), suffix)
        return type(f)(fresh, body)
    if isinstance(f, (And, Or)):
        return type(f)(rename_bound(f.left, suffix), rename_bound(f.right, suffix))
    if isinstance(f, Not):
        return Not(rename_bound(f.body, suffix))
    return f


# -- evaluation -------------------------------------------------------------------

def _eval(f: Formula, g: Graph, r_set: frozenset, env: dict, order: list) -> bool:
    if isinstance(f, Exists):
        for v in order:
            env[f.var] = v
            if _eval(f.body, g, r_set, env, order):
                del env[f.var]
                return True
        env.pop(f.var, None)
        return False
    if isinstance(f, Forall):
        for v in order:
            env[f.var] = v
            if not _eval(f.body, g, r_set, env, order):
                del env[f.var]
                return False
        env.pop(f.var, None)
        return True
    if isinstance(f, And):
        return _eval(f.left, g, r_set, env, order) and _eval(f.right, g, r_set, env, order)
    if isinstance(f, Or):
        return _eval(f.left, g, r_set, env, order) or _eval(f.right, g, r_set, env, order)
    if isinstance(f, Not):
        return not _eval(f.body, g, r_set, env, order)
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


def _check_caps(g: Graph, f: Formula, cfg: PipelineConfig):
    if len(g.vertices) > cfg.cap_brute_vertices:
        raise ResourceLimitError(
            f"brute-force evaluation capped at {cfg.cap_brute_vertices} vertices, "
            f"got {len(g.vertices)}")
    d = quantifier_depth(f)
    if d > cfg.cap_quant_depth:
        raise ResourceLimitError(f"quantifier depth {d} exceeds the cap {cfg.cap_quant_depth}")


def check_fol(g: Graph, r_set: Iterable, phi: Formula, *,
              cfg: PipelineConfig = DEFAULTS) -> bool:
    """Brute-force truth of a closed formula on (g, r_set)."""
    free = phi.free_variables()
    if free:
        raise InputError(f"formula has free variables {sorted(free)}")
    _check_caps(g, phi, cfg)
    r_set = frozenset(r_set)
    if not r_set <= g.vertices:
        raise InputError("annotation set contains unknown vertices")
    return _eval(phi, g, r_set, {}, g.sorted_vertices())


def eval_with_env(g: Graph, r_set: Iterable, phi: Formula, env: Mapping, *,
                  cfg: PipelineConfig = DEFAULTS) -> bool:
    """Truth of a formula whose free variables are bound by env."""
    missing = phi.free_variables() - set(env)
    if missing:
        raise InputError(f"unbound free variables {sorted(missing)}")
    _check_caps(g, phi, cfg)
    return _eval(phi, g, frozenset(r_set), dict(env), g.sorted_vertices())


def check_local(g: Graph, r_set: Iterable, v, psi: Formula, r: int, *,
                cfg: PipelineConfig = DEFAULTS) -> bool:
    """Evaluate psi at v on the induced r-neighborhood, with the annotation
    restricted to it. psi has one free variable (or none, e.g. `true`).

    Reads g only inside the r-ball N_r(v): finding the ball and building its
    subgraph cost what the ball and its vertices' edges hold, not |V| or |E|.
    Pass r_set as a frozenset, so that restricting it to the ball copies
    nothing outside the ball."""
    free = sorted(psi.free_variables())
    if len(free) > 1:
        raise InputError(f"psi must have at most one free variable, has {free}")
    ball = neighborhood(g, v, r)
    sub = g.induced(ball)
    env = {free[0]: v} if free else {}
    return eval_with_env(sub, frozenset(r_set) & ball, psi, env, cfg=cfg)


def verify_locality(corpus: Iterable, psi: Formula, r: int) -> bool:
    """Empirical audit that psi is r-local over the corpus of (graph, r_set):
    full evaluation equals local evaluation at every vertex."""
    free = sorted(psi.free_variables())
    if len(free) > 1:
        raise InputError("psi must have at most one free variable")
    for g, r_set in corpus:
        for v in g.sorted_vertices():
            env = {free[0]: v} if free else {}
            full = eval_with_env(g, r_set, psi, env)
            local = check_local(g, r_set, v, psi, r)
            if full != local:
                return False
    return True


def distance_atom(r: int) -> Formula:
    """delta_r(x, y): distance(x, y) <= r, via r-1 intermediate existentials."""
    if r < 0:
        raise InputError("radius must be non-negative")
    if r == 0:
        return Eq("x", "y")
    step = lambda a, b: Or(Eq(a, b), Adj(a, b))
    inner = ["w%d" % i for i in range(1, r)]
    chain = ["x"] + inner + ["y"]
    body: Formula | None = None
    for a, b in zip(chain, chain[1:]):
        clause = step(a, b)
        body = clause if body is None else And(body, clause)
    for w in reversed(inner):
        body = Exists(w, body)
    return body


# -- Gaifman sentences -------------------------------------------------------------

@dataclass(frozen=True)
class BasicSentence:
    """exists x_1..x_ell (pairwise distance > 2r, each satisfying the r-local psi);
    in annotated form the witnesses must also lie in R."""

    ell: int
    r: int
    psi: Formula

    def __post_init__(self):
        if any(isinstance(n, bool) or not isinstance(n, int) for n in (self.ell, self.r)):
            raise InputError(f"basic sentences need integer ell and r, got "
                             f"{self.ell!r} and {self.r!r}")
        if self.ell < 1 or self.r < 1:
            raise InputError("basic sentences need ell >= 1 and r >= 1")
        if len(self.psi.free_variables()) > 1:
            raise InputError("psi must have at most one free variable")

    @property
    def psi_var(self) -> str:
        free = sorted(self.psi.free_variables())
        return free[0] if free else "x"


@dataclass(frozen=True)
class GaifmanSentence:
    """A Boolean combination of basic sentences. The combination is a
    formula over `Basic` index atoms, `true`, `false`, `~`, `&` and `|`."""

    basics: tuple
    combination: Formula
    annotated: bool = True

    def __post_init__(self):
        if not self.basics:
            raise InputError("a Gaifman sentence needs at least one basic sentence")
        bad = self.combination.free_variables() - set(range(1, len(self.basics) + 1))
        if bad:
            raise InputError(f"combination references unknown basic indices {sorted(bad)}")

    @property
    def m(self) -> int:
        return len(self.basics)

    def max_r(self) -> int:
        return max(b.r for b in self.basics)

    def total_ell(self) -> int:
        return sum(b.ell for b in self.basics)

    def scope(self, g: Graph, r_set: Iterable) -> frozenset:
        """The vertices the sentence is read under on g: R when annotated,
        all of V otherwise."""
        return frozenset(r_set) if self.annotated else g.vertices

    def combine(self, holds) -> bool:
        """The combination's truth when each basic sentence b it names has
        truth holds(b); holds is called once per named index, in order."""
        values = {h: holds(self.basics[h - 1])
                  for h in sorted(self.combination.free_variables())}
        return _eval(self.combination, None, frozenset(), values, [])

    def to_json_obj(self) -> dict:
        return {
            "basics": [{"ell": b.ell, "r": b.r, "psi": pretty(b.psi)} for b in self.basics],
            "combination": pretty(self.combination),
            "annotated": self.annotated,
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "GaifmanSentence":
        try:
            basics = tuple(BasicSentence(b["ell"], b["r"], parse_formula(b["psi"]))
                           for b in obj["basics"])
            comb = parse_combination(obj["combination"])
            annotated = obj.get("annotated", True)
        except (KeyError, TypeError) as exc:
            raise InputError(f"bad Gaifman sentence object: {exc}") from exc
        if not isinstance(annotated, bool):
            raise InputError(f"'annotated' must be true or false, got {annotated!r}")
        return cls(basics, comb, annotated)


class LocalValues:
    """The values ψ_h(v) on a base graph g and its scope, for the modified
    graphs g ⊠ S of one enumeration over g.

    Each ψ_h is r_h-local, so ψ_h(v) is read off the r_h-ball of v alone.
    When v lies at g-distance more than r_h from the touched vertices
    A = affected(S), that ball, its induced subgraph and its part of the
    scope are the same in g and in g ⊠ S: vr and er only delete at A, ec
    merges vertices of A into their least id, and ea only adds edges inside
    A, so a path of length at most r_h from v that met a changed element
    would be a path of g from v to A. Such a value is computed on g the
    first time it is asked for and then reused; every other vertex is
    evaluated on g ⊠ S. Values fill lazily, one vertex at a time, so a
    brute-force cap fires on the same set and vertex, with the same message,
    as evaluating every vertex on g ⊠ S does.

    `r_set` is read under the sentence's scope on g (`GaifmanSentence.scope`):
    R when the sentence is annotated, all of V otherwise."""

    def __init__(self, g: Graph, r_set: Iterable, phi: GaifmanSentence, *,
                 cfg: PipelineConfig = DEFAULTS):
        self.g = g
        self.r_set = phi.scope(g, r_set)
        self.cfg = cfg
        self._values: dict = {}

    def near(self, touched: Iterable, r: int) -> set:
        """The vertices within g-distance r of the touched ones."""
        out = set()
        for a in touched:
            out |= neighborhood(self.g, a, r)
        return out

    def __call__(self, v, basic: BasicSentence) -> bool:
        """ψ(v) on g under the scope, for the basic sentence's ψ and r."""
        memo = self._values.setdefault((basic.psi, basic.r), {})
        if v not in memo:
            memo[v] = check_local(self.g, self.r_set, v, basic.psi, basic.r, cfg=self.cfg)
        return memo[v]


def basic_witness(g: Graph, r_set: frozenset, basic: BasicSentence, *,
                  cfg: PipelineConfig = DEFAULTS,
                  base: LocalValues | None = None,
                  touched: frozenset = frozenset()) -> tuple | None:
    """The first (in lexicographic order) (ell, r)-scattered witness set in
    r_set whose members satisfy psi locally, or None.

    With `base`, g is base.g ⊠ S for a set S touching the vertices
    `touched`: psi is evaluated on g only within distance r of them, and
    read from `base` elsewhere. Distances between witnesses are always
    read on g."""
    fresh = g.vertices if base is None else base.near(touched, basic.r)
    candidates = [v for v in g.sorted_vertices()
                  if v in r_set and (check_local(g, r_set, v, basic.psi, basic.r, cfg=cfg)
                                     if v in fresh else base(v, basic))]
    if len(candidates) < basic.ell:
        return None
    return next((xs for xs in scattered_sets(g, candidates, basic.r, basic.ell)
                 if len(xs) == basic.ell), None)


def scattered_sets(g: Graph, candidates: list, r: int, ell: int) -> Iterator[tuple]:
    """Every tuple of at most ell candidates, in the candidates' order, that
    lie pairwise at distance > 2r in g: depth first, each tuple before its
    extensions, so the first tuple of size ell is the lexicographically
    first (ell, r)-scattered set."""
    dist = {}

    def far(u, v):
        if u not in dist:  # only the 2r-ball matters
            dist[u] = g.bfs_distances(u, 2 * r)
        return dist[u].get(v, inf) > 2 * r

    def grow(chosen, start):
        yield tuple(chosen)
        if len(chosen) == ell:
            return
        for i in range(start, len(candidates)):
            v = candidates[i]
            if all(far(u, v) for u in chosen):
                yield from grow(chosen + [v], i + 1)

    return grow([], 0)


def eval_gaifman(g: Graph, r_set: Iterable, phi: GaifmanSentence, *,
                 cfg: PipelineConfig = DEFAULTS,
                 base: LocalValues | None = None,
                 touched: frozenset = frozenset()) -> bool:
    """Truth of the (annotated) Gaifman sentence on (g, r_set); when the
    sentence is unannotated the scope is all of V. Each local formula is
    evaluated under the config's brute-force caps.

    With `base`, g must be base.g ⊠ S and `touched` must be affected(S):
    each ψ_h is then evaluated on g only at the vertices within base-graph
    distance r_h of `touched`, and read from `base` at the others, where
    the r_h-ball is unchanged (see `LocalValues`). The answer is the same
    as without `base`; the scattered-set search still reads distances on
    g."""
    r_set = phi.scope(g, r_set)
    if not r_set <= g.vertices:
        raise InputError("annotation set contains unknown vertices")
    return phi.combine(lambda basic: basic_witness(
        g, r_set, basic, cfg=cfg, base=base, touched=touched) is not None)


def expand_basic(basic: BasicSentence, annotated: bool) -> Formula:
    """The basic sentence as a plain closed formula with distance atoms
    (for cross-checking eval_gaifman against brute force)."""
    ell, r = basic.ell, basic.r
    xs = [f"x{i}" for i in range(1, ell + 1)]
    parts = []
    if annotated:
        parts += [InR(x) for x in xs]
    delta = distance_atom(2 * r)
    for i in range(ell):
        for j in range(i + 1, ell):
            far = Not(rename(rename_bound(delta, f"_d{i}_{j}"), {"x": xs[i], "y": xs[j]}))
            parts.append(far)
    var = basic.psi_var
    for i, x in enumerate(xs):
        parts.append(rename(rename_bound(basic.psi, f"_p{i}"), {var: x}))
    body = parts[0]
    for p in parts[1:]:
        body = And(body, p)
    for x in reversed(xs):
        body = Exists(x, body)
    return body


def eval_gaifman_expanded(g: Graph, r_set: Iterable, phi: GaifmanSentence, *,
                          cfg: PipelineConfig = DEFAULTS) -> bool:
    """Evaluate each basic sentence via its delta-encoded plain-FOL expansion
    and brute force, then apply the combination. An oracle for eval_gaifman."""
    r_set = phi.scope(g, r_set)
    return phi.combine(lambda basic: check_fol(
        g, r_set, expand_basic(basic, phi.annotated), cfg=cfg))
