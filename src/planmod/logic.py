"""First-order formulas over graphs: parsing, brute-force model checking,
r-local evaluation, and Gaifman-sentence evaluation via scattered-set search.

Evaluation is plain quantifier expansion over the vertex set; the n^depth
cost is accepted and capped. Atoms: adjacency, equality, membership in the
annotation set R, and the constants true/false.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from math import inf
from typing import Iterable, Iterator, Mapping

from .errors import FormulaSyntaxError, InputError, ResourceLimitError
from .graphs import Graph, neighborhood

# default brute-force caps; PipelineConfig's cap_brute_vertices and
# cap_quant_depth are passed down explicitly as max_vertices and max_depth
MAX_BRUTE_VERTICES = 128
MAX_QUANT_DEPTH = 16


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

_TOKEN = re.compile(r"(exists|forall|in|adj|true|false)\b|([A-Za-z_]\w*)|([().,=&|~])")


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
            kw, ident, punct = m.groups()
            if kw is not None:
                self.toks.append((kw, pos))
            elif ident is not None:
                self.toks.append(("IDENT:" + ident, pos))
            else:
                self.toks.append((punct, pos))
            pos = m.end()
        self.i = 0

    def peek(self):
        return self.toks[self.i][0] if self.i < len(self.toks) else None

    def pos(self):
        return self.toks[self.i][1] if self.i < len(self.toks) else len(self.text)

    def take(self, expected=None):
        tok = self.peek()
        if tok is None:
            raise FormulaSyntaxError(f"unexpected end of input (wanted {expected})", len(self.text))
        if expected is not None and tok != expected:
            raise FormulaSyntaxError(f"expected {expected!r}, found {tok!r}", self.pos())
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
             | "true" | "false"
    """
    toks = _Tokens(text)
    f = _parse_formula(toks, scope=[])
    if toks.peek() is not None:
        raise FormulaSyntaxError(f"trailing input {toks.peek()!r}", toks.pos())
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
    if tok == "adj":
        toks.take()
        toks.take("(")
        x = toks.take_ident()
        toks.take(",")
        y = toks.take_ident()
        toks.take(")")
        return Adj(x, y)
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
    raise TypeError(f"not a formula node: {f!r}")


def _check_caps(g: Graph, f: Formula, max_vertices: int, max_depth: int):
    if len(g.vertices) > max_vertices:
        raise ResourceLimitError(
            f"brute-force evaluation capped at {max_vertices} vertices, got {len(g.vertices)}")
    d = quantifier_depth(f)
    if d > max_depth:
        raise ResourceLimitError(f"quantifier depth {d} exceeds the cap {max_depth}")


def check_fol(g: Graph, r_set: Iterable, phi: Formula, *,
              max_vertices: int = MAX_BRUTE_VERTICES,
              max_depth: int = MAX_QUANT_DEPTH) -> bool:
    """Brute-force truth of a closed formula on (g, r_set)."""
    free = phi.free_variables()
    if free:
        raise InputError(f"formula has free variables {sorted(free)}")
    _check_caps(g, phi, max_vertices, max_depth)
    r_set = frozenset(r_set)
    if not r_set <= g.vertices:
        raise InputError("annotation set contains unknown vertices")
    return _eval(phi, g, r_set, {}, g.sorted_vertices())


def eval_with_env(g: Graph, r_set: Iterable, phi: Formula, env: Mapping, *,
                  max_vertices: int = MAX_BRUTE_VERTICES,
                  max_depth: int = MAX_QUANT_DEPTH) -> bool:
    """Truth of a formula whose free variables are bound by env."""
    missing = phi.free_variables() - set(env)
    if missing:
        raise InputError(f"unbound free variables {sorted(missing)}")
    _check_caps(g, phi, max_vertices, max_depth)
    return _eval(phi, g, frozenset(r_set), dict(env), g.sorted_vertices())


def check_local(g: Graph, r_set: Iterable, v, psi: Formula, r: int, *,
                max_vertices: int = MAX_BRUTE_VERTICES,
                max_depth: int = MAX_QUANT_DEPTH) -> bool:
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
    return eval_with_env(sub, frozenset(r_set) & ball, psi, env,
                         max_vertices=max_vertices, max_depth=max_depth)


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
        if self.ell < 1 or self.r < 1:
            raise InputError("basic sentences need ell >= 1 and r >= 1")
        if len(self.psi.free_variables()) > 1:
            raise InputError("psi must have at most one free variable")

    @property
    def psi_var(self) -> str:
        free = sorted(self.psi.free_variables())
        return free[0] if free else "x"


class Combination:
    """Boolean expression tree over 1-based basic-sentence indices."""


@dataclass(frozen=True)
class CLeaf(Combination):
    index: int


@dataclass(frozen=True)
class CConst(Combination):
    value: bool


@dataclass(frozen=True)
class CNot(Combination):
    body: Combination


@dataclass(frozen=True)
class CAnd(Combination):
    left: Combination
    right: Combination


@dataclass(frozen=True)
class COr(Combination):
    left: Combination
    right: Combination


def parse_combination(text: str) -> Combination:
    toks = re.findall(r"\d+|[()&|~]|true|false|\S", text)
    pos = [0]

    def peek():
        return toks[pos[0]] if pos[0] < len(toks) else None

    def take():
        t = peek()
        pos[0] += 1
        return t

    def expr():
        node = term()
        while peek() in ("&", "|"):
            op = take()
            rhs = term()
            node = CAnd(node, rhs) if op == "&" else COr(node, rhs)
        return node

    def term():
        t = peek()
        if t == "~":
            take()
            return CNot(term())
        if t == "(":
            take()
            node = expr()
            if take() != ")":
                raise InputError(f"unbalanced parenthesis in combination {text!r}")
            return node
        if t in ("true", "false"):
            take()
            return CConst(t == "true")
        if t is not None and t.isdigit():
            take()
            return CLeaf(int(t))
        raise InputError(f"cannot parse combination {text!r} at token {t!r}")

    node = expr()
    if peek() is not None:
        raise InputError(f"trailing input in combination {text!r}")
    return node


def combination_leaves(c: Combination) -> set:
    if isinstance(c, CLeaf):
        return {c.index}
    if isinstance(c, CNot):
        return combination_leaves(c.body)
    if isinstance(c, (CAnd, COr)):
        return combination_leaves(c.left) | combination_leaves(c.right)
    return set()


def eval_combination(c: Combination, values: Mapping) -> bool:
    if isinstance(c, CLeaf):
        return values[c.index]
    if isinstance(c, CConst):
        return c.value
    if isinstance(c, CNot):
        return not eval_combination(c.body, values)
    if isinstance(c, CAnd):
        return eval_combination(c.left, values) and eval_combination(c.right, values)
    if isinstance(c, COr):
        return eval_combination(c.left, values) or eval_combination(c.right, values)
    raise TypeError(f"not a combination node: {c!r}")


def combination_text(c: Combination) -> str:
    if isinstance(c, CLeaf):
        return str(c.index)
    if isinstance(c, CConst):
        return "true" if c.value else "false"
    if isinstance(c, CNot):
        return "~" + combination_text(c.body)
    op = "&" if isinstance(c, CAnd) else "|"
    return f"({combination_text(c.left)} {op} {combination_text(c.right)})"


@dataclass(frozen=True)
class GaifmanSentence:
    basics: tuple
    combination: Combination
    annotated: bool = True

    def __post_init__(self):
        if not self.basics:
            raise InputError("a Gaifman sentence needs at least one basic sentence")
        bad = combination_leaves(self.combination) - set(range(1, len(self.basics) + 1))
        if bad:
            raise InputError(f"combination references unknown basic indices {sorted(bad)}")

    @property
    def m(self) -> int:
        return len(self.basics)

    def max_r(self) -> int:
        return max(b.r for b in self.basics)

    def total_ell(self) -> int:
        return sum(b.ell for b in self.basics)

    def to_json_obj(self) -> dict:
        return {
            "basics": [{"ell": b.ell, "r": b.r, "psi": pretty(b.psi)} for b in self.basics],
            "combination": combination_text(self.combination),
            "annotated": self.annotated,
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "GaifmanSentence":
        try:
            basics = tuple(BasicSentence(b["ell"], b["r"], parse_formula(b["psi"]))
                           for b in obj["basics"])
            comb = parse_combination(obj["combination"])
            annotated = bool(obj.get("annotated", True))
        except (KeyError, TypeError) as exc:
            raise InputError(f"bad Gaifman sentence object: {exc}") from exc
        return cls(basics, comb, annotated)

    @classmethod
    def from_json(cls, text: str) -> "GaifmanSentence":
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputError(f"bad Gaifman JSON: {exc}") from exc
        return cls.from_json_obj(obj)


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

    `r_set` is the scope the sentence is read under on g: R when the
    sentence is annotated, all of V otherwise, as in `eval_gaifman`."""

    def __init__(self, g: Graph, r_set: Iterable, phi: GaifmanSentence, *,
                 max_vertices: int = MAX_BRUTE_VERTICES,
                 max_depth: int = MAX_QUANT_DEPTH):
        self.g = g
        self.r_set = frozenset(r_set) if phi.annotated else g.vertices
        self.max_vertices = max_vertices
        self.max_depth = max_depth
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
            memo[v] = check_local(self.g, self.r_set, v, basic.psi, basic.r,
                                  max_vertices=self.max_vertices,
                                  max_depth=self.max_depth)
        return memo[v]


def basic_witness(g: Graph, r_set: frozenset, basic: BasicSentence, *,
                  max_vertices: int = MAX_BRUTE_VERTICES,
                  max_depth: int = MAX_QUANT_DEPTH,
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
                  if v in r_set and (check_local(g, r_set, v, basic.psi, basic.r,
                                                 max_vertices=max_vertices,
                                                 max_depth=max_depth)
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
        if u not in dist:
            dist[u] = g.bfs_distances(u)
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
                 max_vertices: int = MAX_BRUTE_VERTICES,
                 max_depth: int = MAX_QUANT_DEPTH,
                 base: LocalValues | None = None,
                 touched: frozenset = frozenset()) -> bool:
    """Truth of the (annotated) Gaifman sentence on (g, r_set); when the
    sentence is unannotated the scope is all of V. Each local formula is
    evaluated under the brute-force caps max_vertices and max_depth.

    With `base`, g must be base.g ⊠ S and `touched` must be affected(S):
    each ψ_h is then evaluated on g only at the vertices within base-graph
    distance r_h of `touched`, and read from `base` at the others, where
    the r_h-ball is unchanged (see `LocalValues`). The answer is the same
    as without `base`; the scattered-set search still reads distances on
    g."""
    r_set = frozenset(r_set) if phi.annotated else frozenset(g.vertices)
    if not r_set <= g.vertices:
        raise InputError("annotation set contains unknown vertices")
    needed = combination_leaves(phi.combination)
    values = {h: basic_witness(g, r_set, phi.basics[h - 1], max_vertices=max_vertices,
                               max_depth=max_depth, base=base,
                               touched=touched) is not None
              for h in needed}
    return eval_combination(phi.combination, values)


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
                          max_vertices: int = MAX_BRUTE_VERTICES,
                          max_depth: int = MAX_QUANT_DEPTH) -> bool:
    """Evaluate each basic sentence via its delta-encoded plain-FOL expansion
    and brute force, then apply the combination. An oracle for eval_gaifman."""
    r_set = frozenset(r_set) if phi.annotated else frozenset(g.vertices)
    needed = combination_leaves(phi.combination)
    values = {}
    for h in needed:
        expanded = expand_basic(phi.basics[h - 1], phi.annotated)
        values[h] = check_fol(g, r_set, expanded,
                              max_vertices=max_vertices, max_depth=max_depth)
    return eval_combination(phi.combination, values)


def degree_atom(var: str, d: int) -> Formula:
    """Sugar: 'the degree of var is exactly d', desugared to adjacency/equality."""
    if d < 0:
        raise InputError("degree must be non-negative")
    ys = [f"{var}_n{i}" for i in range(1, d + 1)]
    parts = []
    for y in ys:
        parts.append(Adj(var, y))
    for i in range(d):
        for j in range(i + 1, d):
            parts.append(Not(Eq(ys[i], ys[j])))
    z = f"{var}_z"
    others = Const(True)
    for y in ys:
        others = And(others, Not(Eq(z, y)))
    no_more = Forall(z, Not(And(Adj(var, z), others)))
    body = no_more
    for p in reversed(parts):
        body = And(p, body)
    for y in reversed(ys):
        body = Exists(y, body)
    return body
