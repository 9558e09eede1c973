"""First-order formulas over graphs: parsing, brute-force model checking,
r-local evaluation, and Gaifman-sentence evaluation via scattered-set search.

Evaluation is plain quantifier expansion over a vertex domain, all of V
unless a caller narrows it, in the one evaluator `eval_with_env`; the
n^depth cost is accepted and capped. Atoms: adjacency, equality, membership
in the annotation set R, and the constants true/false. A Gaifman sentence's
Boolean combination is a formula too, over one more atom: the index of a
basic sentence.

A basic sentence's psi is read as Gaifman's psi^(r)(x), with every
quantifier bounded to the r-ball of x: `check_local` narrows the domain to
the ball, and `relativize` writes the bound into the formula for the
brute-force authorities. So r is part of the sentence, and a psi that is
not r-local means the same thing to the pipeline and to its authorities.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from math import inf
from typing import Collection, Iterable, Iterator, Mapping

from .config import DEFAULTS, PipelineConfig
from .errors import FormulaSyntaxError, InputError, ResourceLimitError
from .graphs import Graph, neighborhood


# -- AST -----------------------------------------------------------------------

# A compiled formula is a closure run(adj, r_set, domain, env) -> bool: its
# truth on the graph with adjacency `adj` (a vertex maps to its neighbour
# set), annotation `r_set` and quantifier domain `domain`, with its free
# variables bound by `env`.

class Formula:
    """Base class; nodes are immutable and hashable. Each node caches on
    itself its free variables, its quantifier depth and its compiled
    closure (`compiled`), so each is built once per node; a node never
    changes, so neither does what it caches."""

    @cached_property
    def quantifier_depth(self) -> int:
        return 0

    def __str__(self) -> str:
        return pretty(self)


@dataclass(frozen=True)
class _Quantifier(Formula):
    """Exists or Forall: var ranges over the domain."""
    var: str
    body: Formula

    @cached_property
    def free_variables(self) -> frozenset:
        return self.body.free_variables - {self.var}

    @cached_property
    def quantifier_depth(self) -> int:
        return 1 + self.body.quantifier_depth

    @cached_property
    def compiled(self):
        var, body, exists = self.var, self.body.compiled, isinstance(self, Exists)

        def run(adj, r_set, domain, env):
            # bind in a copy, so that a name bound again (psi may quantify
            # over its own free variable's name) keeps its outer value outside
            env = dict(env)
            for v in domain:
                env[var] = v
                if body(adj, r_set, domain, env) == exists:
                    return exists
            return not exists
        return run


@dataclass(frozen=True)
class Exists(_Quantifier):
    pass


@dataclass(frozen=True)
class Forall(_Quantifier):
    pass


@dataclass(frozen=True)
class _Connective(Formula):
    """And or Or."""
    left: Formula
    right: Formula

    @cached_property
    def free_variables(self) -> frozenset:
        return self.left.free_variables | self.right.free_variables

    @cached_property
    def quantifier_depth(self) -> int:
        return max(self.left.quantifier_depth, self.right.quantifier_depth)


@dataclass(frozen=True)
class And(_Connective):
    @cached_property
    def compiled(self):
        left, right = self.left.compiled, self.right.compiled
        return lambda adj, r_set, domain, env: (left(adj, r_set, domain, env)
                                                and right(adj, r_set, domain, env))


@dataclass(frozen=True)
class Or(_Connective):
    @cached_property
    def compiled(self):
        left, right = self.left.compiled, self.right.compiled
        return lambda adj, r_set, domain, env: (left(adj, r_set, domain, env)
                                                or right(adj, r_set, domain, env))


@dataclass(frozen=True)
class Not(Formula):
    body: Formula

    @cached_property
    def free_variables(self) -> frozenset:
        return self.body.free_variables

    @cached_property
    def quantifier_depth(self) -> int:
        return self.body.quantifier_depth

    @cached_property
    def compiled(self):
        body = self.body.compiled
        return lambda adj, r_set, domain, env: not body(adj, r_set, domain, env)


@dataclass(frozen=True)
class _Pair(Formula):
    """Adj or Eq: an atom over two variables."""
    x: str
    y: str

    @cached_property
    def free_variables(self) -> frozenset:
        return frozenset((self.x, self.y))


@dataclass(frozen=True)
class Adj(_Pair):
    @cached_property
    def compiled(self):
        # a value outside the graph has no neighbours
        x, y = self.x, self.y
        return lambda adj, r_set, domain, env: env[y] in adj.get(env[x], ())


@dataclass(frozen=True)
class Eq(_Pair):
    @cached_property
    def compiled(self):
        x, y = self.x, self.y
        return lambda adj, r_set, domain, env: env[x] == env[y]


@dataclass(frozen=True)
class InR(Formula):
    x: str

    @cached_property
    def free_variables(self) -> frozenset:
        return frozenset((self.x,))

    @cached_property
    def compiled(self):
        x = self.x
        return lambda adj, r_set, domain, env: env[x] in r_set


@dataclass(frozen=True)
class Const(Formula):
    value: bool

    @cached_property
    def free_variables(self) -> frozenset:
        return frozenset()

    @cached_property
    def compiled(self):
        value = self.value
        return lambda adj, r_set, domain, env: value


@dataclass(frozen=True)
class Basic(Formula):
    """The truth value of a Gaifman sentence's index-th basic sentence
    (1-based). It occurs only in combinations, where the indices are the
    free variables and the env holds their values."""
    index: int

    @cached_property
    def free_variables(self) -> frozenset:
        return frozenset((self.index,))

    @cached_property
    def compiled(self):
        index = self.index
        return lambda adj, r_set, domain, env: env[index]


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


# -- parser ---------------------------------------------------------------------

# how deeply a formula may nest: its tree is at most this tall, and at most
# this many parentheses, negations and quantifiers are open at any point of
# its text. The parser and every walk over a formula recurse once or twice
# per level, so this keeps them inside Python's default recursion limit. It
# bounds the grammar, not a search, so it is no `PipelineConfig` field.
MAX_NESTING = 100

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
    here. A formula nesting deeper than MAX_NESTING levels is rejected."""
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
    f, _ = _parse_formula(toks, [], 0)
    if toks.peek() is not None:
        raise FormulaSyntaxError(f"trailing input {_shown(toks.peek())}", toks.pos())
    return f


# Each _parse_* function below returns the formula it read and the height of
# its tree; `depth` counts the parentheses, negations and quantifiers open
# around it.

def _level(toks: _Tokens, n: int) -> int:
    """n + 1, a depth or height that must stay within MAX_NESTING."""
    if n >= MAX_NESTING:
        raise FormulaSyntaxError(f"formula nests deeper than {MAX_NESTING} levels", toks.pos())
    return n + 1


def _parse_formula(toks: _Tokens, scope: list, depth: int) -> tuple:
    if toks.peek() in ("exists", "forall"):
        kind = toks.take()
        var = toks.take_ident()
        if var in scope:
            raise FormulaSyntaxError(f"variable {var!r} shadows an enclosing quantifier", toks.pos())
        toks.take(".")
        body, h = _parse_formula(toks, scope + [var], _level(toks, depth))
        return (Exists(var, body) if kind == "exists" else Forall(var, body)), _level(toks, h)
    return _parse_bool(toks, scope, depth)


def _parse_bool(toks: _Tokens, scope: list, depth: int) -> tuple:
    f, h = _parse_term(toks, scope, depth)
    while toks.peek() in ("&", "|"):
        op = toks.take()
        g, hg = _parse_term(toks, scope, depth)
        f, h = (And(f, g) if op == "&" else Or(f, g)), _level(toks, max(h, hg))
    return f, h


def _parse_term(toks: _Tokens, scope: list, depth: int) -> tuple:
    tok = toks.peek()
    if tok == "~":
        toks.take()
        body, h = _parse_term(toks, scope, _level(toks, depth))
        return Not(body), _level(toks, h)
    if tok == "(":
        toks.take()
        f = _parse_formula(toks, scope, _level(toks, depth))
        toks.take(")")
        return f
    return _parse_atom(toks), 1


def _parse_atom(toks: _Tokens) -> Formula:
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


# -- evaluation -------------------------------------------------------------------

def check_fol(g: Graph, r_set: Iterable, phi: Formula, *,
              cfg: PipelineConfig = DEFAULTS) -> bool:
    """Brute-force truth of a closed formula on (g, r_set)."""
    r_set = frozenset(r_set)
    if not r_set <= g.vertices:
        raise InputError("annotation set contains unknown vertices")
    return eval_with_env(g, r_set, phi, {}, cfg=cfg)


def eval_with_env(g: Graph, r_set: Iterable, phi: Formula, env: Mapping, *,
                  domain: Collection | None = None,
                  cfg: PipelineConfig = DEFAULTS) -> bool:
    """Truth of a formula on (g, r_set) whose free variables are bound by
    env and whose quantifiers range over `domain` (all of V when None).

    Every formula on a graph is evaluated here, by running its compiled
    closure (`Formula.compiled`, built once per node) under the config's
    brute-force caps: the vertex cap reads the size of the domain, not of
    g, and the depth cap the node's cached quantifier depth."""
    missing = phi.free_variables - env.keys()
    if missing:
        raise InputError(f"unbound free variables {sorted(missing)}")
    # quantifiers visit the domain in its own order: the truth value does not
    # depend on it
    if domain is None:
        domain = g.vertices
    if len(domain) > cfg.cap_brute_vertices:
        raise ResourceLimitError(
            f"brute-force evaluation capped at {cfg.cap_brute_vertices} vertices, "
            f"got {len(domain)}")
    d = phi.quantifier_depth
    if d > cfg.cap_quant_depth:
        raise ResourceLimitError(f"quantifier depth {d} exceeds the cap {cfg.cap_quant_depth}")
    return phi.compiled(g.adj, frozenset(r_set), domain, env)


def check_local(g: Graph, r_set: Iterable, v, psi: Formula, r: int, *,
                cfg: PipelineConfig = DEFAULTS) -> bool:
    """psi^(r)(v): psi at v with every quantifier ranging over the r-ball
    N_r(v) of g, and the annotation restricted to the ball. psi has one
    free variable (or none, e.g. `true`).

    This is psi evaluated on the induced subgraph g[N_r(v)], since two ball
    vertices are adjacent in g iff they are in g[N_r(v)]; but no subgraph
    is built: psi is read on g itself, with the ball as its domain. So it
    reads g only inside the ball and costs what the ball and its vertices'
    edges hold, not |V| or |E|. Pass r_set as a frozenset, so that
    restricting it to the ball copies nothing outside the ball."""
    free = sorted(psi.free_variables)
    if len(free) > 1:
        raise InputError(f"psi must have at most one free variable, has {free}")
    ball = neighborhood(g, v, r)
    env = {free[0]: v} if free else {}
    return eval_with_env(g, frozenset(r_set) & ball, psi, env, domain=ball, cfg=cfg)


def verify_locality(corpus: Iterable, psi: Formula, r: int) -> bool:
    """Empirical audit that psi is r-local over the corpus of (graph, r_set):
    psi on all of g equals psi^(r) (`check_local`) at every vertex, so
    reading psi on its r-ball loses nothing."""
    free = sorted(psi.free_variables)
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


def distance_atom(r: int, x: str = "x", y: str = "y") -> Formula:
    """delta_r(x, y): distance(x, y) <= r, via r-1 intermediate existentials.
    Their names hold at least two primes, which neither a parsed name nor
    one that `relativize` primed does, so they capture no variable of a
    formula the atom is put into."""
    if r < 0:
        raise InputError("radius must be non-negative")
    if r == 0:
        return Eq(x, y)
    step = lambda a, b: Or(Eq(a, b), Adj(a, b))
    inner = [f"w{i}'{x}'{y}" for i in range(1, r)]
    chain = [x] + inner + [y]
    body: Formula | None = None
    for a, b in zip(chain, chain[1:]):
        clause = step(a, b)
        body = clause if body is None else And(body, clause)
    for w in reversed(inner):
        body = Exists(w, body)
    return body


def relativize(psi: Formula, x: str, r: int) -> Formula:
    """psi^(r)(x): psi with every quantifier bounded to the r-ball of x, as
    in Gaifman's basic local sentences. ∃y. φ becomes ∃y. (δ_r(x, y) ∧ φ)
    and ∀y. φ becomes ∀y. (¬δ_r(x, y) ∨ φ), so on any graph its truth at x
    is `check_local`'s. Each bound variable takes a prime, which no parsed
    name holds, so none is x even when psi binds x's name again."""
    if isinstance(psi, (Exists, Forall)):
        y = psi.var + "'"
        near = distance_atom(r, x, y)
        body = relativize(rename(psi.body, {psi.var: y}), x, r)
        return (Exists(y, And(near, body)) if isinstance(psi, Exists)
                else Forall(y, Or(Not(near), body)))
    if isinstance(psi, (And, Or)):
        return type(psi)(relativize(psi.left, x, r), relativize(psi.right, x, r))
    if isinstance(psi, Not):
        return Not(relativize(psi.body, x, r))
    return psi


# -- Gaifman sentences -------------------------------------------------------------

@dataclass(frozen=True)
class BasicSentence:
    """exists x_1..x_ell (pairwise distance > 2r, each satisfying psi^(r),
    psi read on its r-ball); in annotated form the witnesses must also lie
    in R."""

    ell: int
    r: int
    psi: Formula

    def __post_init__(self):
        if any(isinstance(n, bool) or not isinstance(n, int) for n in (self.ell, self.r)):
            raise InputError(f"basic sentences need integer ell and r, got "
                             f"{self.ell!r} and {self.r!r}")
        if self.ell < 1 or self.r < 1:
            raise InputError("basic sentences need ell >= 1 and r >= 1")
        if len(self.psi.free_variables) > 1:
            raise InputError("psi must have at most one free variable")

    @property
    def psi_var(self) -> str:
        free = sorted(self.psi.free_variables)
        return free[0] if free else "x"


def _text(obj: dict, field: str) -> str:
    """obj[field], which must be formula text."""
    text = obj[field]
    if not isinstance(text, str):
        raise InputError(f"{field!r} must be a string of formula text, "
                         f"got {type(text).__name__}")
    return text


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
        bad = self.combination.free_variables - set(range(1, len(self.basics) + 1))
        if bad:
            raise InputError(f"combination references unknown basic indices {sorted(bad)}")

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
                  for h in sorted(self.combination.free_variables)}
        return self.combination.compiled({}, frozenset(), (), values)

    def to_json_obj(self) -> dict:
        return {
            "basics": [{"ell": b.ell, "r": b.r, "psi": pretty(b.psi)} for b in self.basics],
            "combination": pretty(self.combination),
            "annotated": self.annotated,
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "GaifmanSentence":
        try:
            basics = tuple(BasicSentence(b["ell"], b["r"], parse_formula(_text(b, "psi")))
                           for b in obj["basics"])
            comb = parse_combination(_text(obj, "combination"))
            annotated = obj.get("annotated", True)
        except (KeyError, TypeError) as exc:
            raise InputError(f"bad Gaifman sentence object: {exc}") from exc
        if not isinstance(annotated, bool):
            raise InputError(f"'annotated' must be true or false, got {annotated!r}")
        return cls(basics, comb, annotated)


class LocalValues:
    """An index of the values ψ_h(v) on a base graph g and its scope, for
    the modified graphs g ⊠ S of one enumeration over g.

    ψ_h(v) is ψ_h^(r_h)(v), read on the r_h-ball of v alone whatever ψ_h
    is, so the reuse below is exact for every formula. When v lies at
    g-distance more than r_h from the touched vertices A = affected(S),
    that ball, the edges among its vertices and its part of the scope are
    the same in g and in g ⊠ S: vr and er only delete at A, ec
    merges vertices of A into their least id, and ea only adds edges inside
    A, so a path of length at most r_h from v that met a changed element
    would be a path of g from v to A. Such a value is read from the index;
    every other vertex is evaluated on g ⊠ S.

    For each (ψ_h, r_h) the index is built once, the first time a set asks
    for it, by one pass over the scope in `order`: the vertices where ψ_h
    holds, and those whose evaluation raises `ResourceLimitError`, each
    with its exception. A set so reads only these vertices and the ones
    near A, never all of V. The raising list lets `basic_witness` raise at
    the first raising vertex in walk order, so a brute-force cap fires on
    the same set and vertex, with the same message, as evaluating every
    vertex on g ⊠ S does.

    `r_set` is read under the sentence's scope on g (`GaifmanSentence.scope`):
    R when the sentence is annotated, all of V otherwise."""

    def __init__(self, g: Graph, r_set: Iterable, phi: GaifmanSentence, *,
                 cfg: PipelineConfig = DEFAULTS):
        self.g = g
        self.r_set = phi.scope(g, r_set)
        self.cfg = cfg
        self._index: dict = {}

    @cached_property
    def order(self) -> list:
        """g's vertices, sorted once. Every g ⊠ S keeps a subset of g's
        ids (vr and ec drop vertices, and ec merges into the least id), so
        this list, filtered, is g ⊠ S's order."""
        return self.g.sorted_vertices()

    @cached_property
    def rank(self) -> dict:
        """Each vertex's place in `order`."""
        return {v: i for i, v in enumerate(self.order)}

    def near(self, touched: Iterable, r: int) -> set:
        """The vertices within g-distance r of the touched ones."""
        out = set()
        for a in touched:
            out |= neighborhood(self.g, a, r)
        return out

    def index(self, basic: BasicSentence) -> tuple:
        """(holds, raised) for the basic sentence's ψ and r on g under the
        scope: the vertices where ψ holds, and (vertex, exception) for the
        vertices whose evaluation raises `ResourceLimitError`, both in
        `order`."""
        key = (basic.psi, basic.r)
        if key not in self._index:
            g, r_set, psi, r, cfg = self.g, self.r_set, basic.psi, basic.r, self.cfg
            holds, raised = [], []
            for v in self.order:
                if v in r_set:
                    try:
                        if check_local(g, r_set, v, psi, r, cfg=cfg):
                            holds.append(v)
                    except ResourceLimitError as exc:
                        raised.append((v, exc))
            self._index[key] = holds, raised
        return self._index[key]


def basic_witness(g: Graph, r_set: frozenset, basic: BasicSentence, *,
                  cfg: PipelineConfig = DEFAULTS, base: LocalValues,
                  touched: frozenset) -> tuple | None:
    """The first (in lexicographic order) (ell, r)-scattered witness set in
    r_set whose members satisfy psi locally, or None.

    g is base.g ⊠ S for a set S touching the vertices `touched` (S is empty
    and `touched` too when g is base.g), and r_set is base's scope
    restricted to g. The candidates come from two sources, merged in base's
    order: base's index, for the vertices of r_set farther than r from
    `touched`, and psi evaluated on g at the nearer ones. Nothing else of g
    or r_set is read, and g's vertices are not sorted again. A vertex whose
    evaluation raises, read from the index or evaluated afresh, raises at its
    place in that order. Distances between witnesses are always read on g."""
    psi, r = basic.psi, basic.r
    holds, raised = base.index(basic)
    near, rank = base.near(touched, r), base.rank
    far_raise = next(((v, exc) for v, exc in raised if v in r_set and v not in near),
                     None)
    limit = inf if far_raise is None else rank[far_raise[0]]
    fresh = []
    for v in sorted((v for v in near if v in r_set), key=rank.__getitem__):
        if rank[v] > limit:
            break
        if check_local(g, r_set, v, psi, r, cfg=cfg):
            fresh.append(v)
    if far_raise is not None:
        raise far_raise[1].with_traceback(None)
    candidates = [v for v in holds if v in r_set and v not in near]
    if fresh:
        candidates = sorted(candidates + fresh, key=rank.__getitem__)
    if len(candidates) < basic.ell:
        return None
    return next((xs for xs in scattered_sets(g, candidates, r, basic.ell)
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
    evaluated under the config's brute-force caps, and always read through
    a `LocalValues` index.

    With `base`, g must be base.g ⊠ S and `touched` must be affected(S):
    each ψ_h is then evaluated on g only at the vertices within base-graph
    distance r_h of `touched`, and read from `base` at the others, where
    the r_h-ball is unchanged (see `LocalValues`). Without it, the index is
    built on g itself and nothing is touched, so every candidate is read
    from it in sorted order and the first vertex that raises, raises. The
    answer is the same either way; the scattered-set search still reads
    distances on g."""
    r_set = phi.scope(g, r_set)
    if not r_set <= g.vertices:
        raise InputError("annotation set contains unknown vertices")
    if base is None:
        base, touched = LocalValues(g, r_set, phi, cfg=cfg), frozenset()
    return phi.combine(lambda basic: basic_witness(
        g, r_set, basic, cfg=cfg, base=base, touched=touched) is not None)


def expand_basic(basic: BasicSentence, annotated: bool) -> Formula:
    """The basic sentence as a plain closed formula with distance atoms,
    each copy of psi read as psi^(r) (for cross-checking eval_gaifman
    against brute force)."""
    ell, r = basic.ell, basic.r
    xs = [f"x{i}" for i in range(1, ell + 1)]
    parts = []
    if annotated:
        parts += [InR(x) for x in xs]
    for i in range(ell):
        for j in range(i + 1, ell):
            parts.append(Not(distance_atom(2 * r, xs[i], xs[j])))
    var = basic.psi_var
    for x in xs:
        parts.append(rename(relativize(basic.psi, var, r), {var: x}))
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
