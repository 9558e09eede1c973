"""Top-level algorithms: the brute-force oracle, the area finder, the
irrelevant-vertex finder, the instance reducer, and the full pipeline.

Desk-scale parameters void the theoretical guarantees, so the pipeline is
sound by checking. With the config's cross-check on (the default),
`solve_pipeline` checks every reduction step against exhaustive search and
raises instead of answering when a check fails. The finders and the reducer
only propose steps.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable

from .config import DEFAULTS, PipelineConfig
from .errors import InputError, ResourceLimitError, SoundnessError
from .graphs import Graph, k5_star
# apply, eval_gaifman and subsets_up_to are not called here but stay bound:
# the benchmark's tracer (perfbench/spans.py) wraps them in this module
from .logic import Formula, GaifmanSentence, eval_gaifman  # noqa: F401
from .modification import (ModificationSet, Operation, apply,  # noqa: F401
                           find_vr_planarizer, is_planarization_irrelevant,
                           minimal_planarizers, planar_sets, subsets_up_to)
from .planarity import certified_planar, is_planar
from .signatures import (Parameters, char_key, compute_char, compute_parameters,
                         first_model, is_triple)
from .treewidth import TreeDecomposition, width_witness
from .walls import (Wall, WallSearch, center, compass, disjoint_subwalls,
                    extended_compass, wall_candidates, _may_contain_wall)
from .signatures import area_family

# find_vertex replaces a subwall only when at least this many subwalls share
# its characteristic
BUCKET_THRESHOLD = 2


class RunContext:
    """What one `solve_pipeline` run keeps between its searches. Each memo
    is exact only under the run's fixed op, sentence, params and config,
    so one context serves one run; a finder called without one makes a
    fresh one.

    - `chars`: characteristics by `char_key`, for `find_vertex`.
    - `search`: pass 1 of the wall search (`walls.WallSearch`), handed to
      `wall_candidates` at every step.
    - `solved`: the memo of `signatures.is_triple`, every triple question
      (G, R, k) the run solved, with its witness.
    - `witnesses`: Kuratowski witnesses by graph, for `_planarizers`; the
      run clears it whenever it replaces G, so it holds only graphs
      derived from the current G.
    """

    __slots__ = ("chars", "search", "solved", "witnesses")

    def __init__(self):
        self.chars: dict = {}
        self.search = WallSearch()
        self.solved: dict = {}
        self.witnesses: dict = {}


# -- instances -------------------------------------------------------------------

@dataclass(frozen=True)
class Instance:
    graph: Graph
    k: int
    op: Operation
    phi: GaifmanSentence | Formula
    r_set: frozenset | None = None

    def __post_init__(self):
        if self.k < 0:
            raise InputError("budget k must be non-negative")
        if self.r_set is not None and not frozenset(self.r_set) <= self.graph.vertices:
            raise InputError("annotation set contains unknown vertices")
        # the pipeline's irrelevance argument is stated for annotated
        # sentences; unannotated, the witnesses could leave R
        if isinstance(self.phi, GaifmanSentence) and not self.phi.annotated \
                and self.scope() != self.graph.vertices:
            raise InputError("an unannotated sentence needs the annotation set "
                             "to be all of V; drop the annotation or annotate "
                             "the sentence")

    def scope(self) -> frozenset:
        return frozenset(self.r_set) if self.r_set is not None else self.graph.vertices


# -- step outcomes -----------------------------------------------------------------

@dataclass(frozen=True)
class NoInstance:
    reason: str


@dataclass(frozen=True)
class WallArea:
    wall: Wall


@dataclass(frozen=True)
class IrrelevantRegion:
    region: frozenset
    vertex: object


@dataclass(frozen=True)
class BoundedTreewidth:
    decomposition: TreeDecomposition
    fallback: str | None = None  # the cap that stopped the wall branch, if one did


# -- oracle ------------------------------------------------------------------------

def solve_oracle(inst: Instance, cfg: PipelineConfig = DEFAULTS,
                 want_witness: bool = False):
    """Definitional semantics: the first modification set within the budget,
    smallest first, whose modified graph is planar and models the sentence
    (`first_model`), under the config's caps and size mode. Plain formulas
    are accepted as well as Gaifman sentences."""
    witness = first_model(inst.graph, inst.scope(), inst.k, inst.op, inst.phi, cfg)
    return (witness is not None, witness) if want_witness else witness is not None


# -- minor models -------------------------------------------------------------------

def _connected_sets(host: Graph, starts: list, allowed: set, max_size: int):
    """Every connected subset of `allowed` with at most `max_size` vertices
    that holds a vertex of `starts`, each exactly once: a set is generated
    from its first start, and every branch excludes the candidates it
    skipped."""
    def grow(s, cands, excluded):
        yield s
        if len(s) >= max_size:
            return
        for i, v in enumerate(cands):
            skip = excluded | set(cands[:i]) | {v}
            new = [w for w in sorted(host.adj[v])
                   if w in allowed and w not in skip and w not in cands]
            yield from grow(s | {v}, cands[i + 1:] + new, skip)

    banned = set()
    for v in starts:
        banned.add(v)
        yield from grow(frozenset((v,)), [w for w in sorted(host.adj[v])
                                          if w in allowed and w not in banned], set(banned))


def _placement_order(pattern: Graph, hub) -> tuple:
    """(order, twin_of): the pattern vertices other than the hub, each with
    as many earlier neighbours as possible, and for each vertex the previous
    one of its twin class. A twin class holds vertices that pairwise have
    the same other neighbours, so permuting its branch sets gives another
    model and the search may keep them in increasing order."""
    order, rest = [], [p for p in pattern.sorted_vertices() if p != hub]
    while rest:
        p = max(rest, key=lambda q: len(pattern.adj[q] & set(order)))
        order.append(p)
        rest.remove(p)
    classes, twin_of = [], {}
    for p in order:
        for cls in classes:
            if all(pattern.adj[p] - {q} == pattern.adj[q] - {p} for q in cls):
                twin_of[p] = cls[-1]
                cls.append(p)
                break
        else:
            classes.append([p])
    return order, twin_of


def _cannot_host(host: Graph, pattern: Graph, hub, center) -> bool:
    """Exact reasons why `host` has no minor model of `pattern` whose `hub`
    branch set contains `center`. True is a proof, never a guess."""
    if len(host.vertices) < len(pattern.vertices) \
            or len(host.edges) < len(pattern.edges):
        return True
    # a minor of a planar graph is planar
    if is_planar(host) and not is_planar(pattern):
        return True
    if len(host.vertices) == len(pattern.vertices):
        # every branch set is one vertex, so the model is a subgraph: the
        # centre needs the hub's degree, and the degree sequence of the
        # host must dominate the pattern's
        if host.degree(center) < pattern.degree(hub):
            return True
        host_deg = sorted((len(ns) for ns in host.adj.values()), reverse=True)
        pattern_deg = sorted((len(ns) for ns in pattern.adj.values()), reverse=True)
        if any(h < p for h, p in zip(host_deg, pattern_deg)):
            return True
    return False


def find_minor_model(host: Graph, pattern: Graph, hub, center,
                     node_budget: int = DEFAULTS.cap_wall_nodes) -> dict | None:
    """A minor model of `pattern` in `host` (connected disjoint branch sets,
    host edge behind every pattern edge) whose `hub` branch set contains the
    host vertex `center`. None means none exists or none was found within
    the budget; the caller must not read absence as a proof.

    A connected pattern is searched for only in the centre's component, and
    `_cannot_host` rules out hosts that are too small, planar, or too sparse
    in degree. The search then places one branch set at a time for the
    pattern vertices other than the hub, each connected and touching the
    sets of the pattern neighbours placed before it, under a cap on the size
    of a set that rises until it no longer cuts anything off. The hub's set
    is never chosen: it is everything connected to the centre outside the
    other sets, which contains any other choice and so loses no model.
    Every branch set considered costs one node of `node_budget`."""
    if pattern.is_connected():
        host = host.induced(host.component_of(center))
    if _cannot_host(host, pattern, hub, center):
        return None
    order, twin_of = _placement_order(pattern, hub)
    earlier = {p: [q for q in order[:i] if q in pattern.adj[p]]
               for i, p in enumerate(order)}
    sets: dict = {}
    used = {center}
    budget = [node_budget]
    cap = [0]
    capped = [False]

    def touching(a, b) -> bool:
        return any(host.adj[x] & b for x in a)

    def hub_set() -> frozenset:
        # everything reachable from the centre outside the other sets
        reach, stack = {center}, [center]
        while stack:
            for b in host.adj[stack.pop()]:
                if b not in reach and b not in used:
                    reach.add(b)
                    stack.append(b)
        return frozenset(reach)

    def stranded(later: list) -> bool:
        # an unplaced set lies in one component of the unused vertices,
        # which must touch the sets of its placed neighbours
        comp = {}
        for v in host.vertices:
            if v in used or v in comp:
                continue
            comp[v] = v
            stack = [v]
            while stack:
                for b in host.adj[stack.pop()]:
                    if b not in used and b not in comp:
                        comp[b] = v
                        stack.append(b)
        touches = {q: {comp[w] for a in vs for w in host.adj[a] if w in comp}
                   for q, vs in sets.items()}
        open_sets = set(later)
        for q in open_sets:
            need = [touches[w] for w in pattern.adj[q] if w in sets]
            if need and not set.intersection(*need):
                return True
        # a placed set meets each unplaced neighbour in an unused vertex of
        # its own
        return any(len({w for a in vs for w in host.adj[a] if w in comp})
                   < len(pattern.adj[q] & open_sets) for q, vs in sets.items())

    def hub_ok() -> bool:
        now = hub_set()
        return all(touching(now, sets[q]) for q in pattern.adj[hub] if q in sets)

    def place(i: int) -> dict | None:
        if i == len(order):
            return {**sets, hub: hub_set()}
        p = order[i]
        allowed = host.vertices - used
        after = len(order) - i - 1
        # each empty branch set needs an unused vertex of its own
        if len(allowed) < after + 1:
            return None
        room = len(allowed) - after
        if cap[0] < room:
            capped[0] = True
        near = [sets[q] for q in earlier[p]]
        starts = sorted({w for a in near[0] for w in host.adj[a]} & allowed if near else allowed)
        low = min(sets[twin_of[p]]) if p in twin_of else None
        for cand in _connected_sets(host, starts, allowed, min(cap[0], room)):
            budget[0] -= 1
            if budget[0] < 0:
                raise ResourceLimitError("minor-model search exceeded its node budget")
            if not all(touching(cand, e) for e in near):
                continue
            if low is not None and min(cand) < low:
                continue
            sets[p] = cand
            used.update(cand)
            if hub_ok() and not stranded(order[i + 1:]):
                model = place(i + 1)
                if model is not None:
                    return model
            used.difference_update(cand)
            del sets[p]
        return None

    try:
        for cap[0] in range(1, len(host.vertices) + 1):
            capped[0] = False
            model = place(0)
            if model is not None or not capped[0]:
                return model
    except ResourceLimitError:
        return None
    return None


def has_k5_star_minor(g: Graph, center, copies: int,
                      node_budget: int = DEFAULTS.cap_wall_nodes) -> bool:
    """Does g contain a (K5, copies)-star minor with `center` in the central
    branch set?

    No solve path calls this search, or `find_minor_model` below it: the
    er/ec no-instance step is read off the wall branch's minimal
    planarizers. It stays only because the benchmark's tracer
    (perfbench/spans.py) binds it, and goes with the next benchmark change.

    Absence is proved without backtracking when
    (a) the search is confined to the centre's component, since the pattern
        is connected, and that component
    (b) has fewer vertices or fewer edges than the pattern,
    (c) is planar, since the pattern contains K5 (Wagner), or
    (d) has exactly as many vertices as the pattern, so every branch set is
        one vertex, and the centre's degree is below the hub's or the degree
        sequence does not dominate the pattern's.
    Otherwise `find_minor_model` backtracks; when it uses up `node_budget`
    the answer is False too, which the caller must not read as a proof."""
    pattern, hub = k5_star(copies)
    return find_minor_model(g, pattern, hub, center, node_budget) is not None


# -- Find_Area ------------------------------------------------------------------------

def find_area(k: int, q: int, g: Graph, s: ModificationSet, op: Operation,
              cfg: PipelineConfig = DEFAULTS, ctx: RunContext | None = None):
    """Trichotomy: a no-instance, a q-wall whose compass is certified
    flat/irrelevant, or a bounded-width decomposition.

    G − S must be planar: this is the one test of that precondition, which
    a G whose `planar_without` lies inside S passes without a test. A set that is
    not a planarizer raises InputError, and so does a nonempty S under ea,
    which removes no vertex: there the opening search has already proved G
    planar.

    The no-instance and the wall come from `_wall_branch`, which reads both
    answers off one exact list of minimal planarizers; it shares the run's
    Kuratowski witnesses (`ctx.witnesses`) with the opening search. The
    decomposition comes from a width witness.
    """
    if s.op is not Operation.VR:
        raise InputError("find_area expects a vertex-removal planarizer")
    fam = area_family(k, q)
    f1, f2 = fam["f1"], fam["f2"]
    if op is Operation.EA and s:
        raise InputError("edge additions remove no vertex; under ea S must be empty")
    ctx = RunContext() if ctx is None else ctx
    removed = g.remove_vertices(s.elements)
    if not is_planar(removed):
        raise InputError("the supplied set is not a vr-planarizer")
    outcome = _wall_branch(g, removed, s.elements, q, op, k, f2, cfg, ctx)
    if outcome is not None:
        return outcome
    td = width_witness(g, f1)
    if td is not None:
        return BoundedTreewidth(td)
    raise ResourceLimitError(
        f"no branch achievable: no certified q-wall and no width-{f1} witness")


def _wall_branch(g: Graph, flat: Graph, s: frozenset, q: int,
                 op: Operation, k: int, f2, cfg: PipelineConfig, ctx: RunContext):
    """A q-wall of G − S (`flat`) whose compass misses S and its
    neighbours, has width at most f2 and is planarization-irrelevant; or a
    no-instance; or None, when `wall_candidates`, bounded by
    `cap_wall_nodes`, yields no such wall. Pass 1 of the wall search
    resumes the run's `ctx.search` (see `WallSearch`).

    At the first candidate that passes the blocked and width tests, every
    inclusion-minimal op-planarizer of size <= k is listed once, exactly
    (`minimal_planarizers`). An empty list is a no-instance, since every
    solution is such a planarizer; otherwise each candidate's irrelevance
    is read off the same list."""
    if not _may_contain_wall(flat, q):
        return None
    blocked = s | {w for u in s for w in g.adj[u]}
    planarizers = None
    for wall in wall_candidates(flat, q, cfg.cap_wall_nodes, ctx.search):
        comp = compass(g, wall)
        if comp.vertices & blocked:
            continue
        # one bag holding V(comp) is a decomposition of width |V| - 1, and
        # min-fill's is never wider, so min-fill runs only when that bag
        # is wider than f2
        if len(comp.vertices) - 1 > f2 and width_witness(comp, f2) is None:
            continue
        if planarizers is None:
            planarizers = minimal_planarizers(g, op, k, ctx.witnesses)
            if not planarizers:
                return NoInstance(f"no {op.value}-planarizer of size <= {k}")
        if is_planarization_irrelevant(planarizers, comp.vertices):
            return WallArea(wall)
    return None


# -- Find_Vertex ----------------------------------------------------------------------

def find_vertex(k: int, g: Graph, r_set: Iterable, wall: Wall, op: Operation,
                phi: GaifmanSentence, params: Parameters,
                cfg: PipelineConfig = DEFAULTS,
                ctx: RunContext | None = None) -> IrrelevantRegion:
    """Pick equivalent disjoint subwalls inside the given wall and declare the
    chosen wall's inner compass irrelevant. The (X, v) it returns is a
    proposal, which `solve_pipeline` checks against exhaustive search.

    `ctx.chars` is the run's memo of characteristics: a tower whose
    `char_key` it holds takes the stored characteristic, which is exact
    (see `char_key`), and a computed one is stored. The memo must serve one
    run only, since the key leaves out op, phi, params and cfg."""
    r_set = frozenset(r_set)
    rho = params.rho
    if params.r > rho:
        raise InputError(f"tower of height {rho} cannot host X = V(K^(r)) with r={params.r}")
    sub_height = 2 * rho + 1
    if wall.height < sub_height:
        raise ResourceLimitError(
            f"wall height {wall.height} cannot host ({sub_height})-subwalls; "
            f"lower rho_hat or supply a taller wall")
    subs = disjoint_subwalls(wall, sub_height)
    towers = []
    taken: set = set()
    for sub in subs:
        ec = extended_compass(g, sub, rho)
        if ec.compass.vertices & taken:
            continue
        taken |= ec.compass.vertices
        towers.append(ec)
    if len(towers) < 2:
        raise ResourceLimitError(
            f"only {len(towers)} disjoint subwall compasses; need at least 2")

    def finish(ec, region: frozenset) -> IrrelevantRegion:
        v = min(center(ec.wall))
        assert v in region
        return IrrelevantRegion(region, v)

    if rho >= 2:  # the early exit unannotates V(K^(rho-1))
        for ec in towers:
            if not ec.compass.vertices & r_set:
                return finish(ec, frozenset(ec.level(rho - 1).graph.vertices))

    chars = {} if ctx is None else ctx.chars
    buckets: dict = {}
    for ec in towers:
        key = char_key(ec, r_set, op, k)
        char = chars.get(key) if key is not None else None
        if char is None:
            char = compute_char(ec, r_set, op, k, phi, params, cfg)
            if key is not None:
                chars[key] = char
        buckets.setdefault(char.canonical_json(), []).append(ec)
    big = [b for b in sorted(buckets) if len(buckets[b]) >= BUCKET_THRESHOLD]
    if not big:
        raise ResourceLimitError(
            f"no bucket of {BUCKET_THRESHOLD} equivalent subwalls among "
            f"{len(towers)}; desk-scale parameters cannot justify a replacement here")
    chosen = buckets[big[0]][0]
    return finish(chosen, frozenset(chosen.level(params.r).graph.vertices))


def _verify_no_planarizer(g: Graph, scope: frozenset, k: int, op: Operation,
                          cfg: PipelineConfig, claim: str):
    """Raise SoundnessError, naming `claim`, when an op-planarizer of size
    <= k lies inside `scope`."""
    found = next(planar_sets(g, scope, k, op, cap=cfg.cap_oracle_subsets), None)
    if found is not None:
        raise SoundnessError(f"{claim} cross-check failed: "
                             f"{sorted(map(str, found[0].elements))} planarizes")


# -- Reduce_Instance ---------------------------------------------------------------

def reduce_instance(k: int, g: Graph, s: ModificationSet, r_set: Iterable,
                    op: Operation, phi: GaifmanSentence, params: Parameters,
                    cfg: PipelineConfig = DEFAULTS, ctx: RunContext | None = None):
    """One reduction step: a no-instance, an irrelevant region (via the
    area and vertex finders), or a bounded-width decomposition. `find_area`
    checks that S planarizes G. Nothing here is checked against exhaustive
    search; `solve_pipeline` does that. `ctx` is the run's context, handed
    to both finders.

    `params.q` must be a concrete odd q >= 3; `solve_pipeline` checks that
    once, before its opening search."""
    r_set = frozenset(r_set)
    if s.op is not Operation.VR or len(s) > k or not s.elements <= r_set:
        raise InputError("need a vertex-removal planarizer of size <= k inside R")
    outcome = find_area(k, params.q, g, s, op, cfg, ctx)
    if isinstance(outcome, WallArea):
        try:
            region = find_vertex(k, g, r_set, outcome.wall, op, phi, params, cfg, ctx)
        except ResourceLimitError as exc:
            # the trichotomy allows the decomposition branch instead
            fam = area_family(k, params.q)
            td = width_witness(g, fam["f1"])
            if td is None:
                raise
            outcome = BoundedTreewidth(td, fallback=str(exc))
        else:
            if not s.elements <= r_set - region.region:
                raise SoundnessError("planarizer is not preserved outside the region")
            return region
    return outcome


# -- pipeline ------------------------------------------------------------------------

@dataclass
class TraceStep:
    step: int
    outcome: str
    detail: dict
    k: int
    n: int
    ms: float = 0.0

    def to_json_obj(self, timings: bool = False) -> dict:
        obj = {"step": self.step, "outcome": self.outcome, "detail": self.detail,
               "k": self.k, "n": self.n}
        if timings:
            obj["ms"] = round(self.ms, 3)
        return obj


@dataclass
class PipelineResult:
    answer: bool
    witness: ModificationSet | None
    trace: list = field(default_factory=list)
    cross_checked: bool = False

    def trace_json_obj(self, timings: bool = False) -> list:
        return [t.to_json_obj(timings) for t in self.trace]


def solve_pipeline(inst: Instance, cfg: PipelineConfig = DEFAULTS) -> PipelineResult:
    """The reduction loop: planarize, drop obligatory vertices, shrink via
    irrelevant regions, finish on a bounded-width remainder by direct search.

    q must be a concrete odd q >= 3, checked once before anything is
    searched, so a bad q raises InputError on every path. The run opens, for
    every operation, with the one planarizer search: a vr-planarizer S of
    size <= k inside R, or of size 0 under ea, which removes no vertex (an
    edge addition never planarizes a nonplanar G). With none, the run ends
    in `no-planarizer`. A no-instance step comes from the wall branch of
    `find_area`, when G has no op-planarizer of size <= k at all; under vr
    and ea the opening has already found one, so only er and ec can take
    it.

    The opening settles S for the whole run. The opening search proved
    G − S planar, so from here on G is a copy that carries that proof
    (`planarity.certified_planar`, one memo hit): every G − S a step
    derives from it by deletion, every compass that misses S and every vr
    candidate G − F with F ⊇ S is planar without a test. The caller's graph
    stays unmarked. Under vr the opening then walks S once, in sorted
    order: u is obligatory when no vr-planarizer of size <= k avoids it
    (`find_vr_planarizer` over V − u, exact and without a budget), and an
    obligatory u leaves G, R, S and k at once. One walk finds what a check
    at every step would: another obligatory u′ stays obligatory in
    (G − u, k − 1), and a planarizer P that avoids a vertex still does,
    less what is deleted, after an obligatory vertex (which P holds)
    leaves or a step deletes a vertex outside S. The reported witness
    holds the obligatory vertices again, since G ⊠ (S ∪ U) = (G − U) ⊠ S
    under vr.

    With cross_check on, every cross-check happens here. An irrelevant-region
    step replaces the current question (G, R, k) by one that must be
    equivalent; it raises unless exhaustive search answers both the same.
    The checks form a chain: a step's "before" question is the previous
    step's "after", which the memo answers. An obligatory vertex is
    checked on its own. It lies in R and every planarizer within the
    budget contains it, so (G − u, R − u, k − 1) has the answer of
    (G, R, k) and the chain runs through it.

    The closing trace entry compares the pipeline's answer with exhaustive
    search on the input question, or says why the oracle's caps stopped it.
    It asks `is_triple` on the input, which enumerates the same sets as
    `solve_oracle` and reads the sentence the same way: `Instance` allows
    an unannotated sentence only with R = V, where the annotated reading
    is the same. So when a search of the run already asked the input
    question (the final search when no step was taken, or the first
    irrelevant-region step's "before"), the memo answers it.

    The run makes one `RunContext` and hands it to every step, so no
    question is answered twice:
    - a tower shape met at an earlier step, or earlier in the same step, is
      not characterised again (`ctx.chars`);
    - pass 1 of the wall search resumes across steps (`ctx.search`): a
      step deletes a vertex outside S, so each step's G − S is the last
      one less one vertex;
    - a graph's Kuratowski witness, built by the opening search, is reused
      by the obligatory and wall-branch searches on the same G
      (`ctx.witnesses`, cleared whenever G is replaced);
    - `is_triple` answers a question equal to one it solved before from
      its memo (`ctx.solved`). So the final search reads the last step's
      "after" answer and witness, and the closing cross-check the input's.
      After N irrelevant-region steps a checked run has solved at most
      N + 2 questions, the final search and the closing check included,
      and an unchecked run one.
    """
    if not isinstance(inst.phi, GaifmanSentence):
        raise InputError("the pipeline needs a Gaifman sentence; "
                         "plain formulas run under the oracle only")
    params = compute_parameters(inst.k, inst.phi, cfg)
    if not isinstance(params.q, int) or params.q < 3 or params.q % 2 == 0:
        raise InputError("the pipeline needs a concrete odd q >= 3; set q_hat")
    g = inst.graph
    r_set = inst.scope()
    k = inst.k
    op = inst.op
    trace: list = []
    result: PipelineResult | None = None
    obligatory: set = set()
    ctx = RunContext()

    def log(outcome: str, detail: dict, t0: float):
        trace.append(TraceStep(len(trace) + 1, outcome, detail, k,
                               len(g.vertices), (time.perf_counter() - t0) * 1000))

    t0 = time.perf_counter()
    # edge additions remove no vertex, so under ea the opening asks for a
    # vr-planarizer of size 0: is G planar?
    s = find_vr_planarizer(g, 0 if op is Operation.EA else k, r_set, ctx.witnesses)
    if s is None:
        log("no-planarizer", {"within": "R"}, t0)
        result = PipelineResult(False, None, trace)
    else:
        # the opening proved G − S planar (a memo hit here); every later G
        # derives from this copy by deletion and keeps the proof
        g = certified_planar(g, s.elements)
        for u in s.sorted_elements() if op is Operation.VR else ():
            t0 = time.perf_counter()
            if find_vr_planarizer(g, k, g.vertices - {u}, ctx.witnesses) is not None:
                continue
            if cfg.cross_check:
                _verify_no_planarizer(g, g.vertices - {u}, k, Operation.VR, cfg,
                                      f"obligatory-vertex {u!r}")
            log("obligatory-vertex",
                {"vertex": u, "reason": f"no vr-planarizer of size <= {k} avoids it"}, t0)
            g = g.remove_vertices([u])
            ctx.witnesses.clear()
            r_set = r_set - {u}
            k -= 1
            obligatory.add(u)
        s = ModificationSet(Operation.VR, s.elements - obligatory)
    max_steps = max(len(inst.graph.vertices), 1)
    steps = 0
    while result is None:
        steps += 1
        if steps > max_steps:
            raise ResourceLimitError("reduction loop exceeded |V| steps")
        t0 = time.perf_counter()
        outcome = reduce_instance(k, g, s, r_set, op, inst.phi, params, cfg, ctx)
        if isinstance(outcome, NoInstance):
            if cfg.cross_check:
                _verify_no_planarizer(g, g.vertices, k, op, cfg, "no-instance")
            log("no-instance", {"reason": outcome.reason}, t0)
            result = PipelineResult(False, None, trace)
        elif isinstance(outcome, IrrelevantRegion):
            smaller = g.remove_vertices([outcome.vertex])
            r_smaller = r_set - outcome.region
            if cfg.cross_check and (
                    is_triple(g, r_set, k, op, inst.phi, cfg, solved=ctx.solved)
                    != is_triple(smaller, r_smaller, k, op, inst.phi, cfg, solved=ctx.solved)):
                raise SoundnessError(
                    f"irrelevant-region cross-check failed: removing "
                    f"{outcome.vertex!r} and unannotating {len(outcome.region)} "
                    f"vertices flips the answer")
            log("irrelevant-region", {"vertex": outcome.vertex,
                                      "|X|": len(outcome.region)}, t0)
            g, r_set = smaller, r_smaller
            ctx.witnesses.clear()
        else:
            answer, witness = is_triple(g, r_set, k, op, inst.phi, cfg,
                                        want_witness=True, solved=ctx.solved)
            if obligatory and witness is not None:
                witness = ModificationSet(Operation.VR, witness.elements | obligatory)
            detail = {"width": outcome.decomposition.width(), "answer": answer}
            if outcome.fallback is not None:
                detail["fallback"] = outcome.fallback
            log("bounded-treewidth", detail, t0)
            result = PipelineResult(answer, witness, trace)
    if cfg.cross_check:
        t0 = time.perf_counter()
        try:
            expect = is_triple(inst.graph, inst.scope(), inst.k, op, inst.phi, cfg,
                               solved=ctx.solved)
        except ResourceLimitError as exc:
            log("cross-check-skipped", {"reason": str(exc)}, t0)
        else:
            if expect != result.answer:
                raise SoundnessError(
                    f"pipeline answered {result.answer}, oracle says {expect}")
            result.cross_checked = True
            log("cross-check", {"agrees": True}, t0)
    return result
