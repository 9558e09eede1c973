"""The four modification operations, application domains, and planarizers.

`PlanarSets` decides planarity for the sets of one enumeration: from the
sets already tested, by minor-closure (vr, er, ec) or supergraph-closure
(ea), and, for one added pair, from the faces of one embedding of g."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import combinations
from typing import Iterable, Iterator

from .errors import InputError, ResourceLimitError
from .graphs import Graph, merge_groups, norm_edge
from .planarity import embed, faces_are_fixed, is_planar, kuratowski


class Operation(Enum):
    VR = "vr"  # vertex removal
    ER = "er"  # edge removal
    EC = "ec"  # edge contraction
    EA = "ea"  # edge addition

    @classmethod
    def parse(cls, text: str) -> "Operation":
        try:
            return cls(text.lower())
        except ValueError:
            raise InputError(f"unknown operation {text!r}; expected vr, er, ec or ea")


@dataclass(frozen=True)
class ModificationSet:
    """An operation plus the set of vertices (vr) or vertex pairs (er/ec/ea)."""

    op: Operation
    elements: frozenset

    def __init__(self, op: Operation, elements: Iterable = ()):
        object.__setattr__(self, "op", op)
        if op is Operation.VR:
            object.__setattr__(self, "elements", frozenset(elements))
        else:
            object.__setattr__(self, "elements",
                               frozenset(norm_edge(*e) for e in elements))

    def __len__(self) -> int:
        return len(self.elements)

    def sorted_elements(self) -> list:
        return sorted(self.elements)

    def to_json_obj(self) -> dict:
        if self.op is Operation.VR:
            elems = self.sorted_elements()
        else:
            elems = [list(e) for e in self.sorted_elements()]
        return {"op": self.op.value, "elements": elems}


def application_domain(op: Operation, g: Graph, r_set: Iterable) -> frozenset:
    """Elements the operation may touch when restricted to the scope r_set."""
    r_set = frozenset(r_set)
    if not r_set <= g.vertices:
        raise InputError("scope contains unknown vertices")
    if op is Operation.VR:
        return r_set
    if op is Operation.EA:
        # pairs of sorted ids are already in norm_edge form
        return frozenset(combinations(sorted(r_set), 2)) - g.edges
    return frozenset(e for e in g.edges if e[0] in r_set and e[1] in r_set)


def affected(s: ModificationSet) -> frozenset:
    """Vertices touched by the set: the set itself for vr, endpoints otherwise."""
    if s.op is Operation.VR:
        return s.elements
    return frozenset(v for e in s.elements for v in e)


def apply(g: Graph, s: ModificationSet) -> Graph:
    """The graph after applying the whole set at once.

    Contraction merges every connected component of (A(S), S) into its least
    vertex id, so the result does not depend on any edge ordering.

    Each element is checked against the application domain over all of V on
    its own, without building that domain, so the check costs |S|, not n².
    """
    if s.op is Operation.VR:
        bad = s.elements - g.vertices
    elif s.op is Operation.EA:
        bad = {e for e in s.elements
               if e[0] not in g.vertices or e[1] not in g.vertices or e in g.edges}
    else:
        bad = s.elements - g.edges
    if bad:
        raise InputError(f"elements outside the application domain: {sorted(map(str, bad))}")
    if s.op is Operation.VR:
        return g.remove_vertices(s.elements)
    if s.op is Operation.ER:
        return g.remove_edges(s.elements)
    if s.op is Operation.EA:
        return g.add_edges(s.elements)
    contract_graph = Graph(affected(s), s.elements)
    return merge_groups(g, contract_graph.components())


def subsets_up_to(domain: Iterable, k: int, cap: int | None = None) -> Iterator[frozenset]:
    """All subsets of the domain of size 0..k, smallest first, in stable order."""
    domain = sorted(domain)
    count = 0
    for size in range(min(k, len(domain)) + 1):
        for combo in combinations(domain, size):
            count += 1
            if cap is not None and count > cap:
                raise ResourceLimitError(
                    f"subset enumeration exceeded cap {cap}; raise the cap to continue")
            yield frozenset(combo)


class PlanarSets:
    """Decides "is g ⊠ S planar?" for the sets of one enumeration over g.

    A test of one set settles its supersets in one direction, by the
    operation. vr, er and ec only ever make minors of g, and every minor of
    a planar graph is planar (Wagner): g ⊠ S is planar as soon as g ⊠ S' is
    for some S' ⊆ S. ea makes supergraphs: g + S is a subgraph of g + S'
    for S ⊆ S', so g + S' is nonplanar as soon as g + S is. The first query
    of a nonempty set tests g (S' = ∅), and a set that a set already tested
    settles is answered without a test. The answer is exact, never a guess.

    A one-pair ea set {uv} on a planar g is read off the faces of one
    embedding of g (`planarity.embed`, built at the first such query):
    (a) When u and v lie on one face f, g + uv is planar, for every
        embedding: draw uv inside f, whose boundary holds both ends. The
        merged outer face of a disconnected g also joins ends in two
        components, and an edge between components never breaks planarity.
    (b) When they share no face and g is a subdivision of a 3-connected
        graph (`planarity.faces_are_fixed`, asked at most once), g + uv is
        nonplanar. Suppose g + uv had a drawing. Deleting uv leaves a drawing
        of g with uv's curve inside one face, so u and v share a face of
        that drawing. By Whitney the 3-connected graph that g subdivides
        has one embedding up to reflection, so every embedding of g has the
        same faces as vertex sets, and u and v would share a face of ours.
    Otherwise (a pendant vertex, a degree-2 vertex smoothing keeps, a 2-cut)
    the set is tested. Sets of two or more pairs are always tested.

    `minimal` keeps only the sets that were tested and found planar with no
    such set inside them; when the enumeration goes smallest first, these
    are its inclusion-minimal planar sets. `nonplanar` keeps the ea sets
    that were tested and found nonplanar. A set the faces decide is kept as
    if it had been tested."""

    def __init__(self, g: Graph, op: Operation):
        self.g = g
        self.op = op
        self.minimal: list = []
        self.nonplanar: set = set()
        self._g_tested = False
        self._faces: dict | None = None  # vertex -> indices of the faces on it
        self._fixed: bool | None = None  # faces_are_fixed(g), once asked

    def covers(self, sub: frozenset) -> bool:
        """Some kept planar set lies inside sub."""
        return any(prev <= sub for prev in self.minimal)

    def known(self, sub: frozenset) -> bool | None:
        """The answer for g ⊠ sub that the sets tested so far, or for one
        pair g's faces, settle; None when it needs a test."""
        if sub and not self._g_tested:
            self.test(frozenset(), self.g)
        if self.op is Operation.EA:
            # a set inside sub holds at most |sub| pairs, so look each up;
            # the empty set is one of them, so past this g is planar
            if any(frozenset(part) in self.nonplanar
                   for size in range(len(sub) + 1) for part in combinations(sub, size)):
                return False
            if len(sub) != 1:
                return None
            planar = self._by_faces(*next(iter(sub)))
            if planar is not None:
                self._keep(sub, planar)
            return planar
        return True if self.covers(sub) else None

    def _by_faces(self, u, v) -> bool | None:
        """g + uv for the planar g by rules (a) and (b), or None."""
        if self._faces is None:
            self._faces = {}
            for i, face in enumerate(embed(self.g)):
                for x in face:
                    self._faces.setdefault(x, set()).add(i)
        if not self._faces.get(u, set()).isdisjoint(self._faces.get(v, ())):
            return True
        if self._fixed is None:
            self._fixed = faces_are_fixed(self.g)
        return False if self._fixed else None

    def __call__(self, s: ModificationSet) -> bool:
        """Is g ⊠ s planar?"""
        planar = self.known(s.elements)
        if planar is not None:
            return planar
        return self.test(s.elements, apply(self.g, s))

    def test(self, sub: frozenset, h: Graph) -> bool:
        """Test h = g ⊠ sub and keep what the answer settles."""
        if not sub:
            self._g_tested = True
        planar = is_planar(h)
        self._keep(sub, planar)
        return planar

    def _keep(self, sub: frozenset, planar: bool) -> None:
        if planar and not self.covers(sub):
            self.minimal.append(sub)
        elif not planar and self.op is Operation.EA:
            self.nonplanar.add(sub)


def planar_sets(g: Graph, scope: Iterable, k: int, op: Operation, *,
                exact: bool = False, cap: int | None = None
                ) -> Iterator[tuple[ModificationSet, Graph]]:
    """(S, g ⊠ S) for every S ⊆ op⟨g, scope⟩ with |S| ≤ k (exactly k when
    `exact`) that makes g planar, smallest first, in `subsets_up_to` order.
    `cap` bounds the subsets enumerated, those of other sizes included;
    `PlanarSets` decides planarity, and g ⊠ S is not built for an ea set
    that holds a set already found nonplanar, or for a pair that g's faces
    rule out.

    This is the one enumeration behind the oracle, the final search and
    every cross-check; the planarizer questions of every operation go to
    `_planarizers`' branching instead. One loop stays apart
    on purpose: `compute_char` shares one `PlanarSets` and one cumulative
    cap across its z loop, and skips a set covered by a planar subset
    before it builds g ⊠ S, which on a planar wall is every set.
    `sigoracle.char_oracle` and the tests' reference loops are independent
    by design."""
    planar = PlanarSets(g, op)
    for sub in subsets_up_to(application_domain(op, g, scope), k, cap):
        if exact and len(sub) != k:
            continue
        known = planar.known(sub)
        if known is False:
            continue
        ms = ModificationSet(op, sub)
        h = apply(g, ms)
        if known or planar.test(sub, h):
            yield ms, h


def _planarizers(g: Graph, op: Operation, k: int, scope: frozenset,
                 chosen: frozenset = frozenset()) -> Iterator[frozenset]:
    """op-planarizers of g that hold `chosen` (F), have size <= k and touch
    only vertices of `scope`, depth first; every inclusion-minimal one among
    them comes out, some sets more than once.

    (a) When h = g ⊠ F is planar, F comes out alone.
    (b) Otherwise let K be a Kuratowski subgraph of h. A planarizer P ⊇ F
        holds an x ∉ F that touches K, or K survives in g ⊠ P: under vr a
        vertex of K, under er an edge of K, and under ec an edge of g whose
        ends lie in different contraction groups of F, one of them the group
        of a vertex of K. (When no contracted edge has an end in V(K), every
        vertex of K stays its own class, so K survives.) A minimal P holds
        no edge inside one group, as contracting it changes nothing. So
        branching on these x, in sorted order, to depth k finds every
        minimal planarizer, and F + x is again the `chosen` of one branch.
    The depth is at most k, so the search needs no cap. ea cannot
    planarize a nonplanar g."""
    ms = ModificationSet(op, chosen)
    h = apply(g, ms) if chosen else g
    if is_planar(h):
        yield chosen
    elif op is not Operation.EA and len(chosen) < k:
        witness = kuratowski(h)
        if op is Operation.VR:
            branch = witness.sorted_vertices()
        elif op is Operation.ER:
            branch = witness.sorted_edges()
        else:
            rep = {v: min(c) for c in Graph(affected(ms), chosen).components() for v in c}
            ends = [(e, rep.get(e[0], e[0]), rep.get(e[1], e[1])) for e in g.sorted_edges()]
            branch = [e for e, a, b in ends if a != b and (a in witness or b in witness)]
        for x in branch:
            if affected(ModificationSet(op, [x])) <= scope:
                yield from _planarizers(g, op, k, scope, chosen | {x})


def minimal_planarizers(g: Graph, op: Operation, k: int) -> list[ModificationSet]:
    """All inclusion-minimal op-planarizers of size <= k, in `subsets_up_to`
    order: by size, then by the sorted elements. Exact under every operation
    by `_planarizers`' lemmas, with no cap."""
    found = sorted(set(_planarizers(g, op, k, g.vertices)),
                   key=lambda s: (len(s), sorted(s)))
    kept: list = []
    for s in found:
        if not any(prev <= s for prev in kept):
            kept.append(s)
    return [ModificationSet(op, s) for s in kept]


def is_planarization_irrelevant(planarizers: Iterable[ModificationSet],
                                q_set: Iterable) -> bool:
    """True iff no set of `planarizers`, the list of inclusion-minimal
    op-planarizers of size <= k that `minimal_planarizers` builds once per
    question, affects a vertex of q_set. An empty list answers True
    vacuously, so the caller reads it first: to the wall branch it is a
    no-instance."""
    q_set = frozenset(q_set)
    return all(not (affected(s) & q_set) for s in planarizers)


def find_vr_planarizer(g: Graph, k: int, scope: Iterable | None = None
                       ) -> ModificationSet | None:
    """Some vr-planarizer of size <= k inside `scope` (all of V when None),
    or None: the first set of `_planarizers`' branching, which is exhaustive
    with depth <= k, since a planarizer inside the scope must hit every
    Kuratowski subgraph at a vertex of the scope.
    """
    if k < 0:
        raise InputError("budget must be non-negative")
    scope = g.vertices if scope is None else frozenset(scope)
    chosen = next(_planarizers(g, Operation.VR, k, scope), None)
    return None if chosen is None else ModificationSet(Operation.VR, chosen)
