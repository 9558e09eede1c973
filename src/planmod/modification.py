"""The four modification operations, application domains, and planarizers."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import combinations
from typing import Iterable, Iterator

from .errors import InputError, ResourceLimitError
from .graphs import Graph, merge_groups, norm_edge, vertex_key
from .planarity import is_planar, kuratowski


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
        return sorted(self.elements, key=vertex_key)

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
    pairs = frozenset(norm_edge(u, v) for u, v in combinations(sorted(r_set, key=vertex_key), 2))
    if op is Operation.EA:
        return pairs - g.edges
    return pairs & g.edges


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
    domain = sorted(domain, key=vertex_key)
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

    `minimal` keeps only the sets that were tested and found planar with no
    such set inside them; when the enumeration goes smallest first, these
    are its inclusion-minimal planar sets. `nonplanar` keeps the ea sets
    that were tested and found nonplanar."""

    def __init__(self, g: Graph, op: Operation):
        self.g = g
        self.op = op
        self.minimal: list = []
        self.nonplanar: set = set()
        self._g_tested = False

    def covers(self, sub: frozenset) -> bool:
        """Some kept planar set lies inside sub."""
        return any(prev <= sub for prev in self.minimal)

    def known(self, sub: frozenset) -> bool | None:
        """The answer for g ⊠ sub that the sets tested so far settle, or
        None when it needs a test."""
        if sub and not self._g_tested:
            self.test(frozenset(), self.g)
        if self.op is Operation.EA:
            # a set inside sub holds at most |sub| pairs, so look each up
            if any(frozenset(part) in self.nonplanar
                   for size in range(len(sub) + 1) for part in combinations(sub, size)):
                return False
            return None
        return True if self.covers(sub) else None

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
        if planar and not self.covers(sub):
            self.minimal.append(sub)
        elif not planar and self.op is Operation.EA:
            self.nonplanar.add(sub)
        return planar


def planar_sets(g: Graph, scope: Iterable, k: int, op: Operation, *,
                exact: bool = False, cap: int | None = None
                ) -> Iterator[tuple[ModificationSet, Graph]]:
    """(S, g ⊠ S) for every S ⊆ op⟨g, scope⟩ with |S| ≤ k (exactly k when
    `exact`) that makes g planar, smallest first, in `subsets_up_to` order.
    `cap` bounds the subsets enumerated, those of other sizes included;
    `PlanarSets` decides planarity, and g ⊠ S is not built for an ea set
    that holds a set already found nonplanar.

    This is the one search behind the oracle, the final search and every
    cross-check. Two loops stay apart on purpose: `minimal_planarizers` and
    `compute_char` skip a set covered by a planar subset before they build
    g ⊠ S, which on a planar wall is every set, and `compute_char` also
    shares one `PlanarSets` and one cumulative cap across its z loop. `sigoracle.char_oracle` and the
    tests' reference loops are independent by design."""
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


def minimal_planarizers(g: Graph, op: Operation, k: int,
                        cap: int | None = None) -> Iterator[ModificationSet]:
    """All inclusion-minimal op-planarizers of size <= k, by exhaustive
    enumeration; supersets of a planarizer already found are skipped."""
    planar = PlanarSets(g, op)
    for sub in subsets_up_to(application_domain(op, g, g.vertices), k, cap):
        if planar.covers(sub):
            continue
        s = ModificationSet(op, sub)
        if planar(s):
            yield s


def is_planarization_irrelevant(g: Graph, op: Operation, k: int, q_set: Iterable,
                                cap: int | None = None) -> bool:
    """True iff every inclusion-minimal op-planarizer of size <= k affects no
    vertex of q_set. Oracle role: computed by exhaustive enumeration."""
    q_set = frozenset(q_set)
    return all(not (affected(s) & q_set) for s in minimal_planarizers(g, op, k, cap))


def find_vr_planarizer(g: Graph, k: int, scope: Iterable | None = None
                       ) -> ModificationSet | None:
    """Some vr-planarizer of size <= k inside `scope` (all of V when None),
    or None.

    Branches over the vertices of `scope` on an extracted Kuratowski
    subgraph: any planarizer inside the scope must hit every such subgraph
    at a vertex of the scope, so the search is exhaustive with depth <= k.
    """
    if k < 0:
        raise InputError("budget must be non-negative")
    chosen = _branch_vr(g, k, None if scope is None else frozenset(scope))
    if chosen is None:
        return None
    return ModificationSet(Operation.VR, chosen)


def _branch_vr(g: Graph, k: int, scope: frozenset | None) -> frozenset | None:
    # the memoised test answers planarity; a Kuratowski witness is built
    # only for a nonplanar g with budget left to branch on
    if is_planar(g):
        return frozenset()
    if k == 0:
        return None
    for v in sorted(kuratowski(g).vertices, key=vertex_key):
        if scope is not None and v not in scope:
            continue
        rest = _branch_vr(g.remove_vertices([v]), k - 1, scope)
        if rest is not None:
            return rest | {v}
    return None
