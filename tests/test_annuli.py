from dataclasses import dataclass

import pytest

from planmod.annuli import (AnnulusBoundariedGraph, annulus_violations,
                            glue_equivalence, random_separator,
                            separator_violations)
from planmod.errors import InputError
from planmod.graphs import Graph, complete_graph
from planmod.planarity import is_planar
from planmod.walls import layers, make_elementary_wall, wall_annulus


@dataclass(frozen=True)
class WallComponent:
    """A chord over V(Y) or a connected piece of K minus V(Y), with the set of
    Y-vertices it attaches to."""

    kind: str            # "edge" or "piece"
    vertices: frozenset  # endpoints for a chord, the piece's vertices otherwise
    attached: frozenset


def wall_components(abg: AnnulusBoundariedGraph) -> list:
    """Chords over V(Y) plus maximal connected pieces of K \\ V(Y), each with
    its attachment set."""
    y = abg.annulus.graph
    comps = []
    for u, v in abg.graph.sorted_edges():
        if u in y.vertices and v in y.vertices and not y.has_edge(u, v):
            comps.append(WallComponent("edge", frozenset((u, v)), frozenset((u, v))))
    rest = abg.compass.remove_vertices(y.vertices)
    for piece in rest.components():
        attached = frozenset(w for v in piece for w in abg.graph.adj[v]
                             if w in y.vertices)
        comps.append(WallComponent("piece", piece, attached))
    return comps


def is_brick_component(abg: AnnulusBoundariedGraph, comp: WallComponent) -> bool:
    return any(comp.attached <= set(brick) for brick in abg.annulus.bricks)


def att(abg: AnnulusBoundariedGraph, h: Graph) -> Graph:
    """Subgraph of G induced by V(H) plus the wall-components attached only
    to H."""
    if not h.is_subgraph_of(abg.annulus.graph):
        raise InputError("att expects a subgraph of the wall-annulus")
    verts = set(h.vertices)
    for comp in wall_components(abg):
        if comp.attached and comp.attached <= h.vertices:
            verts |= comp.vertices
    return abg.graph.induced(verts)


def attachment_observation_holds(abg: AnnulusBoundariedGraph, h: Graph) -> bool:
    """If att(H) is planar, every wall-component inside att(H) attaches only
    to extremal-cycle vertices or is a brick-component."""
    region = att(abg, h)
    if not is_planar(region):
        return True
    boundary = set(abg.inner_cycle) | set(abg.outer_cycle)
    for comp in wall_components(abg):
        if comp.vertices <= region.vertices:
            if comp.attached <= boundary or is_brick_component(abg, comp):
                continue
            return False
    return True


def plain_abg(height=7, p=3, ell=3):
    w = make_elementary_wall(height)
    ann = wall_annulus(w, p, ell)
    return AnnulusBoundariedGraph(ann.graph, ann.graph, ann,
                                  ann.inner_cycle, ann.outer_cycle), w, ann


class TestAnnulusBoundaried:
    def test_bare_annulus_is_valid(self):
        abg, _, _ = plain_abg()
        assert not annulus_violations(abg)

    def test_orientation_reversal_is_valid(self):
        abg, _, ann = plain_abg()
        reversed_abg = AnnulusBoundariedGraph(abg.graph, abg.compass, ann,
                                              ann.outer_cycle, ann.inner_cycle)
        assert not annulus_violations(reversed_abg)

    def test_brick_component_attachment(self):
        abg, _, ann = plain_abg()
        brick = ann.bricks[0]
        a, b = brick[0], brick[3]
        g2 = abg.graph.add_edges([(a, b)])
        abg2 = AnnulusBoundariedGraph(g2, g2, ann, ann.inner_cycle, ann.outer_cycle)
        assert not annulus_violations(abg2)
        comps = wall_components(abg2)
        assert len(comps) == 1 and comps[0].kind == "edge"
        assert is_brick_component(abg2, comps[0])

    def test_y_not_subgraph_fails(self):
        abg, _, ann = plain_abg()
        smaller = abg.compass.remove_vertices([next(iter(ann.graph.vertices))])
        broken = AnnulusBoundariedGraph(smaller, smaller, ann,
                                        ann.inner_cycle, ann.outer_cycle)
        assert any("subgraph" in v for v in annulus_violations(broken))

    def test_att_of_whole_annulus(self):
        abg, _, ann = plain_abg()
        assert att(abg, ann.graph) == ann.graph

    def test_cross_brick_path_is_not_brick_component(self):
        # a path hung on two vertices of distinct bricks sharing no brick:
        # the component is not a brick-component, and since it attaches to
        # middle-layer vertices the observation flags the quadruple invalid
        abg, w, ann = plain_abg(9, 4, 3)
        middle = [v for v in layers(w)[1] if v not in ann.inner_cycle
                  and v not in ann.outer_cycle]
        in_bricks = [b for b in ann.bricks]
        def bricks_of(v):
            return {i for i, b in enumerate(in_bricks) if v in b}
        a = next(v for v in middle if bricks_of(v))
        b = next(v for v in middle
                 if bricks_of(v) and not bricks_of(v) & bricks_of(a))
        p1, p2 = 9001, 9002
        g2 = abg.graph.add_vertices([p1, p2]).add_edges([(a, p1), (p1, p2), (p2, b)])
        k2 = g2
        abg2 = AnnulusBoundariedGraph(g2, k2, ann, ann.inner_cycle, ann.outer_cycle)
        comps = [c for c in wall_components(abg2) if c.kind == "piece"]
        assert len(comps) == 1
        assert not is_brick_component(abg2, comps[0])
        boundary = set(ann.inner_cycle) | set(ann.outer_cycle)
        assert not comps[0].attached <= boundary
        # neither disjunct of the observation applies, so att must come out
        # nonplanar: the annulus faces give the path no room
        assert not is_planar(att(abg2, ann.graph))
        assert attachment_observation_holds(abg2, ann.graph)


class TestGlueEquivalence:
    def test_bare_annulus_all_planar(self):
        abg, _, ann = plain_abg()
        sep = _separator_from(abg)
        assert glue_equivalence(sep) == (True, True, True)

    def test_nonplanar_outside(self):
        sep = _with_k5_outside()
        g, i, o = glue_equivalence(sep)
        assert (g, i, o) == (False, True, False)

    def test_hundred_randomized(self):
        for seed in range(100):
            sep = random_separator(seed)
            g, i, o = glue_equivalence(sep)
            assert g == (i and o)

    def test_invalid_separator_rejected(self):
        abg, _, ann = plain_abg()
        sep = _separator_from(abg)
        broken = type(sep)(sep.graph, sep.compass, sep.annulus, sep.inner_cycle,
                           sep.outer_cycle, sep.g_in.remove_vertices(
                               [next(iter(sep.compass.vertices))]), sep.g_out)
        assert separator_violations(broken)
        with pytest.raises(InputError):
            glue_equivalence(broken)


def _separator_from(abg):
    from planmod.annuli import AnnulusEmbeddedSeparator
    return AnnulusEmbeddedSeparator(abg.graph, abg.compass, abg.annulus,
                                    abg.inner_cycle, abg.outer_cycle,
                                    abg.compass, abg.compass)


def _with_k5_outside():
    from planmod.annuli import AnnulusEmbeddedSeparator
    abg, _, ann = plain_abg()
    k5 = complete_graph(5, offset=5000)
    hook = ann.outer_cycle[0]
    g = Graph(abg.graph.vertices | k5.vertices,
              set(abg.graph.edges) | set(k5.edges) | {(hook, 5000)})
    g_out = g
    g_in = abg.compass
    return AnnulusEmbeddedSeparator(g, abg.compass, ann, ann.inner_cycle,
                                    ann.outer_cycle, g_in, g_out)
