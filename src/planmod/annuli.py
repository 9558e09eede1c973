"""Annulus-boundaried graphs and the planarity gluing equivalence across
annulus-embedded separators.

Topological statements are operationalized combinatorially: "the compass is
the part of the graph inside the region" becomes "no vertex strictly inside
the region has a neighbor outside it".
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from .errors import InputError
from .graphs import Graph, complete_graph, norm_edge
from .planarity import embed, is_planar
from .walls import WallAnnulus, make_elementary_wall, wall_annulus


def _cycle_edges(cycle: tuple) -> frozenset:
    return frozenset(norm_edge(a, b) for a, b in zip(cycle, cycle[1:] + cycle[:1]))


# -- annulus-boundaried graphs ---------------------------------------------------

@dataclass(frozen=True)
class AnnulusBoundariedGraph:
    """(G, K, Y, A): Y is a 3-wall-annulus inside the compass K, drawn in a
    closed annulus whose boundaries are Y's extremal cycles; inner_cycle is
    the boundary whose far side is an open disk."""

    graph: Graph
    compass: Graph
    annulus: WallAnnulus
    inner_cycle: tuple
    outer_cycle: tuple


def annulus_violations(abg: AnnulusBoundariedGraph) -> list:
    out = []
    y = abg.annulus.graph
    if abg.annulus.ell != 3:
        out.append("Y is not a 3-wall-annulus")
    if not abg.compass.is_subgraph_of(abg.graph):
        out.append("K is not a subgraph of G")
    elif not abg.compass.is_connected():
        out.append("K is not connected")
    if not y.is_subgraph_of(abg.compass):
        out.append("Y is not a subgraph of K")
        return out
    cycles = {_cycle_edges(abg.inner_cycle), _cycle_edges(abg.outer_cycle)}
    expected = {_cycle_edges(abg.annulus.inner_cycle), _cycle_edges(abg.annulus.outer_cycle)}
    if cycles != expected:
        out.append("oriented boundaries are not the extremal cycles of Y")
    if set(abg.inner_cycle) & set(abg.outer_cycle):
        out.append("extremal cycles are not disjoint")
    faces = embed(y)
    if faces is None:
        out.append("Y is not planar")
    else:
        cycles = {_cycle_edges(f) for f in faces if len(f) == len(set(f))}
        if not {_cycle_edges(abg.inner_cycle), _cycle_edges(abg.outer_cycle)} <= cycles:
            out.append("the extremal cycles do not bound faces of Y")
    strict_inside = abg.compass.vertices - set(abg.inner_cycle) - set(abg.outer_cycle)
    for u, v in abg.graph.edges:
        if (u in strict_inside) != (v in strict_inside):
            w = v if u in strict_inside else u
            if w not in abg.compass.vertices:
                out.append(f"vertex strictly inside the annulus has the outside neighbor {w!r}")
                break
    return out


# -- annulus-embedded separators ---------------------------------------------------

@dataclass(frozen=True)
class AnnulusEmbeddedSeparator:
    graph: Graph
    compass: Graph
    annulus: WallAnnulus
    inner_cycle: tuple
    outer_cycle: tuple
    g_in: Graph
    g_out: Graph

    def inner_quadruple(self) -> AnnulusBoundariedGraph:
        return AnnulusBoundariedGraph(self.g_in, self.compass, self.annulus,
                                      self.inner_cycle, self.outer_cycle)

    def outer_quadruple(self) -> AnnulusBoundariedGraph:
        return AnnulusBoundariedGraph(self.g_out, self.compass, self.annulus,
                                      self.outer_cycle, self.inner_cycle)


def separator_violations(sep: AnnulusEmbeddedSeparator) -> list:
    out = []
    vin, vout = sep.g_in.vertices, sep.g_out.vertices
    if vin | vout != sep.graph.vertices:
        out.append("sides do not cover the vertex set")
    if vin & vout != sep.compass.vertices:
        out.append("sides do not intersect exactly in V(K)")
    crossing = [e for e in sep.graph.edges
                if (e[0] in vin - vout and e[1] in vout - vin)
                or (e[1] in vin - vout and e[0] in vout - vin)]
    if crossing:
        out.append("the two sides are not a separation")
    if sep.g_in.edges | sep.g_out.edges != sep.graph.edges:
        out.append("sides do not cover the edge set")
    out += [f"inner: {v}" for v in annulus_violations(sep.inner_quadruple())]
    out += [f"outer: {v}" for v in annulus_violations(sep.outer_quadruple())]
    return out


def glue_equivalence(sep: AnnulusEmbeddedSeparator) -> tuple:
    """(planar G, planar G_in, planar G_out); across a valid separator the
    first equals the conjunction of the other two."""
    bad = separator_violations(sep)
    if bad:
        raise InputError("invalid separator: " + "; ".join(bad))
    return is_planar(sep.graph), is_planar(sep.g_in), is_planar(sep.g_out)


# -- random separator generator -----------------------------------------------------

def _random_gadget(rng: random.Random, first_id: int, nonplanar: bool) -> Graph:
    if nonplanar:
        return complete_graph(5, offset=first_id)
    kind = rng.choice(("path", "cycle", "tree", "clique4"))
    n = rng.randint(1, 5)
    verts = list(range(first_id, first_id + max(n, 1)))
    if kind == "path" or n < 3:
        edges = list(zip(verts, verts[1:]))
    elif kind == "cycle":
        edges = list(zip(verts, verts[1:])) + [(verts[0], verts[-1])]
    elif kind == "tree":
        edges = [(verts[rng.randrange(i)], verts[i]) for i in range(1, n)]
    else:
        verts = list(range(first_id, first_id + 4))
        edges = [(u, v) for u in verts for v in verts if u < v]
    return Graph(verts, edges)


def _hook(rng: random.Random, g: Graph, gadget: Graph, hooks: list) -> Graph:
    """g and gadget, with each hook of g joined to a gadget vertex that rng
    picks, hook by hook."""
    hook_edges = {norm_edge(rng.choice(gadget.sorted_vertices()), h) for h in hooks}
    return Graph(g.vertices | gadget.vertices, g.edges | gadget.edges | hook_edges)


def random_separator(seed: int) -> AnnulusEmbeddedSeparator:
    """A valid annulus-embedded separator built from the (3, 3)-annulus of
    the 7-wall with random attachments: single-brick components inside the
    compass, arbitrary gadgets hanging off the inner and outer cycles, each
    nonplanar with probability 1/4."""
    rng = random.Random(seed)
    wall = make_elementary_wall(7)
    ann = wall_annulus(wall, 3, 3)
    y = ann.graph
    inner, outer = ann.inner_cycle, ann.outer_cycle
    next_id = max(v for v in wall.graph.vertices) + 1

    k = y
    # in-compass attachments: chords and small planar pieces inside one brick
    for brick in rng.sample(list(ann.bricks), k=min(len(ann.bricks), rng.randint(0, 3))):
        verts = list(brick)
        if rng.random() < 0.5 and len(verts) >= 4:
            a, b = rng.sample(verts, 2)
            if not y.has_edge(a, b):
                k = k.add_edges([(a, b)])
        else:
            gadget = _random_gadget(rng, next_id, nonplanar=False)
            next_id += len(gadget.vertices) + 1
            k = _hook(rng, k, gadget, rng.sample(verts, k=rng.randint(1, 2)))

    def hang(cycle: tuple, g_acc: Graph, nonlocal_next: int) -> tuple:
        for _ in range(rng.randint(0, 2)):
            gadget = _random_gadget(rng, nonlocal_next, rng.random() < 0.25)
            nonlocal_next += len(gadget.vertices) + 1
            hooks = rng.sample(list(cycle), k=rng.randint(1, min(3, len(cycle))))
            g_acc = _hook(rng, g_acc, gadget, hooks)
        return g_acc, nonlocal_next

    g_in = k
    g_in, next_id = hang(inner, g_in, next_id)
    g_out = k
    g_out, next_id = hang(outer, g_out, next_id)
    total = Graph(g_in.vertices | g_out.vertices, set(g_in.edges) | set(g_out.edges))
    sep = AnnulusEmbeddedSeparator(total, k, ann, inner, outer, g_in, g_out)
    bad = separator_violations(sep)
    if bad:
        raise AssertionError(f"generator produced an invalid separator: {bad}")
    return sep
