"""Layers, center, central subwalls and bricks of the elementary r-wall by
peeling an embedding: the reference that `walls`, which reads them off
coordinates (`_layer_cycles`, `center`, `central_subwall`, the bricks of
`wall_annulus`), is tested against.

Each layer is the outer face of one `planarity.embed` of what is left; the
face set of a (subdivided) wall is unique and the outer face is the strictly
largest one. Peeling the layer and the degree-one debris leaves the next
central subwall."""

from planmod.errors import InputError
from planmod.graphs import Graph
from planmod.planarity import embed
from planmod.walls import _strip_debris, elementary_positions


def outer_cycle(g: Graph) -> tuple:
    """The boundary cycle of the outer face of one embedding of g."""
    faces = embed(g)
    if faces is None:
        raise InputError("graph is not planar")
    face = faces[-1]
    if len(face) != len(set(face)):
        raise InputError("outer face is not a simple cycle")
    return face


def peeled_structure(r: int) -> tuple:
    """(layers, center, local_maps, bricks) of the elementary r-wall: each
    layer a position cycle in the orientation `embed`'s faces give it,
    the two central positions, local_maps[i] from the positions of the i-th
    central subwall to those of the elementary (r-2i)-wall, and each brick
    as a frozenset of six positions."""
    g = Graph(*elementary_positions(r))
    rho = (r - 1) // 2
    layers = []
    windows = [frozenset(g.vertices)]
    h = g
    for _ in range(rho):
        cycle = outer_cycle(h)
        layers.append(cycle)
        h = _strip_debris(h.remove_vertices(cycle))
        windows.append(frozenset(h.vertices))
    # center: the unique leftover component with two vertices
    leftover = g.remove_vertices(set().union(*map(set, layers)))
    two = [c for c in leftover.components() if len(c) == 2]
    assert len(two) == 1, "expected exactly one two-vertex central component"
    center = tuple(sorted(two[0]))
    # odd peel counts reflect vertically so the removed-corner convention
    # matches the constructor
    local_maps = []
    for i in range(rho):
        if i % 2 == 0:
            lm = {(x, y): (x - 2 * i, y - i) for (x, y) in windows[i]}
        else:
            lm = {(x, y): (x - 2 * i, r - i + 1 - y) for (x, y) in windows[i]}
        assert frozenset(lm.values()) == elementary_positions(r - 2 * i)[0]
        local_maps.append(lm)
    bricks = []
    for x in range(1, 2 * r - 1):
        for y in range(1, r):
            if (x + y) % 2 != 0:
                continue
            cell = {(x, y), (x + 1, y), (x + 2, y), (x, y + 1), (x + 1, y + 1), (x + 2, y + 1)}
            if cell <= g.vertices:
                bricks.append(frozenset(cell))
    return tuple(layers), center, tuple(local_maps), tuple(bricks)
