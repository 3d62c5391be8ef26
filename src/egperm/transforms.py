"""Graph operations that preserve the extended graph permanent.

Covers the Schnetz twist across a 4-vertex cut, planar duality via an
explicit rotation system, splitting at a 2-vertex cut, and the
involution machinery behind the symmetry-zero criterion: a graph whose
automorphism group contains an involution with an odd number of
crossing edges and at least one fixed vertex has residue 0 at every
prime p = 3 (mod 4).
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import GraphError, OrientedGraph

__all__ = [
    "FourCutSpec",
    "Involution",
    "automorphisms",
    "canonical_form",
    "find_involutions",
    "symmetry_zero_predicate",
    "schnetz_twist",
    "planar_dual",
    "two_vertex_split",
    "isomorphic",
]

AUTOMORPHISM_VERTEX_CAP = 16


@dataclass(frozen=True)
class FourCutSpec:
    """A 4-vertex cut (v1, v2, v3, v4) and the vertex set properly on one side."""

    cut_vertices: tuple[int, int, int, int]
    left_vertices: frozenset[int]

    def __post_init__(self):
        object.__setattr__(self, "left_vertices", frozenset(self.left_vertices))
        if set(self.cut_vertices) & self.left_vertices:
            raise GraphError("cut vertices cannot be on the left side proper")


@dataclass(frozen=True)
class Involution:
    permutation: tuple[int, ...]
    crossing_edge_count: int
    fixed_vertex_count: int


def _refine(cells: list[list[int]], nbrs: list[list[int]]) -> list[list[int]]:
    """Split every cell by the sorted colours of its vertices' neighbours, to a fixpoint.

    A vertex's colour is the index of its cell; the parts of a split cell
    keep its place, in the order of their signatures.
    """
    while True:
        colour = {v: i for i, cell in enumerate(cells) for v in cell}
        split = []
        for cell in cells:
            if len(cell) == 1:
                split.append(cell)
                continue
            sig = {v: tuple(sorted([colour[w] for w in nbrs[v]])) for v in cell}
            split += [[v for v in cell if sig[v] == key] for key in sorted(set(sig.values()))]
        if len(split) == len(cells):
            return cells
        cells = split


def _search(g: OrientedGraph):
    """Individualisation-refinement search over the underlying multigraph.

    Returns the least leaf edge list and automorphisms that generate the
    group: the maps from each leaf to the first and the best leaf before
    it with the same edge list.  A child is skipped when an automorphism
    found so far, fixing every individualised vertex on the path, maps a
    tried child onto it (McKay, "Practical graph isomorphism", 1981).
    """
    n = g.vertex_count
    if n > AUTOMORPHISM_VERTEX_CAP:
        raise GraphError(f"isomorphism search capped at {AUTOMORPHISM_VERTEX_CAP} vertices")
    nbrs = [[h for t, h in g.edges if t == v] + [t for t, h in g.edges if h == v]
            for v in range(n)]
    gens: set[tuple[int, ...]] = set()
    kept = []   # (edge list, vertex at each position) of the first and the best leaf

    def visit(cells: list[list[int]], path: list[int]) -> None:
        cells = _refine(cells, nbrs)
        open_cells = [i for i, cell in enumerate(cells) if len(cell) > 1]
        if not open_cells:
            at = [cell[0] for cell in cells]
            pos = {v: i for i, v in enumerate(at)}
            leaf = (tuple(sorted((min(pos[t], pos[h]), max(pos[t], pos[h]))
                                 for t, h in g.edges)), at)
            gens.update(tuple(other[pos[v]] for v in range(n))
                        for form, other in kept if form == leaf[0])
            kept[:] = [kept[0], min(kept[1], leaf)] if kept else [leaf, leaf]
            return
        i = min(open_cells, key=lambda j: len(cells[j]))
        tried: list[int] = []
        for v in cells[i]:
            fixing = [a for a in gens if all(a[u] == u for u in path)]
            orbit, size = set(tried), -1
            while len(orbit) != size:
                size = len(orbit)
                orbit |= {a[u] for a in fixing for u in orbit}
            if v in orbit:
                continue
            tried.append(v)
            visit(cells[:i] + [[v], [u for u in cells[i] if u != v]] + cells[i + 1:],
                  path + [v])

    visit([list(range(n))], [])
    return kept[1][0], gens


def canonical_form(g: OrientedGraph) -> tuple[tuple[int, int], ...]:
    """The underlying multigraph's edges under a canonical labelling (<= 16 vertices).

    Two graphs with the same vertex count are isomorphic iff their forms are equal.
    """
    return _search(g)[0]


def automorphisms(g: OrientedGraph) -> list[tuple[int, ...]]:
    """All automorphisms of the underlying multigraph (<= 16 vertices), sorted."""
    gens, group = _search(g)[1], {tuple(range(g.vertex_count))}
    todo = list(group)
    for a in todo:  # grows while it is walked
        new = {tuple(b[v] for v in a) for b in gens} - group
        group |= new
        todo += new
    return sorted(group)


def isomorphic(g1: OrientedGraph, g2: OrientedGraph) -> bool:
    return ((g1.vertex_count, g1.edge_count) == (g2.vertex_count, g2.edge_count)
            and canonical_form(g1) == canonical_form(g2))


def find_involutions(g: OrientedGraph) -> list[Involution]:
    """Nontrivial involutive automorphisms with crossing/fixed statistics."""
    out = []
    n = g.vertex_count
    for tau in automorphisms(g):
        if tau == tuple(range(n)):
            continue
        if any(tau[tau[v]] != v for v in range(n)):
            continue
        crossing = sum(1 for t, h in g.edges if t != h and tau[t] == h)
        fixed = sum(1 for v in range(n) if tau[v] == v)
        out.append(Involution(tau, crossing, fixed))
    return out


def symmetry_zero_predicate(g: OrientedGraph) -> bool:
    """True iff some involution has odd crossing count and a fixed vertex."""
    return any(inv.crossing_edge_count % 2 == 1 and inv.fixed_vertex_count >= 1
               for inv in find_involutions(g))


def schnetz_twist(g: OrientedGraph, cut: FourCutSpec) -> OrientedGraph:
    """Redirect left-side edges at a 4-vertex cut: v1 <-> v2, v3 <-> v4."""
    v1, v2, v3, v4 = cut.cut_vertices
    left = cut.left_vertices
    cutset = set(cut.cut_vertices)
    right = set(range(g.vertex_count)) - left - cutset
    for t, h in g.edges:
        if (t in left and h in right) or (h in left and t in right):
            raise GraphError("cut does not separate the two sides")
    swap = {v1: v2, v2: v1, v3: v4, v4: v3}

    def redirect(end: int, other: int) -> int:
        if end in cutset and other in left:
            return swap[end]
        return end

    edges = tuple((redirect(t, h), redirect(h, t)) for t, h in g.edges)
    twisted = OrientedGraph(g.vertex_count, edges, g.special_vertex)
    if sorted(twisted.degrees()) != sorted(g.degrees()):
        raise GraphError("twist changed the degree sequence")
    return twisted


def planar_dual(g: OrientedGraph,
                rotation: dict[int, list[int]]) -> OrientedGraph:
    """Planar dual from a rotation system (cyclic edge order per vertex).

    Faces are traced through the rotation system; the Euler formula
    |V| - |E| + |F| = 2 certifies a genus-0 embedding.  The dual keeps
    the original edge order: dual edge j joins the two faces on either
    side of edge j.
    """
    if g.has_loop:
        raise GraphError("planar dual does not support loops")
    if not g.is_connected():
        raise GraphError("planar dual needs a connected graph")
    for v in range(g.vertex_count):
        incident = sorted(j for j, (t, h) in enumerate(g.edges) if v in (t, h))
        if sorted(rotation.get(v, [])) != incident:
            raise GraphError(f"rotation at vertex {v} does not list its incident edges")

    succ = {}
    for v, order in rotation.items():
        k = len(order)
        for i, e in enumerate(order):
            succ[(v, e)] = order[(i + 1) % k]

    def dart_head(e: int, forward: bool) -> int:
        t, h = g.edges[e]
        return h if forward else t

    # next dart of the face walk: arrive at v along e, leave along the
    # rotation successor of e at v
    def next_dart(e: int, forward: bool):
        v = dart_head(e, forward)
        e2 = succ[(v, e)]
        t2, h2 = g.edges[e2]
        return (e2, t2 == v)

    face_of_dart: dict[tuple[int, bool], int] = {}
    faces = 0
    for e in range(g.edge_count):
        for forward in (True, False):
            if (e, forward) in face_of_dart:
                continue
            d = (e, forward)
            while d not in face_of_dart:
                face_of_dart[d] = faces
                d = next_dart(*d)
            faces += 1
    if g.vertex_count - g.edge_count + faces != 2:
        raise GraphError("rotation system is not a genus-0 embedding")
    dual_edges = []
    for e in range(g.edge_count):
        f1 = face_of_dart[(e, True)]
        f2 = face_of_dart[(e, False)]
        dual_edges.append((min(f1, f2), max(f1, f2)))
    return OrientedGraph(faces, tuple(dual_edges), 0)


def two_vertex_split(g: OrientedGraph,
                     pair: tuple[int, int]) -> tuple[OrientedGraph, OrientedGraph]:
    """Split at a 2-vertex cut; each side gains a new edge joining the pair."""
    v1, v2 = pair
    cut = {v1, v2}
    without_pair = OrientedGraph(
        g.vertex_count, tuple(e for e in g.edges if not cut & set(e)),
        g.special_vertex)
    comps = [c for c in without_pair.components() if not c & cut]
    if len(comps) < 2:
        raise GraphError("pair is not a 2-vertex cut")
    left = comps[0]
    right = set().union(*comps[1:])
    sides = []
    for side, takes_cut_edges in ((left, False), (right, True)):
        keep = sorted(side) + [v1, v2]
        remap = {v: i for i, v in enumerate(keep)}
        edges = []
        for t, h in g.edges:
            if t in side or h in side:
                edges.append((remap[t], remap[h]))
            elif takes_cut_edges and {t, h} <= {v1, v2}:
                # edges joining the cut pair itself stay with one side
                edges.append((remap[t], remap[h]))
        edges.append((remap[v1], remap[v2]))
        sides.append(OrientedGraph(len(keep), tuple(edges), remap[v2]))
    return sides[0], sides[1]
