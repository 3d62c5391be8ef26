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


def _adjacency_counts(g: OrientedGraph) -> list[dict[int, int]]:
    adj = [dict() for _ in range(g.vertex_count)]
    for t, h in g.edges:
        adj[t][h] = adj[t].get(h, 0) + 1
        if t != h:
            adj[h][t] = adj[h].get(t, 0) + 1
    return adj


def _iso_maps(g1: OrientedGraph, g2: OrientedGraph):
    """Backtracking multigraph isomorphism; yields vertex maps g1 -> g2."""
    n = g1.vertex_count
    if n != g2.vertex_count or g1.edge_count != g2.edge_count:
        return
    if n > AUTOMORPHISM_VERTEX_CAP:
        raise GraphError(f"isomorphism search capped at {AUTOMORPHISM_VERTEX_CAP} vertices")
    a1, a2 = _adjacency_counts(g1), _adjacency_counts(g2)
    deg1 = [sum(row.values()) for row in a1]
    deg2 = [sum(row.values()) for row in a2]
    if sorted(deg1) != sorted(deg2):
        return
    # map g1 by descending degree, ties by index (a regular graph: 0..n-1);
    # a candidate must agree on adjacency with every vertex mapped before it
    order = sorted(range(n), key=lambda v: -deg1[v])
    image = [-1] * n
    used = [False] * n

    def extend(i: int):
        if i == n:
            yield tuple(image)
            return
        v = order[i]
        for w in range(n):
            if used[w] or deg1[v] != deg2[w]:
                continue
            if a1[v].get(v, 0) != a2[w].get(w, 0):
                continue
            ok = True
            for u in order[:i]:
                if a1[v].get(u, 0) != a2[w].get(image[u], 0):
                    ok = False
                    break
            if not ok:
                continue
            image[v] = w
            used[w] = True
            yield from extend(i + 1)
            used[w] = False
            image[v] = -1

    yield from extend(0)


def automorphisms(g: OrientedGraph) -> list[tuple[int, ...]]:
    """All automorphisms of the underlying multigraph (<= 16 vertices)."""
    return list(_iso_maps(g, g))


def isomorphic(g1: OrientedGraph, g2: OrientedGraph) -> bool:
    for _ in _iso_maps(g1, g2):
        return True
    return False


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
