"""Oriented multigraphs, signed incidence matrices, and graph families.

Vertices are 0-based integers.  Edges are ordered (tail, head) pairs; the
edge list order is stable and fixes the column order of the incidence
matrix.  One vertex is designated *special*: its row is deleted from the
signed incidence matrix before any permanent is taken.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np


__all__ = [
    "OrientedGraph",
    "BlockSpec",
    "build_graph",
    "reduced_incidence",
    "full_incidence",
    "block_spec",
    "duplicate_edges",
    "banana",
    "wheel",
    "zigzag",
    "circulant",
    "cycle",
    "tree_from_parents",
    "path_tree",
    "star_tree",
    "triangles",
    "complete",
    "decomplete",
    "parse_graph",
    "format_graph",
]


# most vertices ``parse_graph`` accepts.  Planning grows like V^3: the
# cofactor planner takes about 2 s of CPU on circulant(400, 1, 2) on a
# 2-CPU machine, and no graph here has more than 16 vertices, while a
# header of 10^9 vertices ran out of memory before any check
MAX_VERTICES = 1_000


class GraphError(ValueError):
    """Invalid graph construction or operation."""


@dataclass(frozen=True)
class OrientedGraph:
    """Multigraph with per-edge orientation and a designated special vertex."""

    vertex_count: int
    edges: tuple[tuple[int, int], ...]
    special_vertex: int = 0

    def __post_init__(self):
        if self.vertex_count < 1:
            raise GraphError("graph needs at least one vertex")
        if not (0 <= self.special_vertex < self.vertex_count):
            raise GraphError("special vertex out of range")
        for t, h in self.edges:
            if not (0 <= t < self.vertex_count and 0 <= h < self.vertex_count):
                raise GraphError(f"edge ({t},{h}) endpoint out of range")
        object.__setattr__(self, "edges", tuple((int(t), int(h)) for t, h in self.edges))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def has_loop(self) -> bool:
        return any(t == h for t, h in self.edges)

    def degrees(self) -> list[int]:
        deg = [0] * self.vertex_count
        for t, h in self.edges:
            deg[t] += 1
            deg[h] += 1
        return deg

    def with_special(self, v: int) -> "OrientedGraph":
        return OrientedGraph(self.vertex_count, self.edges, v)

    def components(self) -> list[set[int]]:
        seen = [False] * self.vertex_count
        adj = [[] for _ in range(self.vertex_count)]
        for t, h in self.edges:
            adj[t].append(h)
            adj[h].append(t)
        comps = []
        for s in range(self.vertex_count):
            if seen[s]:
                continue
            stack, comp = [s], set()
            seen[s] = True
            while stack:
                v = stack.pop()
                comp.add(v)
                for w in adj[v]:
                    if not seen[w]:
                        seen[w] = True
                        stack.append(w)
            comps.append(comp)
        return comps

    def is_connected(self) -> bool:
        return len(self.components()) == 1


@dataclass(frozen=True)
class BlockSpec:
    """Block duplication counts: L = lcm(|V|-1, |E|), calV*(|V|-1) = calE*|E| = L."""

    L: int
    calV: int
    calE: int


def build_graph(edge_list: Iterable[tuple[int, int]],
                vertex_count: int,
                special_vertex: int = 0) -> OrientedGraph:
    """Build an oriented graph; loops and parallel edges are accepted."""
    return OrientedGraph(vertex_count, tuple(edge_list), special_vertex)


def full_incidence(g: OrientedGraph) -> np.ndarray:
    """Full |V| x |E| signed incidence matrix (+1 at head, -1 at tail)."""
    m = np.zeros((g.vertex_count, g.edge_count), dtype=np.int64)
    for j, (t, h) in enumerate(g.edges):
        m[h, j] += 1
        m[t, j] -= 1  # a loop nets to a zero column
    return m


def reduced_incidence(g: OrientedGraph) -> np.ndarray:
    """The (|V|-1) x |E| signed incidence matrix without the special vertex's row."""
    if g.vertex_count < 2:
        raise GraphError("reduced incidence needs at least two vertices")
    return np.delete(full_incidence(g), g.special_vertex, axis=0)


def block_spec(g: OrientedGraph) -> BlockSpec:
    if g.vertex_count < 2 or g.edge_count == 0:
        raise GraphError("block spec needs >= 2 vertices and >= 1 edge")
    r = g.vertex_count - 1
    e = g.edge_count
    L = math.lcm(r, e)
    return BlockSpec(L=L, calV=L // r, calE=L // e)


def duplicate_edges(g: OrientedGraph, n: int) -> OrientedGraph:
    """Replace every edge by n parallel copies with the same orientation."""
    if n < 1:
        raise GraphError("duplication count must be >= 1")
    edges = tuple((t, h) for (t, h) in g.edges for _ in range(n))
    return OrientedGraph(g.vertex_count, edges, g.special_vertex)


def _orient(u: int, v: int) -> tuple[int, int]:
    # default orientation: tail = smaller endpoint
    return (u, v) if u < v else (v, u)


def banana(k: int, special: int = 0) -> OrientedGraph:
    """Two vertices joined by k parallel edges."""
    if k < 1:
        raise GraphError("banana needs at least one edge")
    return OrientedGraph(2, tuple((0, 1) for _ in range(k)), special)


def cycle(n: int, special: int = 0) -> OrientedGraph:
    if n < 3:
        raise GraphError("cycle needs >= 3 vertices")
    return OrientedGraph(n, tuple(_orient(i, (i + 1) % n) for i in range(n)), special)


def wheel(w: int, special: int | None = None) -> OrientedGraph:
    """Wheel with w rim vertices 0..w-1 and apex vertex w (the last one).

    The default special vertex is the apex.
    """
    if w < 3:
        raise GraphError("wheel needs rim length >= 3")
    rim = [_orient(i, (i + 1) % w) for i in range(w)]
    spokes = [(i, w) for i in range(w)]
    sp = w if special is None else special
    return OrientedGraph(w + 1, tuple(rim + spokes), sp)


def circulant(n: int, a: int, b: int, special: int = 0) -> OrientedGraph:
    """Circulant graph on vertices 0..n-1 with connection distances a and b."""
    if n < 3 or not (0 < a < n and 0 < b < n):
        raise GraphError("invalid circulant parameters")
    pairs = set()
    for i in range(n):
        for d in (a, b):
            j = (i + d) % n
            if i != j:
                pairs.add(_orient(i, j))
    return OrientedGraph(n, tuple(sorted(pairs)), special)


def zigzag(m: int, special: int | None = None) -> OrientedGraph:
    """Zig-zag graph on m vertices: the decompletion of circulant(m+1, 1, 2).

    Vertex numbering follows the circulant with its last vertex removed; the
    special vertex defaults to vertex m-1, playing the role of the
    right-most vertex of the usual drawing.
    """
    if m < 4:
        raise GraphError("zig-zag needs >= 4 vertices")
    g = decomplete(circulant(m + 1, 1, 2), m)
    return g.with_special(m - 1 if special is None else special)


def tree_from_parents(parents: Sequence[int], special: int = 0) -> OrientedGraph:
    """Tree on len(parents)+1 vertices; vertex i+1 hangs below parents[i]."""
    n = len(parents) + 1
    edges = tuple(_orient(parents[i], i + 1) for i in range(len(parents)))
    return OrientedGraph(n, edges, special)


def path_tree(n: int, special: int = 0) -> OrientedGraph:
    return tree_from_parents(list(range(n - 1)), special)


def star_tree(n: int, special: int = 0) -> OrientedGraph:
    return tree_from_parents([0] * (n - 1), special)


def triangles(g: OrientedGraph) -> int:
    """Number of triangles of a simple graph."""
    adj = [set() for _ in range(g.vertex_count)]
    for t, h in g.edges:
        adj[t].add(h)
        adj[h].add(t)
    return sum(len(adj[t] & adj[h]) for t, h in g.edges) // 3


def complete(g: OrientedGraph) -> OrientedGraph:
    """Add one vertex joined so that the result is 4-regular."""
    deg = g.degrees()
    if any(d > 4 for d in deg):
        raise GraphError("completion impossible: vertex of degree > 4")
    deficiency = [4 - d for d in deg]
    if sum(deficiency) != 4:
        raise GraphError("completion impossible: deficiencies do not sum to 4")
    new = g.vertex_count
    extra = tuple((v, new) for v in range(g.vertex_count) for _ in range(deficiency[v]))
    return OrientedGraph(new + 1, g.edges + extra, g.special_vertex)


def decomplete(g: OrientedGraph, v: int) -> OrientedGraph:
    """Delete vertex v and its incident edges, shifting higher indices down."""
    if not (0 <= v < g.vertex_count):
        raise GraphError("decompletion vertex out of range")
    if g.vertex_count < 2:
        raise GraphError("cannot decomplete a single vertex")

    def shift(u: int) -> int:
        return u - 1 if u > v else u

    edges = tuple((shift(t), shift(h)) for t, h in g.edges if t != v and h != v)
    special = g.special_vertex
    if special == v:
        special = 0
    else:
        special = shift(special)
    return OrientedGraph(g.vertex_count - 1, edges, special)


# ---------------------------------------------------------------------------
# Text format:  header "V <n>" or "V <n> SPECIAL <k>" (special vertex 0 by
# default), one "t h" pair per line, optional "ROT v: e1 e2 ..." lines
# giving a rotation system, "#" comments.
# ---------------------------------------------------------------------------

def parse_graph(text: str) -> tuple[OrientedGraph, dict[int, list[int]] | None]:
    vertex_count = None
    special = 0
    edges: list[tuple[int, int]] = []
    rot_lines: list[tuple[str, int, list[int]]] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            if parts[0] == "V" and len(parts) == 2:
                vertex_count, special = int(parts[1]), 0
            elif parts[0] == "V" and len(parts) == 4 and parts[2] == "SPECIAL":
                vertex_count, special = int(parts[1]), int(parts[3])
            elif parts[0] == "ROT":
                rot_lines.append((raw, int(parts[1].rstrip(":")), [int(x) for x in parts[2:]]))
            else:  # an edge; any other line fails int()
                t, h = map(int, parts)  # exactly two fields
                edges.append((t, h))
        except (IndexError, ValueError):
            raise GraphError(f"unparsable line: {raw!r}") from None
    if vertex_count is None:
        raise GraphError("missing 'V <n>' header")
    if vertex_count > MAX_VERTICES:
        raise GraphError(f"'V {vertex_count}' is over the limit of {MAX_VERTICES} vertices")
    g = OrientedGraph(vertex_count, tuple(edges), special)
    rotation: dict[int, list[int]] = {}
    for raw, v, order in rot_lines:
        if v in rotation or not 0 <= v < vertex_count or not all(
                0 <= e < len(edges) for e in order):
            raise GraphError(f"unparsable line: {raw!r}: ROT takes a vertex of 0.."
                             f"{vertex_count - 1} not listed before, and edge indices "
                             f"of 0..{len(edges) - 1}")
        rotation[v] = order
    return g, (rotation or None)


def format_graph(g: OrientedGraph, rotation: dict[int, list[int]] | None = None) -> str:
    lines = [f"V {g.vertex_count} SPECIAL {g.special_vertex}"]
    lines += [f"{t} {h}" for t, h in g.edges]
    if rotation:
        for v in sorted(rotation):
            lines.append("ROT " + str(v) + ": " + " ".join(map(str, rotation[v])))
    return "\n".join(lines) + "\n"
