"""Weighted-graph cofactor calculus for block permanents.

The block permanent of an incidence-type matrix is encoded as a weighted
(hyper)graph: vertex weights count row copies, edge weights count column
copies.  Cofactor expansion becomes two local rules:

* vertex rule -- expanding all rows of a vertex v of weight w_v over its
  live incident edges (weights w_1..w_d, matrix entries m_1..m_d) gives
  ``sum over k_1+..+k_d = w_v of w_v! * prod C(w_j,k_j) m_j^{k_j}``,
  after which v is dead and edge weights drop by k_j;
* edge rule -- an edge whose only live endpoint is u (weight x, edge
  weight w, entry m) contributes ``x!/(x-w)! * m^w`` and dies.

Forced moves (edge rule, degree-one vertex rule, zero-weight clean-up)
are applied to exhaustion before branching on a vertex, and intermediate
states are memoized, which keeps the recursion near the size of the
equivalent nested binomial sum.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import OrientedGraph, block_spec
from .numtheory import mod_tables

__all__ = ["WeightedState", "state_from_graph", "cofactor_calculus", "gperm_cofactor"]


@dataclass(frozen=True)
class WeightedState:
    """Weighted hypergraph encoding of ``Perm(matrix)`` for one modulus.

    ``incidences[e]`` lists (vertex, entry) pairs for edge e; hyperedges
    (more than two incidences) are allowed.  A weight of -1 marks a dead
    vertex/edge.  Squareness (sum of live vertex weights == sum of live
    edge weights) is required for a nonzero permanent.
    """

    vertex_weights: tuple[int, ...]
    edge_weights: tuple[int, ...]
    incidences: tuple[tuple[tuple[int, int], ...], ...]
    modulus: int


def state_from_graph(g: OrientedGraph, p: int) -> WeightedState:
    """Initial state for GPerm at prime p: vertices weigh n*calV, edges n*calE."""
    spec = block_spec(g)
    n = spec.admissible_n(p)
    inc = []
    for t, h in g.edges:
        pairs = []
        if t != h:  # a loop nets to a zero column, as in full_incidence
            if h != g.special_vertex:
                pairs.append((h, 1))
            if t != g.special_vertex:
                pairs.append((t, -1))
        inc.append(tuple(pairs))
    vweights = tuple(0 if v == g.special_vertex else n * spec.calV
                     for v in range(g.vertex_count))
    return WeightedState(
        vertex_weights=vweights,
        edge_weights=tuple(n * spec.calE for _ in g.edges),
        incidences=tuple(inc),
        modulus=p,
    )


def _compositions(total: int, caps: list[int]):
    """Yield tuples k with sum(k) == total and 0 <= k_i <= caps[i]."""
    if len(caps) == 1:
        if 0 <= total <= caps[0]:
            yield (total,)
        return
    head = caps[0]
    lo = max(0, total - sum(caps[1:]))
    for k in range(lo, min(head, total) + 1):
        for rest in _compositions(total - k, caps[1:]):
            yield (k,) + rest


class _Engine:
    def __init__(self, state: WeightedState):
        self.p = state.modulus
        self.tb = mod_tables(self.p)
        self.inc = state.incidences
        ne = len(state.incidences)
        nv = len(state.vertex_weights)
        self.vertex_edges = [[] for _ in range(nv)]
        for e in range(ne):
            for v, _ in self.inc[e]:
                self.vertex_edges[v].append(e)
        self.memo: dict[tuple, int] = {}
        # the special vertex arrives with weight 0 and no rows: mark dead
        self.start_v = list(state.vertex_weights)
        self.start_e = list(state.edge_weights)

    def entry(self, e: int, v: int) -> int:
        for u, m in self.inc[e]:
            if u == v:
                return m
        raise KeyError((e, v))

    def run(self) -> int:
        vw = list(self.start_v)
        ew = list(self.start_e)
        # vertices with weight 0 contribute no rows; kill them up front
        for v in range(len(vw)):
            if vw[v] == 0:
                vw[v] = -1
        return self.solve(vw, ew)

    def solve(self, vw: list[int], ew: list[int]) -> int:
        p = self.p
        factor = 1
        changed = True
        while changed:
            changed = False
            # edge rule and dead-edge clean-up
            for e in range(len(ew)):
                if ew[e] < 0:
                    continue
                live = [(v, m) for v, m in self.inc[e] if vw[v] >= 0]
                if len(live) >= 2:
                    continue
                w = ew[e]
                if not live:
                    if w > 0:
                        return 0
                    ew[e] = -1
                    changed = True
                    continue
                (u, m) = live[0]
                if w > vw[u]:
                    return 0
                if w:
                    factor = factor * self.tb.falling(vw[u], w) % p
                    if m < 0 and w % 2:
                        factor = p - factor
                    vw[u] -= w
                ew[e] = -1
                changed = True
            # vertex clean-up and forced degree-one expansions
            for v in range(len(vw)):
                if vw[v] < 0:
                    continue
                live_edges = [e for e in self.vertex_edges[v] if ew[e] >= 0]
                if not live_edges:
                    if vw[v] > 0:
                        return 0
                    vw[v] = -1
                    changed = True
                elif len(live_edges) == 1:
                    e = live_edges[0]
                    k = vw[v]
                    if k > ew[e]:
                        return 0
                    if k:
                        factor = factor * self.tb.fact[k] % p * self.tb.binom(ew[e], k) % p
                        if self.entry(e, v) < 0 and k % 2:
                            factor = p - factor
                        ew[e] -= k
                    vw[v] = -1
                    changed = True
        if factor == 0:
            return 0
        live = [v for v in range(len(vw)) if vw[v] >= 0]
        if not live:
            return factor
        key = (tuple(vw), tuple(ew))
        cached = self.memo.get(key)
        if cached is None:
            cached = self.branch(vw, ew)
            self.memo[key] = cached
        return factor * cached % p

    def branch(self, vw: list[int], ew: list[int]) -> int:
        p = self.p
        # branch on a live vertex of minimal live degree (fewest free parts)
        best, best_edges = None, None
        for v in range(len(vw)):
            if vw[v] < 0:
                continue
            live_edges = [e for e in self.vertex_edges[v] if ew[e] >= 0]
            if best is None or len(live_edges) < len(best_edges):
                best, best_edges = v, live_edges
        v, edges = best, best_edges
        caps = [ew[e] for e in edges]
        entries = [self.entry(e, v) for e in edges]
        wv = vw[v]
        total = 0
        base = self.tb.fact[wv]
        for ks in _compositions(wv, caps):
            coeff = base
            for e, k, cap, m in zip(edges, ks, caps, entries):
                coeff = coeff * self.tb.binom(cap, k) % p
                if m < 0 and k % 2:
                    coeff = p - coeff
            if coeff == 0:
                continue
            vw2 = list(vw)
            ew2 = list(ew)
            vw2[v] = -1
            for e, k in zip(edges, ks):
                ew2[e] -= k
            sub = self.solve(vw2, ew2)
            total = (total + coeff * sub) % p
        return total


def cofactor_calculus(state: WeightedState) -> int:
    """Permanent residue of the matrix encoded by the weighted state."""
    live_v = sum(w for w in state.vertex_weights if w > 0)
    live_e = sum(w for w in state.edge_weights if w > 0)
    if live_v != live_e:
        raise ValueError("state is not square: vertex and edge weights differ")
    return _Engine(state).run()


def gperm_cofactor(g: OrientedGraph, p: int) -> int:
    """Graph permanent at p via the weighted-graph cofactor calculus."""
    return cofactor_calculus(state_from_graph(g, p))
