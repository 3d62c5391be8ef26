"""Weighted-graph cofactor calculus for block permanents.

The block permanent of an incidence-type matrix is encoded as a weighted
(hyper)graph: vertex weights count row copies, edge weights count column
copies.  Expanding all rows of a vertex v of weight W over its incident
edges, of remaining weights cap_1..cap_d and matrix entries m_1..m_d,
gives ``sum over k_1+..+k_d = W of W! * prod C(cap_j, k_j) m_j^{k_j}``,
after which v is gone and every cap_j drops by k_j.  Expanding every
vertex in turn gives the permanent, whatever the order of the vertices;
the order only sets the cost.

The engine is a forward transfer DP over one fixed vertex order.  An edge
is carried in the *frontier* from its first live incidence in the order
to its last, so hyperedges work as well as edges.  A DP state is the
tuple of the remaining weights of the frontier edges, mapped to its
coefficient mod p, and only two layers of states are alive at a time.
At its last live incidence an edge is forced: that vertex takes all of
its remaining weight, and spreads the rest of its own weight over its
other edges.  An edge of positive weight with no live incidence (a loop,
or an edge into the special vertex only) is a column no row can cover,
so the permanent vanishes.  The ways to spread depend only on that rest,
the caps of the free edges and their entries, so each DP keeps one table
of them, built as the states ask for it and shared by all of its steps.
Within a step the caps of a state map to the forced factor
``W! prod m^cap`` and those moves, so a state pays one lookup and one
multiply.

The order is planned from the incidence structure alone, which is the
same at every admissible prime, so it is computed once per graph and
reused at every prime.  One greedy walk starts at the vertex that widens
the frontier least and keeps adding such a vertex (ties to the lower
vertex index).  Each step of an order is costed by the frontier width
entering its vertex plus the vertex's free edges (those still live after
it): the DP pairs every incoming state with every way to spread the
vertex's weight, and that number is exponential in this sum.  An order's
cost key is its step costs sorted descending, then ``(max width, widths
sorted descending)``, where a width is the frontier size after a vertex.
The walk is polynomial, so large graphs plan too.

The residue does not depend on which vertex is special, so
``cheapest_special`` ranks the candidate special vertices by the same
cost key, with one greedy walk each, and ``sequences.egp`` computes every
prime of an ``auto`` sequence at the cheapest one.  Set the ``egperm``
logger to DEBUG to see the chosen special vertex of every sequence, and
the order, its largest width, the DP states, the move sets built and the
seconds of every (graph, prime).
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter
from typing import Callable, Iterable

from .graphs import OrientedGraph, block_spec
from .numtheory import ModTables, mod_tables

__all__ = ["WeightedState", "state_from_graph", "cofactor_calculus", "gperm_cofactor",
           "cheapest_special"]

_log = logging.getLogger("egperm")


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


def _incidences(g: OrientedGraph) -> tuple[tuple[tuple[int, int], ...], ...]:
    """(vertex, entry) pairs of each edge, at every vertex.

    The special vertex weighs 0, so ``_structure`` drops its incidences
    as it drops those of any dead vertex.  A loop nets to a zero column,
    as in ``full_incidence``.
    """
    return tuple(() if t == h else ((h, 1), (t, -1)) for t, h in g.edges)


def state_from_graph(g: OrientedGraph, p: int) -> WeightedState:
    """Initial state for GPerm at prime p: vertices weigh n*calV, edges n*calE."""
    spec = block_spec(g)
    n = spec.admissible_n(p)
    vweights = tuple(0 if v == g.special_vertex else n * spec.calV
                     for v in range(g.vertex_count))
    return WeightedState(
        vertex_weights=vweights,
        edge_weights=tuple(n * spec.calE for _ in g.edges),
        incidences=_incidences(g),
        modulus=p,
    )


def _picker(idx: list[int]) -> Callable[[tuple], tuple]:
    """Function taking the items at positions ``idx`` of a tuple, as a tuple."""
    if not idx:
        return lambda t: ()
    if len(idx) == 1:
        i = idx[0]
        return lambda t: (t[i],)
    return itemgetter(*idx)


@dataclass(frozen=True)
class _Step:
    """Expansion of one vertex: where its caps sit in the incoming state."""

    vertex: int
    entering: tuple[int, ...]        # edges whose first live incidence is here
    caps: Callable[[tuple], tuple]   # forced then free caps of state + entering
    forced: int                      # how many of the caps are forced
    entries: tuple[int, ...]         # matrix entries of those edges at vertex
    keep: Callable[[tuple], tuple]   # frontier caps that pass the vertex


@dataclass(frozen=True)
class _Plan:
    order: tuple[int, ...]
    widths: tuple[int, ...]          # frontier width after each vertex
    steps: tuple[_Step, ...]


def _structure(incidences: tuple[tuple[tuple[int, int], ...], ...],
               vertices: tuple[int, ...], edges: Iterable[int]
               ) -> tuple[dict[int, dict[int, int]], dict[int, list[int]]]:
    """Live incidences ``{edge: {vertex: entry}}`` and the live edges at each vertex."""
    live = set(vertices)
    ends = {e: {v: m for v, m in incidences[e] if v in live} for e in edges}
    edges_at: dict[int, list[int]] = {v: [] for v in vertices}
    for e, at in ends.items():
        for v in at:
            edges_at[v].append(e)
    return ends, edges_at


def _greedy(vertices: tuple[int, ...], edges_at: dict[int, list[int]],
            ends: dict[int, dict[int, int]]) -> tuple[list[int], tuple]:
    """Order that always adds the vertex widening the frontier least, and its cost key.

    Ties go to the lower vertex index.  The key is the step costs (width
    entering a vertex plus its free edges) sorted descending, then the
    largest width, then the widths sorted descending.
    """
    left = {e: len(at) for e, at in ends.items()}   # incidences not yet expanded

    def growth(e: int) -> int:
        # frontier change if one more incidence of e is expanded
        if len(ends[e]) == 1:
            return 0
        return 1 if left[e] == len(ends[e]) else -1 if left[e] == 1 else 0

    delta = {v: sum(growth(e) for e in edges_at[v]) for v in vertices}
    order, costs, widths, width = [], [], [], 0
    while delta:
        v = min(delta, key=lambda u: (delta[u], u))
        del delta[v]
        order.append(v)
        cost = width
        for e in edges_at[v]:
            others = [u for u in ends[e] if u in delta]
            for u in others:
                delta[u] -= growth(e)
            width += growth(e)
            left[e] -= 1
            cost += left[e] > 0
            for u in others:
                delta[u] += growth(e)
        costs.append(cost)
        widths.append(width)
    return order, (tuple(sorted(costs, reverse=True)), max(widths, default=0),
                   tuple(sorted(widths, reverse=True)))


@lru_cache(maxsize=16)
def _plan(incidences: tuple[tuple[tuple[int, int], ...], ...],
          vertices: tuple[int, ...], edges: tuple[int, ...]) -> _Plan | None:
    """Vertex order and DP steps for the live ``vertices`` and ``edges``.

    The order is the one greedy walk of ``_greedy``, from the vertex that
    widens the frontier least.  None when a live edge has no live
    incidence: the permanent is zero.
    """
    ends, edges_at = _structure(incidences, vertices, edges)
    if not all(ends.values()):
        return None
    order, _ = _greedy(vertices, edges_at, ends)
    position = {v: i for i, v in enumerate(order)}
    last = {e: max(position[v] for v in at) for e, at in ends.items()}
    frontier: list[int] = []
    steps, widths = [], []
    for i, v in enumerate(order):
        here = edges_at[v]
        entering = tuple(e for e in here if e not in frontier)
        forced = [e for e in here if last[e] == i]
        free = [e for e in here if last[e] > i]
        ext = frontier + list(entering)
        keep = [j for j, e in enumerate(frontier) if e not in here]
        steps.append(_Step(
            vertex=v,
            entering=entering,
            caps=_picker([ext.index(e) for e in forced + free]),
            forced=len(forced),
            entries=tuple(ends[e][v] for e in forced + free),
            keep=_picker(keep),
        ))
        frontier = [frontier[j] for j in keep] + free
        widths.append(len(frontier))
    return _Plan(tuple(order), tuple(widths), tuple(steps))


def _spread(tb: ModTables, need: int, free_caps: tuple[int, ...],
            free_entries: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], int], ...]:
    """(remaining free caps, coefficient) for each way to spread ``need`` over the free edges.

    The coefficient is ``prod C(cap_j, k_j) m_j^{k_j}``; the caller
    multiplies in ``W!`` and the forced edges.
    """
    p = tb.p
    room = sum(free_caps)
    if need < 0 or need > room:
        return ()
    partial = [((), need, 1)]
    for cap, m in zip(free_caps, free_entries):
        room -= cap
        grown = []
        for rem, left, c in partial:
            for k in range(max(0, left - room), min(cap, left) + 1):
                ck = c * tb.binom(cap, k) % p * pow(m, k, p) % p
                if ck:
                    grown.append((rem + (cap - k,), left - k, ck))
        partial = grown
    return tuple((rem, c) for rem, _, c in partial)


def _transfer(state: WeightedState, plan: _Plan) -> tuple[int, int, int]:
    """Residue of the state along the plan, DP states visited and move sets built.

    The move table ``spreads`` serves every step and lives for this call only.
    """
    p = state.modulus
    tb = mod_tables(p)
    spreads: dict[tuple, tuple[tuple[tuple[int, ...], int], ...]] = {}
    layer: dict[tuple[int, ...], int] = {(): 1}
    visited = 0
    for step in plan.steps:
        w = state.vertex_weights[step.vertex]
        entering = tuple(state.edge_weights[e] for e in step.entering)
        caps_of, keep_of, forced = step.caps, step.keep, step.forced
        forced_entries, free_entries = step.entries[:forced], step.entries[forced:]
        by_caps: dict[tuple[int, ...], tuple] = {}
        nxt: dict[tuple[int, ...], int] = {}
        for frontier, coeff in layer.items():
            caps = caps_of(frontier + entering)
            hit = by_caps.get(caps)
            if hit is None:
                spread = (w - sum(caps[:forced]), caps[forced:], free_entries)
                moves = spreads.get(spread)
                if moves is None:
                    moves = spreads[spread] = _spread(tb, *spread)
                factor = tb.fact[w]
                for cap, m in zip(caps, forced_entries):
                    factor = factor * pow(m, cap, p) % p
                hit = by_caps[caps] = (factor, moves)
            factor, moves = hit
            if moves:
                kept = keep_of(frontier)
                coeff *= factor
                for rem, c in moves:
                    key = kept + rem
                    nxt[key] = nxt.get(key, 0) + coeff * c
        layer = nxt
        zero = []
        for key, coeff in layer.items():
            coeff %= p
            if coeff:
                layer[key] = coeff
            else:
                zero.append(key)
        for key in zero:
            del layer[key]
        visited += len(layer)
        if not layer:
            return 0, visited, len(spreads)
    return layer.get((), 0), visited, len(spreads)


def cofactor_calculus(state: WeightedState) -> int:
    """Permanent residue of the matrix encoded by the weighted state."""
    live_v = sum(w for w in state.vertex_weights if w > 0)
    live_e = sum(w for w in state.edge_weights if w > 0)
    if live_v != live_e:
        raise ValueError("state is not square: vertex and edge weights differ")
    if max(state.vertex_weights + state.edge_weights, default=0) >= state.modulus:
        return 0  # w identical rows or columns: w! divides the permanent
    debug = _log.isEnabledFor(logging.DEBUG)
    start = time.perf_counter() if debug else 0.0
    plan = _plan(state.incidences,
                 tuple(v for v, w in enumerate(state.vertex_weights) if w > 0),
                 tuple(e for e, w in enumerate(state.edge_weights) if w > 0))
    if plan is None:
        return 0
    residue, visited, move_sets = _transfer(state, plan)
    if debug:
        dead = [v for v, w in enumerate(state.vertex_weights) if w <= 0]
        _log.debug("cofactor: %d vertices, special %s, %d edges, p=%d: order %s, "
                   "max width %d, %d states, %d move sets, %.4f s",
                   len(state.vertex_weights),
                   ",".join(map(str, dead)) or "none",
                   len(state.edge_weights), state.modulus, list(plan.order),
                   max(plan.widths, default=0), visited, move_sets,
                   time.perf_counter() - start)
    return residue


def gperm_cofactor(g: OrientedGraph, p: int) -> int:
    """Graph permanent at p via the weighted-graph cofactor calculus."""
    return cofactor_calculus(state_from_graph(g, p))


def cheapest_special(g: OrientedGraph) -> tuple[int, tuple]:
    """Special vertex of g with the cheapest planned order, and that order's cost key.

    The residue is the same at every special vertex, so this only chooses
    the cost: each candidate gets one greedy walk over the other vertices
    from the vertex that widens the frontier least, and the least cost key
    wins, ties to the lower vertex index.
    """
    best = None
    incidences = _incidences(g)
    for s in range(g.vertex_count):
        vertices = tuple(v for v in range(g.vertex_count) if v != s)
        ends, edges_at = _structure(incidences, vertices, range(g.edge_count))
        _, key = _greedy(vertices, edges_at, ends)
        if best is None or key < best[1]:
            best = (s, key)
    return best
