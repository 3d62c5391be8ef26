"""Cofactor DP for the graph permanent of one graph at its admissible primes.

At the prime p = n*calV + 1 the graph permanent is the permanent of the
block matrix ``1_{n*calV x n*calE} (x) M``, where M is the signed
incidence matrix without the special vertex's row: each other vertex
gives V = n*calV copies of its row, each edge E = n*calE copies of its
column.  Expanding the V rows of a vertex v over its edges, of remaining
caps cap_1..cap_d and entries m_1..m_d (+1 at the head, -1 at the tail),
gives ``sum over k_1+..+k_d = V of V! * prod C(cap_j, k_j) m_j^{k_j}``,
after which v is gone and every cap_j drops by k_j.  Expanding every
vertex in turn gives the permanent, whatever the order of the vertices;
the order only sets the cost.

The engine is a forward transfer DP over one fixed vertex order.  The
expansion factors edge by edge, so an edge's remainder is settled as
soon as its first live end is expanded: the other end must take all of
it, with the factor ``m^r`` of its entry there.  That step folds the
remainder ``r`` into the *load* of the other end and ``m^r`` into the
move's coefficient; an edge with one live end (an edge into the special
vertex) is a fixed part of its vertex's load.  So the future of a state
depends only on the load of each pending vertex, and states that split
one load differently over edges merge.  A DP state is one int in mixed
radix, one digit (slot) per loaded vertex, mapped to its coefficient mod
p; a slot is freed when its vertex is expanded and reused after that,
and only two layers of states are alive at a time.  Each step builds one
table of the ways to spread weight over the edges its vertex enters,
indexed by *need*, the weight those edges take, as ``(increment,
coefficient)`` pairs with ``V!`` and the one-end edges folded in.  It
holds only the needs the step can meet: a vertex whose load is at most
L takes needs ``room - L .. room``, where ``room`` is V less its one-end
edges, and an unloaded vertex takes ``room`` alone.  A state of load d
takes the entry at ``room - d``, whose increments also clear d from its
slot, so it pays one read of its load digit and one add and multiply per
move.  An edge with no live end (a loop, whose column nets to zero) is a
column no row can cover, so the permanent vanishes at every prime.

The layers are bounded before any state exists: after a step the w
load slots in use sum to a fixed T, so the layer holds at most
``C(T + w - 1, w - 1)`` states.  A plan whose largest bound passes
``DP_STATE_CAP`` is refused with ValueError before its DP runs, and
``gperm_cofactor_primes`` runs the largest prime, where the bound is
largest, first.

The order is planned from the incidence structure alone, which is the
same at every admissible prime, so ``gperm_cofactor_primes`` plans a
sequence once, special vertex, order and DP steps alike, and each prime
then only sets V and E, checks the cap and runs the DP; nothing is
cached from one call to the next.  One greedy walk starts at the vertex
that widens the frontier least and keeps adding such a vertex (ties to
the lower vertex index).  Each step of an order is costed by the
frontier width entering its vertex plus the vertex's free edges (those
still live after it): the DP pairs every incoming state with every way
to spread the vertex's weight, and that number is exponential in this
sum.  An order's cost key is its step costs sorted descending, then
``(max width, widths sorted descending)``, where a width is the frontier
size after a vertex.  The walk is polynomial, so large graphs plan too.

The residue does not depend on which vertex is special, so
``cheapest_special`` ranks the candidate special vertices by the same
cost key, with one greedy walk each, and an ``auto`` sequence of
``sequences.egp`` runs at the cheapest one, on the winner's walk.  Set
the ``egperm`` logger to DEBUG to see the special vertex, cost key and
planning seconds of every sequence, and the order, the most slots a
state holds, the DP states, the move sets built (one table per step) and
the seconds of every (graph, prime).
"""

from __future__ import annotations

import heapq
import logging
import math
import time
from dataclasses import dataclass
from typing import Iterable

from .graphs import OrientedGraph, block_spec
from .numtheory import admissible_n, largest_first, mod_tables

__all__ = ["gperm_cofactor_primes", "gperm_cofactor", "cheapest_special"]

_log = logging.getLogger("egperm")

# most states the bound of one DP layer may reach (``_state_bounds``).  A
# DP holds 200-310 bytes per state of its largest layer (that layer, the
# next one and its unreduced sums), and the bound is 1.6-13 times that
# layer on P_8_41 at p = 61..101, c13_1_5 at 41 and c15_1_4 at 23, so a DP
# at the cap peaks below about 600 MB.  Table A at bound 41 reaches 12,341.
DP_STATE_CAP = 2_000_000


@dataclass(frozen=True)
class _Step:
    """Expansion of one vertex: its load slot and where its edges' remainders go."""

    load: int                        # its load slot, -1 when nothing folds onto it
    folded: int                      # how many earlier edges' remainders land on it
    forced: tuple[int, ...]          # its entries on the edges with no other live end
    entries: tuple[int, ...]         # its entries on the edges whose other live end comes later
    targets: tuple[int, ...]         # load slot of each one's other end
    folds: tuple[int, ...]           # each one's matrix entry at its other end


@dataclass(frozen=True)
class _Plan:
    order: tuple[int, ...]
    widths: tuple[int, ...]          # slots in use after each vertex
    steps: tuple[_Step, ...]


def _structure(g: OrientedGraph) -> tuple[dict[int, dict[int, int]], dict[int, list[int]]]:
    """Incidences ``{edge: {vertex: entry}}`` of g, at every vertex, and the edges at each vertex.

    An edge's entry is +1 at its head and -1 at its tail.  A loop nets to
    a zero column, as in ``full_incidence``, so it has no ends.
    """
    ends = {e: {} if t == h else {h: 1, t: -1} for e, (t, h) in enumerate(g.edges)}
    edges_at: dict[int, list[int]] = {v: [] for v in range(g.vertex_count)}
    for e, at in ends.items():
        for v in at:
            edges_at[v].append(e)
    return ends, edges_at


def _neighbours(vertices: Iterable[int], edges_at: dict[int, list[int]],
                ends: dict[int, dict[int, int]]) -> dict[int, list[int]]:
    """For each vertex, the other end of each of its live edges with two live ends."""
    return {v: [u for e in edges_at[v] for u in ends[e] if u != v] for v in vertices}


def _greedy(vertices: tuple[int, ...], others: dict[int, list[int]]) -> tuple[list[int], tuple]:
    """Order that always adds the vertex widening the frontier least, and its cost key.

    ``others`` is ``_neighbours`` of the vertices.  Ties go to the lower
    vertex index.  The key is the step costs (width entering a vertex
    plus its free edges) sorted descending, then the largest width, then
    the widths sorted descending.
    """
    # an edge with two live ends widens the frontier by one at the first
    # end expanded and narrows it by one at the second, so expanding v
    # takes 2 from the growth of each end still to come; a vertex not
    # (or no longer) to come has growth inf, and min takes the first of
    # equal growths
    delta = [math.inf] * (max(vertices, default=-1) + 1)
    for v in vertices:
        delta[v] = len(others[v])
    growth, every = delta.__getitem__, range(len(delta))
    order, costs, widths, width = [], [], [], 0
    for _ in vertices:
        v = min(every, key=growth)
        delta[v] = math.inf
        order.append(v)
        cost = width
        for u in others[v]:
            if delta[u] < math.inf:
                width += 1
                cost += 1
                delta[u] -= 2
            else:
                width -= 1
        costs.append(cost)
        widths.append(width)
    return order, (tuple(sorted(costs, reverse=True)), max(widths, default=0),
                   tuple(sorted(widths, reverse=True)))


def _steps(order: list[int], edges_at: dict[int, list[int]],
           ends: dict[int, dict[int, int]]) -> _Plan:
    """The DP steps along ``order``, whose live edges all have a live end.

    A slot holds the load of a vertex from the first step that folds a
    remainder onto it to its own step; each step frees its own slot
    before it takes new ones.
    """
    position = {v: i for i, v in enumerate(order)}
    at = {e: sorted(ends[e], key=position.__getitem__) for e in ends}
    folded: dict[int, list[int]] = {v: [] for v in order}   # edges whose remainders land on v
    for e, a in at.items():
        if len(a) == 2:
            folded[a[1]].append(e)
    opens: dict[int, list[int]] = {v: [] for v in order}   # loads whose slots open at v
    for u in order:
        if folded[u]:
            opens[min((at[e][0] for e in folded[u]), key=position.__getitem__)].append(u)
    load_slot: dict[int, int] = {}
    free: list[int] = []
    steps, widths = [], []
    for v in order:
        load = load_slot.pop(v, -1)
        if load >= 0:
            heapq.heappush(free, load)
        for u in opens[v]:
            # with no slot free, the slots in use are all there are
            load_slot[u] = heapq.heappop(free) if free else len(load_slot)
        here = edges_at[v]
        forced = [e for e in here if len(at[e]) == 1]
        entering = [e for e in here if at[e][0] == v and len(at[e]) == 2]
        steps.append(_Step(
            load=load,
            folded=len(folded[v]),
            forced=tuple(ends[e][v] for e in forced),
            entries=tuple(ends[e][v] for e in entering),
            targets=tuple(load_slot[at[e][1]] for e in entering),
            folds=tuple(ends[e][at[e][1]] for e in entering),
        ))
        widths.append(len(load_slot))
    return _Plan(tuple(order), tuple(widths), tuple(steps))


def _spread(p: int, lo: int, hi: int, caps: tuple[int, ...], rows: list[list[int]],
            places: list[int], unit: int, start: tuple[int, int]
            ) -> dict[int, dict[int, int]]:
    """Each way to spread a need in ``lo..hi`` over edges: by need, increment -> coefficient.

    Every way starts from ``start``, an (increment, coefficient) pair.
    Edge j takes ``k_j`` of its ``caps[j]`` with the coefficient
    ``rows[j][k_j]``; that adds ``k_j * unit`` to the increment, and the
    remainder adds ``(caps[j] - k_j) * places[j]``.  Ways of one need
    that add the same increment (edges whose remainders fold onto one
    vertex) merge.
    """
    room = sum(caps)
    partial = {0: {start[0]: start[1]}}   # weight taken so far -> increment -> coefficient
    for cap, row, place in zip(caps, rows, places):
        room -= cap
        grown: dict[int, dict[int, int]] = {}
        for taken, ways in partial.items():
            for k in range(max(0, lo - room - taken), min(cap, hi - taken) + 1):
                r = row[k]
                if not r:
                    continue
                shift = (cap - k) * place + k * unit
                into = grown.get(taken + k)
                if into is None:
                    into = grown[taken + k] = {}
                for inc, c in ways.items():
                    into[inc + shift] = into.get(inc + shift, 0) + c * r
        partial = grown
    # reduced once at the end: until then a coefficient is a short sum of
    # products of one residue per edge
    for ways in partial.values():
        for inc, c in ways.items():
            ways[inc] = c % p
    return partial


def _loads(plan: _Plan, vertex: int, edge: int) -> list[int]:
    """The sum of the load slots after each step, whatever the state, where
    vertices weigh ``vertex`` and edges ``edge``: the edge weight entered so
    far less the vertex weight expanded."""
    loads, total = [], 0
    for step in plan.steps:
        total += edge * (len(step.forced) + len(step.entries)) - vertex
        loads.append(total)
    return loads


def _state_bounds(loads: list[int], widths: tuple[int, ...]) -> list[int]:
    """The most states each layer can hold: w slots that sum to T take at
    most ``C(T + w - 1, w - 1)`` values, and a negative T none."""
    return [math.comb(t + w - 1, w - 1) if w and t >= 0 else int(t == 0)
            for t, w in zip(loads, widths)]


def _transfer(plan: _Plan, loads: list[int], vertex: int, edge: int, p: int
              ) -> tuple[int, int]:
    """Residue mod p along the plan, where vertices weigh ``vertex`` and
    edges ``edge``, and the DP states visited.

    A state is one int: slot s holds digit s in radix ``base``.  The
    slots after a step sum to ``loads`` of that step, whatever the state,
    so a base one above the largest such sum never carries.  Each step
    builds one table of the ways to spread weight over its entering
    edges, by need; a state of load d takes the entry at ``room - d``.
    """
    tb = mod_tables(p)
    base = max([0, *loads]) + 1
    place = [base ** s for s in range(max(plan.widths, default=0) + 1)]
    row_cache: dict[tuple[int, int], list[int]] = {}

    def row(m: int, fold: int) -> list[int]:
        # C(edge, k) m^k fold^(edge - k) for k = 0..edge
        if (m, fold) not in row_cache:
            row_cache[m, fold] = [tb.binom(edge, k) * pow(m, k, p) * pow(fold, edge - k, p) % p
                                  for k in range(edge + 1)]
        return row_cache[m, fold]

    layer: dict[int, int] = {0: 1}
    visited = 0
    for step in plan.steps:
        factor = tb.fact[vertex]
        for m in step.forced:
            factor = factor * pow(m, edge, p) % p
        room = vertex - edge * len(step.forced)
        entering = (edge,) * len(step.entries)
        load = edge * step.folded   # the most its load digit holds
        rows = [row(*a) for a in zip(step.entries, step.folds)]
        # the load digit; a place above every slot reads 0 on an unloaded
        # vertex, whose increments then clear nothing
        div = place[step.load]
        drop = div if step.load >= 0 else 0
        # a state of load d takes the entry at need room - d, whose
        # increments also clear the digit: each unit of need adds ``drop``
        table = _spread(p, room - load, min(room, sum(entering)), entering, rows,
                        [place[s] for s in step.targets], drop, (-room * drop, factor))
        by_load = [table.get(room - d, {}).items() for d in range(load + 1)]
        nxt: dict[int, int] = {}
        get = nxt.get
        for code, coeff in layer.items():
            for inc, c in by_load[code // div % base]:
                key = code + inc
                nxt[key] = get(key, 0) + coeff * c
        layer = {key: c for key, coeff in nxt.items() if (c := coeff % p)}
        visited += len(layer)
        if not layer:
            return 0, visited
    return layer.get(0, 0), visited


def _residue(g: OrientedGraph, special: int, plan: _Plan, vertex: int, edge: int, p: int,
             debug: bool) -> int:
    """Residue mod p of g at the special vertex ``special`` along its plan,
    where vertices weigh ``vertex`` and edges ``edge``; refused
    (ValueError) when a layer bound passes ``DP_STATE_CAP``."""
    if max(vertex, edge) >= p:
        return 0  # w identical rows or columns: w! divides the permanent
    start = time.perf_counter() if debug else 0.0
    loads = _loads(plan, vertex, edge)
    bounds = _state_bounds(loads, plan.widths)
    largest = max(bounds, default=1)
    if largest > DP_STATE_CAP:
        raise ValueError(f"a cofactor DP layer at p = {p} may hold "
                         f"{largest} states, over the cap DP_STATE_CAP = {DP_STATE_CAP}")
    residue, visited = _transfer(plan, loads, vertex, edge, p)
    if debug:
        _log.debug("cofactor: %d vertices, special %d, %d edges, p=%d: order %s, "
                   "max width %d, %d states (bound %d), %d move sets, %.4f s",
                   g.vertex_count, special, g.edge_count, p, list(plan.order),
                   max(plan.widths, default=0), visited, sum(bounds),
                   len(plan.steps), time.perf_counter() - start)
    return residue


def _cheapest(g: OrientedGraph, candidates: Iterable[int]
              ) -> tuple[int, tuple, list[int], dict[int, list[int]], dict[int, dict[int, int]]]:
    """The candidate special vertex whose greedy order has the least cost
    key, ties to the lower index: the vertex, the key, the order and the
    live structure of g there.

    The structure is built once; a candidate only drops itself from its
    neighbours, and is walked once.
    """
    everyone = tuple(range(g.vertex_count))
    ends, edges_at = _structure(g)
    others = _neighbours(everyone, edges_at, ends)
    best = None
    for s in candidates:
        rest = everyone[:s] + everyone[s + 1:]
        order, key = _greedy(rest, {v: [u for u in others[v] if u != s] for v in rest})
        if best is None or key < best[1]:
            best = (s, key, order)
    s, key, order = best
    return s, key, order, edges_at, ends | {
        e: {v: m for v, m in ends[e].items() if v != s} for e in edges_at[s]}


def gperm_cofactor_primes(g: OrientedGraph, primes: Iterable[int], choose_special: bool = True
                          ) -> tuple[int, tuple, tuple[int, ...], float | None]:
    """Graph permanent of g at each admissible prime, from one plan.

    The plan depends on the incidence structure alone, so it is made
    once: with ``choose_special`` at the special vertex ``cheapest_special``
    picks (the residue does not depend on it), otherwise at g's own.  A
    loop is a column no row covers, so it gives 0 at every prime.  Each
    prime, the largest first, then only sets the weights n*calV and
    n*calE, checks the plan's layer bounds against ``DP_STATE_CAP``
    (ValueError) and runs the DP.  Returns the special vertex, the cost
    key of its order, the residues in the order of ``primes``, and the
    seconds spent planning, taken only when the ``egperm`` logger is at
    DEBUG (None otherwise).
    """
    debug = _log.isEnabledFor(logging.DEBUG)
    start = time.perf_counter() if debug else 0.0
    primes = tuple(primes)
    special, cost, order, edges_at, ends = _cheapest(
        g, range(g.vertex_count) if choose_special else (g.special_vertex,))
    plan = _steps(order, edges_at, ends) if all(ends.values()) else None
    planned = time.perf_counter() - start if debug else None
    spec = block_spec(g)

    def residue(p: int) -> int:
        n = admissible_n(spec.calV, p)
        return 0 if plan is None else _residue(
            g, special, plan, n * spec.calV, n * spec.calE, p, debug)

    residues = largest_first(residue, primes)
    return special, cost, tuple(residues[p] for p in primes), planned


def gperm_cofactor(g: OrientedGraph, p: int) -> int:
    """Graph permanent of g at p by the cofactor DP, at g's own special vertex."""
    return gperm_cofactor_primes(g, (p,), choose_special=False)[2][0]


def cheapest_special(g: OrientedGraph) -> tuple[int, tuple]:
    """Special vertex of g with the cheapest planned order, and that order's cost key.

    The residue is the same at every special vertex, so this only chooses
    the cost: each candidate gets one greedy walk over the other vertices
    from the vertex that widens the frontier least, and the least cost key
    wins, ties to the lower vertex index.
    """
    return _cheapest(g, range(g.vertex_count))[:2]
