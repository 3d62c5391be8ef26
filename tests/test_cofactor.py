import logging
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from egperm.catalog import get_entry
import egperm.cofactor as cofactor
from egperm.cofactor import (
    _cheapest, _greedy, _loads, _state_bounds, _steps, _transfer, cheapest_special,
    gperm_cofactor, gperm_cofactor_primes,
)
from egperm.graphs import (
    banana, block_spec, build_graph, circulant, cycle, decomplete, reduced_incidence, wheel,
    zigzag,
)
from egperm.numtheory import admissible_n, admissible_primes
from egperm.permanent import DimensionCapError, gperm_direct, gperm_reduced
from egperm.sequences import egp
from egperm.transforms import two_vertex_split
from oracles import greedy_reference, perm_leibniz


def _agree(g, bound=13):
    primes = admissible_primes(block_spec(g).calV, bound)
    for p in primes:
        d = gperm_reduced(g, p)
        assert gperm_cofactor(g, p) == d
        try:
            assert gperm_direct(g, p) == d
        except DimensionCapError:
            pass  # direct lattice too large at this prime; two checks remain


def test_agreement_phi4():
    for g in (banana(2), zigzag(4), wheel(4), wheel(5)):
        _agree(g)


def test_agreement_other_ratios():
    # triangle (calV=3, calE=2) and 3-banana (calV=3, calE=1)
    _agree(cycle(3))
    _agree(banana(3))


def test_agreement_k5_decompletion():
    g = decomplete(circulant(5, 1, 2), 0)
    _agree(g)


def test_agreement_multigraph():
    # doubled triangle: calV = 3, calE = 1
    g = build_graph([(0, 1), (0, 1), (1, 2), (1, 2), (0, 2), (0, 2)], 3, 0)
    _agree(g, bound=19)


def test_wheels_at_every_special_vertex():
    # the hub's load gathers remainders from every spoke, so the radix of
    # the state must hold all of them without a carry
    for k in range(4, 8):
        g = wheel(k)
        for s in range(g.vertex_count):
            h = g.with_special(s)
            for p in admissible_primes(block_spec(h).calV, 17):
                assert gperm_cofactor(h, p) == gperm_reduced(h, p), (k, s, p)


def test_agreement_loops_every_special_vertex():
    # a loop nets to a zero column of the incidence matrix, so every
    # algorithm must see a vanishing permanent wherever the loop sits
    graphs = (
        build_graph([(0, 1), (1, 2), (0, 2), (1, 1)], 3, 0),
        build_graph([(0, 1), (0, 1), (0, 0)], 2, 0),
        build_graph([(0, 1), (0, 1), (1, 2), (2, 0), (2, 2), (1, 3), (3, 2)], 4, 0),
    )
    for g in graphs:
        for s in range(g.vertex_count):
            _agree(g.with_special(s))
    triangle_loop = build_graph([(0, 1), (1, 2), (0, 2), (1, 1)], 3, 0)
    residues = [gperm_cofactor(triangle_loop, p) for p in (3, 5, 7, 11, 13)]
    assert residues == [0, 0, 0, 0, 0]


def test_auto_on_loop_graph():
    # the default path sees the loop's zero column too
    g = build_graph(wheel(4).edges + ((1, 1),), 5, 4)
    seq = egp(g, 41, algorithm="auto")
    assert seq.primes() == [19, 37]
    assert seq.residues() == [0, 0]
    assert seq.residues() == egp(g, 41, algorithm="reduced").residues()


@st.composite
def multigraphs(draw):
    # parallel edges and disconnected graphs come up, a loop in a quarter of
    # the draws; half the draws start from a spanning tree, so that many
    # residues do not vanish
    nv = draw(st.integers(2, 6))
    vertex = st.integers(0, nv - 1)
    edges = []
    if draw(st.booleans()):
        edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, nv)]
    edges += draw(st.lists(st.tuples(vertex, vertex).filter(lambda e: e[0] != e[1]),
                           min_size=1, max_size=5))
    if draw(st.integers(0, 3)) == 0:
        edges.append((draw(vertex),) * 2)
    return build_graph(edges, nv, 0)


@settings(max_examples=150, deadline=None)
@given(multigraphs())
def test_agreement_random_multigraphs(g):
    # reduced refuses a disconnected graph; egp reports zeros for one
    for s in range(g.vertex_count):
        h = g.with_special(s)
        for p in admissible_primes(block_spec(h).calV, 13):
            want = gperm_reduced(h, p) if h.is_connected() else 0
            assert gperm_cofactor(h, p) == want, (h, p)


def test_weight_beyond_modulus_vanishes():
    # one edge on three vertices: calE = 2, so at p = 3 its 4 copies exceed
    # p - 1, and 4! divides the permanent
    g = build_graph([(1, 2)], 3, 0)
    spec = block_spec(g)
    assert admissible_n(spec.calV, 3) * spec.calE == 4
    assert [gperm_cofactor(g, p) for p in (2, 3, 5, 7)] == [0, 0, 0, 0]


@settings(max_examples=150, deadline=None)
@given(multigraphs())
def test_block_permanent_against_leibniz(g):
    # the permanent of 1_{n calV x n calE} (x) M by its definition sum, at
    # every special vertex and every prime whose block has at most 8 rows;
    # a disconnected graph or a loop gives 0 there too
    for s in range(g.vertex_count):
        h = g.with_special(s)
        spec = block_spec(h)
        m = reduced_incidence(h)
        for p in admissible_primes(spec.calV, 8 // spec.L * spec.calV + 1):
            n = admissible_n(spec.calV, p)
            block = np.kron(np.ones((n * spec.calV, n * spec.calE), dtype=np.int64), m)
            assert gperm_cofactor(h, p) == perm_leibniz(block) % p, (h, p)


@st.composite
def cut_sides(draw):
    # n vertices joined by a random tree and 2(n-1)-1 edges in all, none of
    # them joining the pair (n-2, n-1) that is glued into the cut
    n = draw(st.integers(3, 5))
    tree = [(draw(st.integers(0, v - 1 if v < n - 1 else n - 3)), v) for v in range(1, n)]
    tree = [e if draw(st.booleans()) else e[::-1] for e in tree]
    other = [(t, h) for t in range(n) for h in range(n)
             if t != h and {t, h} != {n - 2, n - 1}]
    return n, tree + draw(st.lists(st.sampled_from(other), min_size=n - 2, max_size=n - 2))


@settings(max_examples=40, deadline=None)
@given(cut_sides(), cut_sides())
def test_two_vertex_cut_product(left, right):
    # glue both pairs to the vertices (0, 1) of G: GPerm(G) = -GPerm(G1) GPerm(G2)
    edges, count = [], 2
    for n, side in (left, right):
        at = {n - 2: 0, n - 1: 1}
        for v in range(n - 2):
            at[v] = count + v
        count += n - 2
        edges += [(at[t], at[h]) for t, h in side]
    g = build_graph(edges, count, 1)
    g1, g2 = two_vertex_split(g, (0, 1))
    whole = egp(g, 13, "reduced")
    assert whole.primes() == [3, 5, 7, 11, 13]
    for w, a, b in zip(whole.values, egp(g1, 13).values, egp(g2, 13).values):
        assert w.residue == (-a.residue * b.residue) % w.prime, (g, w.prime)


def test_plan_logged_at_debug(caplog):
    g = zigzag(5)
    with caplog.at_level(logging.INFO, logger="egperm"):
        gperm_cofactor(g, 7)
    assert not caplog.records
    with caplog.at_level(logging.DEBUG, logger="egperm"):
        gperm_cofactor(g, 7)
    (record,) = caplog.records
    text = record.getMessage()
    assert "p=7" in text and "order" in text and "max width" in text
    assert "states" in text and "special 4" in text
    assert int(text.split(" move sets")[0].rsplit(" ", 1)[1]) > 0


def test_states_merge_by_vertex_load(caplog):
    # states that split one vertex load differently over its edges merge:
    # carrying every edge cap, the DP visited 2,554,432 states here
    g = get_entry("P_8_40").decompletion()
    with caplog.at_level(logging.DEBUG, logger="egperm"):
        gperm_cofactor(g, 41)
    (record,) = caplog.records
    states = int(record.getMessage().split(" states")[0].rsplit(" ", 1)[1])
    assert states <= 2_554_432 // 10


def test_special_choice_logged_once_per_sequence(caplog):
    g = wheel(5, special=0)
    with caplog.at_level(logging.DEBUG, logger="egperm"):
        seq = egp(g, 41, graph_id="W5")
    lines = [r.getMessage() for r in caplog.records]
    chosen = [t for t in lines if t.startswith("egp W5: special vertex")]
    assert len(chosen) == 1 and "cost key" in chosen[0]
    # the hub is the cheapest special vertex: the rim left is a cycle
    assert "special vertex 5 (given 0)" in chosen[0]
    per_prime = [t for t in lines if t.startswith("cofactor:")]
    assert len(per_prime) == len(seq.values)
    assert all("special 5," in t for t in per_prime)


def test_cheapest_special_small_graphs():
    # one vertex, loops and parallel edges plan without a walk to fail
    assert cheapest_special(build_graph([], 1, 0))[0] == 0
    assert cheapest_special(build_graph([(0, 0)], 1, 0))[0] == 0
    assert cheapest_special(build_graph([(0, 1), (0, 1), (1, 1)], 2, 1))[0] == 0
    # a triangle with a pendant edge: only its degree-3 vertex as special
    # leaves no cycle to carry through the frontier
    g = build_graph([(0, 1), (1, 2), (2, 3), (3, 1)], 4, 2)
    assert cheapest_special(g) == (1, ((1, 1, 0), 1, (1, 0, 0)))
    s, (costs, max_width, widths) = cheapest_special(wheel(6, special=2))
    assert s == 6 and max_width == 2 and costs[0] == 3


@settings(max_examples=150, deadline=None)
@given(multigraphs())
def test_greedy_matches_reference_walk_on_multigraphs(g):
    # the walk that updates neighbours only when an edge's growth changes
    # keeps the order and cost key of the walk that recounts them all,
    # edges into the special vertex (one live end) and loops (none) included
    for s in range(g.vertex_count):
        _, key, order, edges_at, ends = _cheapest(g, (s,))
        rest = tuple(v for v in range(g.vertex_count) if v != s)
        assert (order, key) == greedy_reference(rest, edges_at, ends)


@settings(max_examples=100, deadline=None)
@given(multigraphs())
def test_auto_matches_cofactor_at_every_special_vertex(g):
    # auto picks its own special vertex; the raw residue may not change
    assume(g.is_connected() and admissible_primes(block_spec(g).calV, 13))
    want = egp(g, 13).residues()
    for s in range(g.vertex_count):
        assert egp(g.with_special(s), 13, algorithm="cofactor").residues() == want


@st.composite
def disconnected_multigraphs(draw):
    # two vertex groups with no edge between them, relabelled at random, so
    # no draw is thrown away; as in multigraphs(), edges join two vertices
    # and a loop comes up in a quarter of the draws
    nv = draw(st.integers(3, 6))
    cut = draw(st.integers(1, nv - 1))
    groups = [g for g in (range(cut), range(cut, nv)) if len(g) > 1]
    label = draw(st.permutations(range(nv)))
    edges = []
    for _ in range(draw(st.integers(1, 5))):
        group = draw(st.sampled_from(groups))
        t, h = draw(st.lists(st.sampled_from(group), min_size=2, max_size=2, unique=True))
        edges.append((label[t], label[h]))
    if draw(st.integers(0, 3)) == 0:
        edges.append((draw(st.integers(0, nv - 1)),) * 2)
    return build_graph(edges, nv, 0)


@settings(max_examples=60, deadline=None)
@given(disconnected_multigraphs())
def test_auto_matches_cofactor_after_merge(g):
    # the merge itself depends on the special vertex, so only the same g
    assert not g.is_connected()
    auto = egp(g, 13, merge_components=True)
    assert auto.residues() == egp(g, 13, algorithm="cofactor",
                                   merge_components=True).residues()


@settings(max_examples=100, deadline=None)
@given(multigraphs(), st.data())
def test_reversing_an_edge_scales_by_sign(g, data):
    assume(admissible_primes(block_spec(g).calV, 13))
    i = data.draw(st.integers(0, g.edge_count - 1))
    t, h = g.edges[i]
    flipped = build_graph(g.edges[:i] + ((h, t),) + g.edges[i + 1:],
                          g.vertex_count, g.special_vertex)
    seq = egp(g, 13)
    for v, r in zip(seq.values, egp(flipped, 13).residues()):
        sign = -1 if v.n * seq.calE % 2 else 1
        assert r == sign * v.residue % v.prime, (g, i, v.prime)


def _graph_plan(g, p):
    # the plan at g's own special vertex (None when a loop gives 0 at
    # every prime), and the vertex and edge weights at p
    _, _, order, edges_at, ends = _cheapest(g, (g.special_vertex,))
    plan = _steps(order, edges_at, ends) if all(ends.values()) else None
    spec = block_spec(g)
    n = admissible_n(spec.calV, p)
    return plan, n * spec.calV, n * spec.calE


def _bound_holds(g, p):
    # the layer bounds, known before any state exists, cover the states
    # the DP visits
    plan, vertex, edge = _graph_plan(g, p)
    if plan is None or max(vertex, edge) >= p:
        return
    loads = _loads(plan, vertex, edge)
    _, visited = _transfer(plan, loads, vertex, edge, p)
    assert sum(_state_bounds(loads, plan.widths)) >= visited, (g, p)


@settings(max_examples=150, deadline=None)
@given(multigraphs())
def test_state_bound_covers_visited_states_on_multigraphs(g):
    for s in range(g.vertex_count):
        for p in admissible_primes(block_spec(g).calV, 23):
            _bound_holds(g.with_special(s), p)


def _largest_bound(g, p):
    plan, vertex, edge = _graph_plan(g, p)
    return max(_state_bounds(_loads(plan, vertex, edge), plan.widths))


def test_state_cap_refuses_before_any_prime_runs(monkeypatch):
    # only the largest prime's layer bound is over the cap, and egp checks
    # it first, so no DP runs at all
    g = get_entry("P_7_10").decompletion()
    monkeypatch.setattr(cofactor, "DP_STATE_CAP",
                        _largest_bound(g.with_special(cheapest_special(g)[0]), 41) - 1)
    runs = []
    monkeypatch.setattr(cofactor, "_transfer",
                        lambda *args: runs.append(args) or _transfer(*args))
    with pytest.raises(ValueError, match="DP_STATE_CAP"):
        egp(g, 41)
    assert not runs
    assert egp(g, 37).primes()[-1] == 37 and runs


def test_cofactor_refuses_before_any_prime_runs(monkeypatch):
    # as above, at the graph's own special vertex
    g = get_entry("P_7_10").decompletion()
    monkeypatch.setattr(cofactor, "DP_STATE_CAP", _largest_bound(g, 41) - 1)
    runs = []
    monkeypatch.setattr(cofactor, "_transfer",
                        lambda *args: runs.append(args) or _transfer(*args))
    with pytest.raises(ValueError, match="DP_STATE_CAP"):
        egp(g, 41, algorithm="cofactor")
    assert not runs
    assert egp(g, 37, algorithm="cofactor").primes()[-1] == 37 and runs


@settings(max_examples=150, deadline=None)
@given(multigraphs())
def test_sequence_plan_matches_per_prime_calculus(g):
    # one plan per sequence gives the residues of the reduced oracle at
    # each prime, at every special vertex, and auto plans where
    # cheapest_special points; reduced refuses a disconnected graph, whose
    # residues are 0
    primes = admissible_primes(block_spec(g).calV, 23)
    assume(primes)
    for s in range(g.vertex_count):
        h = g.with_special(s)
        want = [0] * len(primes)
        if h.is_connected():
            want = [gperm_reduced(h, p) for p in primes]
            assert egp(h, 23, algorithm="cofactor").residues() == want, h
            assert egp(h, 23).residues() == want, h
        special, cost, residues, _ = gperm_cofactor_primes(h, primes)
        assert residues == tuple(want)
        assert (special, cost) == cheapest_special(h)


def test_one_walk_per_candidate_and_one_plan_per_sequence(monkeypatch):
    g = wheel(6)
    walks, plans = [], []
    monkeypatch.setattr(cofactor, "_greedy",
                        lambda *args: walks.append(args[0]) or _greedy(*args))
    monkeypatch.setattr(cofactor, "_steps",
                        lambda *args: plans.append(_steps(*args)) or plans[-1])
    seq = egp(g, 61)
    assert len(seq.values) == 17
    assert [set(range(7)) - set(w) for w in walks] == [{s} for s in range(7)]
    # the plan is the one gperm_cofactor makes at the chosen special vertex
    gperm_cofactor(g.with_special(cheapest_special(g)[0]), 61)
    sequence_plan, plan = plans
    assert sequence_plan == plan


class _Clock:
    def __init__(self):
        self.calls = 0

    def perf_counter(self):
        self.calls += 1
        return 0.0


def test_planning_seconds_logged_at_debug_only(caplog, monkeypatch):
    g = get_entry("P_6_1").decompletion()
    clock = _Clock()
    monkeypatch.setattr(cofactor, "time", SimpleNamespace(perf_counter=clock.perf_counter))
    with caplog.at_level(logging.INFO, logger="egperm"):
        info = egp(g, 41, graph_id="P_6_1")
    assert not caplog.records and clock.calls == 0
    with caplog.at_level(logging.DEBUG, logger="egperm"):
        assert egp(g, 41, graph_id="P_6_1") == info
    (chosen,) = [r.getMessage() for r in caplog.records
                 if r.getMessage().startswith("egp P_6_1: special vertex")]
    assert chosen.endswith("planned in 0.0000 s")
    assert clock.calls > 0
