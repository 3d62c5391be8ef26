import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from egperm.catalog import certificates, get_entry
from egperm.graphs import (GraphError, OrientedGraph, banana, build_graph, cycle,
                           decomplete, zigzag)
from egperm.sequences import egp, sequences_equal
from egperm.transforms import (
    FourCutSpec,
    automorphisms,
    canonical_form,
    find_involutions,
    isomorphic,
    planar_dual,
    schnetz_twist,
    symmetry_zero_predicate,
    two_vertex_split,
)
from oracles import iso_maps_reference
from test_expressions import deadline

K4 = zigzag(4)
TRIANGLE = cycle(3)


def test_automorphism_counts():
    assert len(automorphisms(TRIANGLE)) == 6
    assert len(automorphisms(K4)) == 24
    assert len(automorphisms(cycle(5))) == 10


def test_isomorphic_respects_multiplicity():
    doubled = build_graph([(0, 1), (0, 1), (1, 2), (0, 2)], 3, 0)
    other = build_graph([(0, 1), (1, 2), (1, 2), (0, 2)], 3, 0)
    assert isomorphic(doubled, other)
    assert not isomorphic(doubled, TRIANGLE)


@st.composite
def multigraphs(draw):
    # loops and parallel edges come up often; isolated vertices and
    # edgeless graphs too
    nv = draw(st.integers(1, 7))
    vertex = st.integers(0, nv - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=10))
    return OrientedGraph(nv, tuple(edges), 0)


@st.composite
def relabellings(draw, g):
    """g under a random vertex relabelling, edge order and edge directions."""
    perm = draw(st.permutations(range(g.vertex_count)))
    edges = [(perm[h], perm[t]) if draw(st.booleans()) else (perm[t], perm[h])
             for t, h in g.edges]
    return OrientedGraph(g.vertex_count, tuple(draw(st.permutations(edges))),
                         perm[g.special_vertex])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_search_matches_backtracking_reference(data):
    g = data.draw(multigraphs())
    assert automorphisms(g) == sorted(iso_maps_reference(g, g))
    h = data.draw(relabellings(g))
    assert canonical_form(h) == canonical_form(g)
    assert isomorphic(g, h)
    other = data.draw(multigraphs())
    assert isomorphic(g, other) == any(True for _ in iso_maps_reference(g, other))


def test_isomorphic_on_highly_symmetric_graphs():
    rng = random.Random(5)
    k55 = build_graph([(a, b) for a in range(5) for b in range(5, 10)], 10, 0)
    perm = list(range(10))
    rng.shuffle(perm)
    relabelled = build_graph([(perm[t], perm[h]) for t, h in k55.edges], 10, 0)
    # without automorphism pruning the edgeless graph alone has 12! leaves
    with deadline(2):
        assert isomorphic(k55, relabelled)
        assert isomorphic(OrientedGraph(12, (), 0), OrientedGraph(12, (), 7))


def test_isomorphism_vertex_cap():
    with pytest.raises(GraphError, match="capped at 16 vertices"):
        isomorphic(cycle(17), cycle(17))
    with pytest.raises(GraphError, match="capped at 16 vertices"):
        automorphisms(cycle(17))
    # different vertex counts answer before the cap
    assert not isomorphic(cycle(17), cycle(18))


def test_involutions_of_square():
    invs = find_involutions(cycle(4))
    # the two reflections through vertices fix 2 vertices each; the
    # reflections through edge midpoints and the rotation fix none
    fixed_counts = sorted(i.fixed_vertex_count for i in invs)
    assert fixed_counts == [0, 0, 0, 2, 2]


def test_symmetry_zero_predicate_on_catalog():
    assert symmetry_zero_predicate(get_entry("P_3_1").decompletion())
    assert not symmetry_zero_predicate(get_entry("P_4_1").decompletion())
    assert not symmetry_zero_predicate(get_entry("P_5_1").decompletion())


def test_twist_certificate():
    cert = certificates()["twist_P_7_4"]
    g = get_entry("P_7_4").completed_graph()
    cut = FourCutSpec(tuple(cert["cut_vertices"]),
                      frozenset(cert["left_vertices"]))
    twisted = schnetz_twist(g, cut)
    assert not isomorphic(twisted, g)
    assert isomorphic(twisted, get_entry(cert["target"]).completed_graph())
    # the operation is an involution for a fixed cut
    assert schnetz_twist(twisted, cut).edges == g.edges


def test_twist_rejects_non_cut():
    cut = FourCutSpec((0, 1, 2, 3), frozenset({4}))
    with pytest.raises(GraphError):
        schnetz_twist(get_entry("P_5_1").completed_graph(), cut)


def test_planar_dual_triangle_is_banana():
    # triangle edges: (0,1)=0 (1,2)=1 (0,2)=2
    rotation = {0: [0, 2], 1: [1, 0], 2: [2, 1]}
    dual = planar_dual(TRIANGLE, rotation)
    assert isomorphic(dual, banana(3))


def test_planar_dual_k4_self_dual():
    # a planar rotation of K4 with edges in builder order:
    # (0,1) (0,2) (0,3) (1,2) (1,3) (2,3)
    rotation = {0: [0, 1, 2], 1: [0, 4, 3], 2: [1, 3, 5], 3: [2, 5, 4]}
    dual = planar_dual(K4, rotation)
    assert isomorphic(dual, K4)


def test_planar_dual_rejects_bad_rotation():
    with pytest.raises(GraphError):
        planar_dual(TRIANGLE, {0: [0], 1: [1, 0], 2: [2, 1]})


def test_dual_certificate_sequences_equal():
    cert = certificates()["dual_P_7_5"]
    src = get_entry(cert["source"])
    g = decomplete(src.completed_graph(), cert["decompletion_vertex"])
    rotation = {int(v): list(order) for v, order in cert["rotation"].items()}
    dual = planar_dual(g, rotation)
    a = egp(dual, 13)
    b = get_entry(cert["target"]).row_sequence()
    assert sequences_equal(a, b)


def test_two_vertex_split_sides():
    # two triangles sharing the pair (0, 2)
    g = build_graph([(0, 1), (1, 2), (0, 2), (0, 3), (2, 3)], 4, 0)
    g1, g2 = two_vertex_split(g, (0, 2))
    assert isomorphic(g1, TRIANGLE)
    # the side keeping the original (0,2) edge gets a doubled edge
    assert isomorphic(g2, build_graph([(0, 1), (1, 2), (0, 2), (0, 2)], 3, 0))


def test_two_vertex_split_requires_cut():
    with pytest.raises(GraphError):
        two_vertex_split(K4, (0, 1))


def test_two_vertex_cut_product_identity():
    # two K4s sharing a vertex pair, each copy missing the shared edge;
    # GPerm(G) = -GPerm(G1) * GPerm(G2) at every shared prime
    edges = [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
             (0, 4), (0, 5), (1, 4), (1, 5), (4, 5)]
    g = build_graph(edges, 6, 0)
    g1, g2 = two_vertex_split(g, (0, 1))
    assert isomorphic(g1, K4) and isomorphic(g2, K4)
    whole = egp(g, 13)
    s1, s2 = egp(g1, 13), egp(g2, 13)
    for w, a, b in zip(whole.values, s1.values, s2.values):
        assert w.residue == (-a.residue * b.residue) % w.prime
