import pytest

from egperm.graphs import (
    GraphError,
    OrientedGraph,
    banana,
    block_spec,
    build_graph,
    circulant,
    complete,
    cycle,
    decomplete,
    duplicate_edges,
    format_graph,
    parse_graph,
    path_tree,
    star_tree,
    tree_from_parents,
    wheel,
    zigzag,
)
from egperm.transforms import isomorphic


def test_build_graph_validates():
    with pytest.raises(GraphError):
        build_graph([(0, 3)], 3, 0)  # vertex out of range
    with pytest.raises(GraphError):
        build_graph([(0, 1)], 2, 5)  # special vertex out of range


def test_banana_and_cycle():
    b = banana(3)
    assert b.vertex_count == 2 and b.edge_count == 3
    assert b.degrees() == [3, 3]
    c = cycle(5)
    assert c.vertex_count == 5 and c.edge_count == 5
    assert c.degrees() == [2] * 5


def test_wheel_shape():
    w = wheel(4)
    assert w.vertex_count == 5 and w.edge_count == 8
    assert sorted(w.degrees()) == [3, 3, 3, 3, 4]


def test_zigzag4_is_k4():
    k4 = decomplete(circulant(5, 1, 2), 4)
    assert isomorphic(zigzag(4), k4)


def test_circulant_regular():
    g = circulant(8, 1, 3)
    assert g.degrees() == [4] * 8
    assert g.edge_count == 16


def test_trees():
    t = tree_from_parents([0, 0, 1, 1])
    assert t.vertex_count == 5 and t.edge_count == 4
    assert path_tree(4).degrees() == [1, 2, 2, 1]
    assert star_tree(5).degrees() == [4, 1, 1, 1, 1]


def test_block_spec():
    # |V|-1 = 3, |E| = 6 -> L = 6, calV = 2, calE = 1
    spec = block_spec(zigzag(4))
    assert (spec.L, spec.calV, spec.calE) == (6, 2, 1)
    # |V|-1 = 1, |E| = 3 -> L = 3, calV = 3, calE = 1
    spec = block_spec(banana(3))
    assert (spec.L, spec.calV, spec.calE) == (3, 3, 1)
    # triangle: |V|-1 = 2, |E| = 3 -> L = 6, calV = 3, calE = 2
    spec = block_spec(cycle(3))
    assert (spec.L, spec.calV, spec.calE) == (6, 3, 2)


def test_duplicate_edges():
    g = duplicate_edges(cycle(3), 2)
    assert g.edge_count == 6
    assert g.degrees() == [4, 4, 4]
    assert block_spec(g).calE == 1


def test_complete_then_decomplete_round_trip():
    k5 = circulant(5, 1, 2)
    g = decomplete(k5, 4)
    assert sorted(g.degrees()) == [3, 3, 3, 3]
    assert isomorphic(complete(g), k5)


def test_decomplete_moves_special_vertex():
    k5 = circulant(5, 1, 2, special=2)
    g = decomplete(k5, 2)
    assert g.vertex_count == 4
    assert 0 <= g.special_vertex < 4


def test_parse_format_round_trip():
    g = wheel(5)
    g2, rot = parse_graph(format_graph(g))
    assert rot is None
    assert g2.edges == g.edges and g2.special_vertex == g.special_vertex
    rotation = {v: sorted(j for j, (t, h) in enumerate(g.edges) if v in (t, h))
                for v in range(g.vertex_count)}
    g3, rot3 = parse_graph(format_graph(g, rotation))
    assert g3.edges == g.edges
    assert rot3 == rotation


def test_parse_rejects_garbage():
    with pytest.raises(GraphError):
        parse_graph("not a graph")


@pytest.mark.parametrize("text", ["V\n0 1\n", "V 2\nROT\n", "V 2\n0 x\n",
                                  "V 3 SPECIAL\n", "V 3 SPECAIL 2\n",
                                  "V 3 SPECIAL 1 junk\n",
                                  # a ROT vertex out of range or repeated, an edge index
                                  # outside 0..E-1
                                  "V 2\n0 1\n1 0\nROT 2: 0 1\n",
                                  "V 2\n0 1\n1 0\nROT -1: 0 1\n",
                                  "V 2\n0 1\n1 0\nROT 0: 0 1\nROT 0: 1 0\n",
                                  "V 2\n0 1\n1 0\nROT 0 0 9\n",
                                  "V 2\n0 1\n1 0\nROT 1: 1 -1\n"])
def test_parse_names_a_malformed_line(text):
    with pytest.raises(GraphError, match="unparsable line"):
        parse_graph(text)


def test_components():
    g = OrientedGraph(4, ((0, 1), (2, 3)), 0)
    assert not g.is_connected()
    assert sorted(map(sorted, g.components())) == [[0, 1], [2, 3]]
