from egperm.cofactor import gperm_cofactor, state_from_graph
from egperm.graphs import (
    banana, block_spec, build_graph, circulant, cycle, decomplete, wheel, zigzag,
)
from egperm.numtheory import admissible_primes
from egperm.permanent import DimensionCapError, gperm_direct, gperm_reduced
from egperm.sequences import egp


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


def test_state_weights():
    # K4 at p = 5: n = 2, calV = 2, calE = 1
    st = state_from_graph(zigzag(4), 5)
    assert st.modulus == 5
    assert sorted(st.vertex_weights) == [0, 4, 4, 4]
    assert st.edge_weights == (2,) * 6
