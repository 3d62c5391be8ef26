import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import egperm.permanent as permanent
import egperm.sequences as sequences
from egperm.graphs import (
    OrientedGraph,
    block_spec,
    build_graph,
    path_tree,
    star_tree,
    tree_from_parents,
    wheel,
    zigzag,
)
from egperm.numtheory import primes_upto
from egperm.permanent import DimensionCapError, gperm_direct
from egperm.sequences import (
    canonicalize_sign,
    closed_form_tree,
    closed_form_wheel,
    closed_form_zigzag,
    egp,
    sequence_from_row,
    sequences_equal,
)
from oracles import closed_form_zigzag_rec

K4_EDGES = zigzag(4).edges


def test_egp_values_carry_prime_metadata():
    s = egp(zigzag(4), 13)
    assert s.primes() == [3, 5, 7, 11, 13]
    assert all(v.n == (v.prime - 1) // 2 for v in s.values)
    # calE = 1, so the variate primes are those with odd n: p = 3 mod 4
    assert [v.prime for v in s.values if v.variate] == [3, 7, 11]


def test_canonicalize_sign_flips_consistently():
    s = sequence_from_row("x", 2, 1, {3: 2, 5: 2, 7: 5, 11: 8, 13: 6})
    c = canonicalize_sign(s)
    # first nonzero variate residue is 2 at p=3; 2 > 3 - 2 forces a flip
    assert c.residues() == [1, 2, 2, 3, 6]
    assert canonicalize_sign(c).residues() == c.residues()


def test_sequences_equal_up_to_variate_sign():
    a = sequence_from_row("a", 2, 1, {3: 1, 5: 2, 7: 3})
    b = sequence_from_row("b", 2, 1, {3: 2, 5: 2, 7: 4})
    assert sequences_equal(a, b)
    c = sequence_from_row("c", 2, 1, {3: 1, 5: 3, 7: 3})
    assert not sequences_equal(a, c)


def test_sequences_equal_requires_shared_primes():
    a = sequence_from_row("a", 2, 1, {3: 1})
    b = sequence_from_row("b", 2, 1, {5: 1})
    with pytest.raises(ValueError):
        sequences_equal(a, b)
    with pytest.raises(ValueError):
        sequences_equal(a, sequence_from_row("d", 3, 1, {7: 1}))


def test_disconnected_graph_vanishes():
    g = OrientedGraph(4, ((0, 1), (2, 3)), 0)
    assert egp(g, 13).residues() == [0] * 5


def test_merge_components_multiplies():
    # two disjoint triangles with the special vertex in one of them glue
    # to a two-triangle chain sharing the special vertex
    g = OrientedGraph(6, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)), 0)
    merged = egp(g, 13, merge_components=True)
    tri = egp(build_graph([(0, 1), (1, 2), (0, 2)], 3, 0), 13)
    for m, t in zip(merged.values, tri.values):
        assert m.residue == t.residue ** 2 % m.prime


def test_merge_components_of_loops_only_vanishes():
    # the loop merges onto the special vertex, leaving a one-vertex graph;
    # its column is zero either way, so the unmerged zeros stand
    g = build_graph([(0, 0)], 2, 0)
    assert egp(g, 13, merge_components=True) == egp(g, 13)
    assert egp(g, 13, merge_components=True).residues() == [0] * 6


def test_tree_closed_form():
    rng = random.Random(99)
    trees = [path_tree(4), star_tree(5)]
    for _ in range(10):
        size = rng.randint(2, 6)
        parents = [rng.randrange(i) for i in range(1, size)]
        trees.append(tree_from_parents(parents))
    for t in trees:
        for v in egp(t, 13).values:
            assert v.residue == closed_form_tree(t.vertex_count, v.prime)


def test_wheel_closed_form():
    for w in (3, 4, 5):
        row = {p: closed_form_wheel(w, p) for p in (3, 5, 7, 11, 13)}
        assert sequences_equal(sequence_from_row("cf", 2, 1, row),
                               egp(wheel(w), 13))


def test_zigzag_closed_form_k4():
    row = {p: closed_form_zigzag(4, p) for p in (3, 5, 7, 11, 13)}
    assert sequences_equal(sequence_from_row("cf", 2, 1, row),
                           egp(zigzag(4), 13))


def test_zigzag_dp_matches_recursion():
    for m in (4, 5, 6, 7):
        for p in primes_upto(43)[1:]:
            assert closed_form_zigzag(m, p) == closed_form_zigzag_rec(m, p), (m, p)


def test_closed_form_argument_validation():
    with pytest.raises(ValueError):
        closed_form_wheel(2, 5)
    with pytest.raises(ValueError):
        closed_form_wheel(4, 4)
    with pytest.raises(ValueError):
        closed_form_zigzag(3, 5)


def test_unknown_algorithm_rejected():
    with pytest.raises(ValueError):
        egp(zigzag(4), 13, algorithm="magic")


@settings(max_examples=25, deadline=None)
@given(st.lists(st.booleans(), min_size=6, max_size=6))
def test_orientation_invariance_up_to_variate_sign(flips):
    edges = tuple((h, t) if f else (t, h)
                  for (t, h), f in zip(K4_EDGES, flips))
    g = OrientedGraph(4, edges, 0)
    base = egp(zigzag(4), 13)
    other = egp(g, 13)
    for a, b in zip(base.values, other.values):
        if a.variate:
            assert b.residue in {a.residue, (a.prime - a.residue) % a.prime}
        else:
            assert b.residue == a.residue
    assert sequences_equal(base, other)


def test_algorithms_agree_through_13():
    g = wheel(4)
    for alg in ("direct", "reduced", "cofactor", "auto"):
        assert egp(g, 13, algorithm=alg).residues() == egp(g, 13).residues()


def test_block_spec_consistency():
    s = egp(zigzag(4), 7)
    spec = block_spec(zigzag(4))
    assert (s.calV, s.calE) == (spec.calV, spec.calE)
    assert s.values[0].residue == gperm_direct(zigzag(4), 3)


@pytest.mark.parametrize("algorithm", ["direct", "reduced"])
def test_oracle_cap_refuses_before_any_prime_runs(monkeypatch, algorithm):
    # the cap passes the block Glynn lattice (the smaller side) of every
    # prime but the largest, which egp runs first, so no other prime runs
    g = wheel(4)
    lattices = {}
    block_perm_mod = permanent.block_perm_mod

    def measure(base, a, b, p):
        r, c = np.shape(base)
        lattices[p] = min((a + 1) ** r, (b + 1) ** c)
        return block_perm_mod(base, a, b, p)

    with monkeypatch.context() as m:
        m.setattr(permanent, "block_perm_mod", measure)
        egp(g, 13, algorithm=algorithm)
    *rest, second, largest = sorted(lattices)
    assert lattices[largest] > lattices[second] >= max(lattices[p] for p in rest)
    monkeypatch.setattr(permanent, "LATTICE_CAP", lattices[second])
    oracle = getattr(sequences, f"gperm_{algorithm}")
    runs = []
    monkeypatch.setattr(sequences, f"gperm_{algorithm}",
                        lambda h, p: runs.append(p) or oracle(h, p))
    with pytest.raises(DimensionCapError):
        egp(g, 13, algorithm=algorithm)
    assert runs == [largest]
    assert egp(g, second, algorithm=algorithm).primes()[-1] == second
