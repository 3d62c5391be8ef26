import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import egperm.permanent as permanent
import oracles
from egperm.cofactor import gperm_cofactor
from egperm.graphs import banana, build_graph, reduced_incidence, wheel, zigzag
from egperm.permanent import (
    DimensionCapError,
    block_perm_mod,
    blockwise_row_reduce,
    gperm_direct,
    gperm_reduced,
)
from oracles import block_perm_exact, perm_exact, perm_leibniz, perm_mod


def test_known_permanents():
    assert perm_exact(np.ones((3, 3), dtype=np.int64)) == 6
    assert perm_exact(np.eye(4, dtype=np.int64)) == 1
    assert perm_leibniz([[1, 2], [3, 4]]) == 1 * 4 + 2 * 3


def test_leibniz_matches_ryser_random():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = rng.integers(1, 6)
        m = rng.integers(-5, 6, size=(n, n))
        assert perm_leibniz(m) == perm_exact(m)


def test_perm_mod_matches_exact():
    rng = np.random.default_rng(11)
    for p in (5, 13):
        for _ in range(10):
            m = rng.integers(-9, 10, size=(5, 5))
            assert perm_mod(m, p) == perm_exact(m) % p


def test_ryser_dimension_cap():
    with pytest.raises(DimensionCapError):
        perm_exact(np.ones((oracles.RYSER_CAP + 1,) * 2, dtype=np.int64))


def test_block_perm_matches_materialized():
    rng = np.random.default_rng(3)
    for _ in range(8):
        rows, cols = 2, int(rng.integers(2, 5))
        a, b = int(rng.integers(1, 3)), int(rng.integers(1, 4))
        base = rng.integers(-3, 4, size=(rows, cols))
        if rows * a != cols * b:
            continue
        big = np.kron(np.ones((a, b), dtype=np.int64), base)
        assert block_perm_exact(base, a, b) == perm_exact(big)


def test_block_perm_mod_matches_exact():
    # K4 has calV = 2, calE = 1, so the block at p = 2n+1 is 1_{2n x n} (x) M
    base = reduced_incidence(zigzag(4))
    for p, n in ((5, 2), (13, 6)):
        exact = block_perm_exact(base, 2 * n, n)
        assert block_perm_mod(base, 2 * n, n, p) == exact % p


@st.composite
def block_bases(draw):
    """A 1-3 x 1-3 base with entries in -2..2, an all-zero row in a quarter
    of draws, and repeat counts a, b with a*r == b*c (at most 11^3 lattice
    points)."""
    r, c = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    m = draw(st.integers(1, 5))
    a, b = m * math.lcm(r, c) // r, m * math.lcm(r, c) // c
    base = draw(st.lists(st.lists(st.integers(-2, 2), min_size=c, max_size=c),
                         min_size=r, max_size=r))
    if draw(st.integers(0, 3)) == 0:
        base[draw(st.integers(0, r - 1))] = [0] * c
    return np.array(base, dtype=np.int64), a, b


@settings(max_examples=150, deadline=None)
@given(block_bases())
def test_block_perm_mod_matches_exact_random(case):
    # Glynn over half the sign lattice against the exact block Ryser
    base, a, b = case
    exact = block_perm_exact(base, a, b)
    for p in (2, 3, 5, 7, 11, 13):
        assert block_perm_mod(base, a, b, p) == exact % p, p


@settings(max_examples=100, deadline=None)
@given(block_bases())
def test_block_perm_mod_transpose_invariant(case):
    # perm(1_{a x b} (x) M) = perm(1_{b x a} (x) M^T), whichever side is enumerated
    base, a, b = case
    for p in (2, 5, 11, 13):
        assert block_perm_mod(base, a, b, p) == block_perm_mod(base.T, b, a, p), p


def test_block_perm_mod_edge_cases():
    # a = b = 0, or a base without rows, is the empty matrix: permanent 1
    for p in (2, 3, 7):
        assert block_perm_mod(np.ones((2, 3), dtype=np.int64), 0, 0, p) == 1
        assert block_perm_mod(np.zeros((0, 2), dtype=np.int64), 5, 0, p) == 1
    # p = 2, where only a = b = 1 reaches the GF(2) determinant
    for base in ([[1, 1], [0, 1]], [[1, 1], [1, 1]], [[1, -1], [1, 1]]):
        assert block_perm_mod(base, 1, 1, 2) == block_perm_exact(base, 1, 1) % 2
    # at p = 40009 the log sums of a 1 x 2 base pass 2^15, so need int32
    base = np.array([[1, 2]], dtype=np.int64)
    assert block_perm_mod(base, 6, 3, 40009) == block_perm_exact(base, 6, 3) % 40009


def test_block_glynn_covers_both_parities_and_sides():
    # the enumerated side b is even (the middle slice counts once) or odd
    # (every slice has a distinct mirror), on either side of the transpose
    rng = np.random.default_rng(17)
    seen = set()
    for r, c, a, b in ((2, 1, 1, 2), (1, 2, 2, 1), (1, 1, 3, 3), (3, 1, 1, 3),
                       (1, 3, 3, 1), (2, 2, 4, 4), (3, 2, 2, 3), (2, 3, 3, 2),
                       (1, 1, 6, 6), (2, 4, 2, 1)):
        transposed = (a + 1) ** r < (b + 1) ** c
        side = a if transposed else b
        seen.add((transposed, side % 2))
        for _ in range(6):
            base = rng.integers(-2, 3, size=(r, c))
            exact = block_perm_exact(base, a, b)
            for p in (3, 5, 7, 11, 13):
                assert block_perm_mod(base, a, b, p) == exact % p, (base, a, b, p)
    assert seen == {(False, 0), (False, 1), (True, 0), (True, 1)}


def test_gf2_determinant_path():
    # at p = 2 the permanent of a square base is its determinant mod 2
    rng = np.random.default_rng(19)
    zeros = 0
    for _ in range(120):
        n = int(rng.integers(1, 8))
        base = rng.integers(-2, 3, size=(n, n))
        if n > 1 and rng.integers(0, 3) == 0:
            base[n - 1] = base[0] + 2 * base[n - 2]   # equal to row 0 mod 2
        want = perm_exact(base) % 2
        zeros += want == 0
        assert block_perm_mod(base, 1, 1, 2) == want, base
    assert zeros >= 20   # a third of the draws are singular by construction


def test_lattice_cap_boundary(monkeypatch):
    # the cap bounds the full lattice (b+1)^c, though half of it is summed
    base = np.array([[1, -1], [2, 1]], dtype=np.int64)
    exact = block_perm_exact(base, 2, 2)
    monkeypatch.setattr(permanent, "LATTICE_CAP", 3 ** 2)
    assert block_perm_mod(base, 2, 2, 7) == exact % 7
    monkeypatch.setattr(permanent, "LATTICE_CAP", 3 ** 2 - 1)
    with pytest.raises(DimensionCapError, match="3\\^2"):
        block_perm_mod(base, 2, 2, 7)


def test_repeated_rows_divisible_by_factorial():
    # a matrix with k equal rows has permanent divisible by k!
    rng = np.random.default_rng(5)
    for k in (2, 3, 4):
        row = rng.integers(-4, 5, size=6)
        rest = rng.integers(-4, 5, size=(6 - k, 6))
        m = np.vstack([np.tile(row, (k, 1)), rest])
        assert perm_exact(m) % math.factorial(k) == 0


def test_blockwise_row_reduce_shape():
    m = reduced_incidence(wheel(4))
    reduced, col_perm = blockwise_row_reduce(m)
    r = m.shape[0]
    assert sorted(col_perm) == list(range(m.shape[1]))
    assert np.array_equal(reduced[:, :r], np.eye(r, dtype=reduced.dtype))
    assert np.all(np.isin(reduced, (-1, 0, 1)))  # total unimodularity survives


def test_gperm_reduced_matches_direct():
    for g in (banana(2), zigzag(4), wheel(4)):
        for p in (3, 5, 7):
            assert gperm_reduced(g, p) == gperm_direct(g, p)


def test_gperm_rejects_inadmissible_prime():
    with pytest.raises(ValueError):
        gperm_direct(banana(3), 5)  # calV = 3 needs p = 3n + 1


def test_lattice_cap(monkeypatch):
    monkeypatch.setattr(permanent, "LATTICE_CAP", 10)
    with pytest.raises(DimensionCapError):
        gperm_direct(zigzag(4), 13)


def test_repeats_reaching_modulus_vanish():
    # two edges on four vertices: calE = 3, so at p = 5 each of the 6 column
    # copies repeats past p - 1, and the permanent is divisible by 6!
    g = build_graph([(0, 1), (1, 2)], 4, 0)
    assert gperm_direct(g, 5) == gperm_cofactor(g, 5) == 0
    assert block_perm_mod(np.ones((1, 1), dtype=np.int64), 5, 5, 5) == 0
