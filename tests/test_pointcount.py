import math

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import egperm.cofactor as cofactor
import egperm.pointcount as pointcount
from egperm.cofactor import gperm_cofactor
from egperm.graphs import (
    GraphError, banana, block_spec, build_graph, wheel, zigzag,
)
from egperm.numtheory import admissible_primes
from egperm.permanent import gperm_direct
from egperm.pointcount import (
    coefficient_oracle,
    permanent_polynomial,
    point_count,
    reconcile,
)
from oracles import coefficient_dense, perm_exact, point_count_dense
import numpy as np

K4 = zigzag(4)
TRIANGLE = build_graph([(0, 1), (1, 2), (0, 2)], 3, 0)


def test_permanent_polynomial_shape():
    f = permanent_polynomial(TRIANGLE)  # calV = 3, calE = 2 -> L = 6
    assert f.num_vars == 6
    assert f.power == 3
    assert len(f.coeffs) == 2  # one factor per non-special vertex


def test_point_count_known_values():
    assert point_count(banana(2), 3) == 1
    assert point_count(banana(2), 5) == 9
    assert point_count(K4, 3) == 501
    assert point_count(TRIANGLE, 3) == 405


def test_coefficient_oracle_matches_gperm():
    cases = [(banana(2), (3, 5, 7)), (TRIANGLE, (7,)), (K4, (3, 5))]
    for g, primes in cases:
        for p in primes:
            assert coefficient_oracle(g, p) == gperm_direct(g, p)


def test_count_identity():
    # GPerm = (-1)^(L+1) * n!^L * N with N the number of zeros of the
    # vertex-form product over F_p^L; banana(3) has odd L and pins the sign
    for g, bound in ((banana(2), 7), (banana(3), 7), (TRIANGLE, 7), (K4, 5)):
        for p in admissible_primes(block_spec(g).calV, bound):
            report = reconcile(g, p)
            assert report["coefficient_ok"], (g, p, report)
            assert report["count_ok"], (g, p, report)


@st.composite
def small_cases(draw):
    """A multigraph on 2-4 vertices, with loops, parallel edges and any
    special vertex, and a prime p with a dense lattice p^L of at most 2e4."""
    nv = draw(st.integers(2, 4))
    vertex = st.integers(0, nv - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), min_size=1, max_size=6))
    g = build_graph(edges, nv, draw(vertex))
    L = block_spec(g).L
    primes = [p for p in (2, 3, 5, 7, 11, 13) if p ** L <= 20_000]
    assume(primes)
    return g, draw(st.sampled_from(primes))


@settings(max_examples=150, deadline=None)
@given(small_cases())
@example((build_graph([(0, 1), (1, 1), (1, 0)], 2, 1), 2))  # loop, p = 2
@example((TRIANGLE, 5))      # calV = 3, gcd(3, 4) = 1
@example((banana(4), 7))     # calV = 4, gcd(4, 6) = 2
@example((banana(4), 5))     # admissible: the coefficient side runs too
def test_compact_oracles_match_dense(case):
    g, p = case
    spec = block_spec(g)
    assert point_count(g, p) == point_count_dense(g, p)
    if p > spec.calV and (p - 1) % spec.calV == 0:
        coeff = coefficient_oracle(g, p)
        assert coeff == coefficient_dense(g, p)
        assert coeff == gperm_direct(g, p)


def test_reconcile_accepts_precomputed_residue():
    report = reconcile(banana(2), 5, gperm=gperm_cofactor(banana(2), 5))
    assert report["gperm"] == 4 and report["count_ok"]


def test_mod2_point_count_even_for_doubled_ratio_graphs():
    # graphs with |E| = 2(|V|-1) have an even number of zeros over F_2
    doubled_path = build_graph([(0, 1), (0, 1), (1, 2), (1, 2)], 3, 0)
    graphs = [banana(2), doubled_path, K4, wheel(4)]
    for g in graphs:
        assert 2 * (g.vertex_count - 1) == g.edge_count
        assert point_count(g, 2) % 2 == 0


def test_reconcile_checks_caps_before_the_permanent(monkeypatch):
    calls = []
    monkeypatch.setattr(cofactor, "gperm_cofactor",
                        lambda g, p: calls.append(p) or 0)
    with pytest.raises(GraphError):
        reconcile(banana(2), 4001)  # 4001^2 coefficient entries
    assert calls == []


def test_lattice_caps():
    with pytest.raises(GraphError):
        point_count(wheel(5), 11)  # 11^10 points
    with pytest.raises(GraphError):
        coefficient_oracle(wheel(5), 11)


def test_point_lattice_just_over_the_cap_rejected():
    # banana(2) has L = 2 and k = (p-1)/2: the first prime whose (k+1)^2
    # passes the cap is refused before any array is built
    cap = pointcount.MAX_POINT_LATTICE
    primes = admissible_primes(2, 2 * math.isqrt(cap) + 100)
    size = {p: ((p - 1) // 2 + 1) ** 2 for p in primes}
    over = min(p for p in primes if size[p] > cap)
    assert size[max(p for p in primes if p < over)] <= cap
    with pytest.raises(ValueError, match=f"MAX_POINT_LATTICE = {cap}"):
        point_count(banana(2), over)


def test_block_extension_coefficient_identity_sympy():
    # Perm(1_r (x) A) = r!^n * [x_1^r .. x_n^r] (prod_i sum_j a_ij x_j)^r
    rng = np.random.default_rng(17)
    xs = sympy.symbols("x0 x1 x2")
    for n, r in [(2, 2), (2, 3), (3, 2)]:
        a = rng.integers(-3, 4, size=(n, n))
        big = np.kron(np.ones((r, r), dtype=np.int64), a)
        lhs = perm_exact(big)
        poly = sympy.prod(
            sum(int(a[i, j]) * xs[j] for j in range(n)) for i in range(n))
        expanded = sympy.Poly((poly) ** r, *xs[:n])
        coeff = expanded.coeff_monomial(sympy.prod(x ** r for x in xs[:n]))
        assert lhs == math.factorial(r) ** n * int(coeff)
