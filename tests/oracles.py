"""Permanents of explicit square matrices, the oracles of the tests.

``perm_leibniz`` sums over the symmetric group; ``perm_exact`` and
``perm_mod`` run Ryser's inclusion-exclusion with Gray-code row-sum
updates.  ``RYSER_CAP`` bounds the latter.  ``block_perm_exact`` is the
exact integer block Ryser over the smaller multiplicity lattice, the
oracle of ``egperm.permanent.block_perm_mod``.  ``eval_expr_brute`` and
``closed_form_zigzag_rec`` are the term-by-term oracles of
``egperm.expressions.eval_expr`` and ``egperm.sequences.closed_form_zigzag``.
``coefficient_dense`` and ``point_count_dense`` are the oracles of
``egperm.pointcount.coefficient_oracle`` and ``point_count`` on one axis
of length p per variable.  ``greedy_reference`` is the plain walk that
``egperm.cofactor._greedy`` must reproduce, order and cost key alike.
``iso_maps_reference`` is the plain backtracking isomorphism search, the
oracle of ``egperm.transforms.automorphisms`` and ``isomorphic``.
"""

from __future__ import annotations

import math
from itertools import permutations, product

import numpy as np

from egperm.graphs import GraphError, block_spec
from egperm.numtheory import admissible_n, mod_tables
from egperm.permanent import DimensionCapError
from egperm.pointcount import permanent_polynomial
from egperm.transforms import AUTOMORPHISM_VERTEX_CAP

RYSER_CAP = 28          # max columns for the subset-walk Ryser


def perm_leibniz(m) -> int:
    """Permanent by the definition sum; only for tiny matrices."""
    a = np.asarray(m, dtype=object)
    n = a.shape[0]
    if a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    total = 0
    for sigma in permutations(range(n)):
        prod = 1
        for i in range(n):
            prod *= a[i, sigma[i]]
            if prod == 0:
                break
        total += prod
    return int(total)


def _ryser(m, mod: int | None) -> int:
    a = np.asarray(m, dtype=np.int64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    n = a.shape[0]
    if n == 0:
        return 1 % mod if mod else 1
    if n > RYSER_CAP:
        raise DimensionCapError(f"Ryser cap is {RYSER_CAP} columns, got {n}")
    rows = [[int(x) for x in row] for row in a]
    sums = [0] * n
    total = 0
    prev = 0
    for k in range(1, 1 << n):
        gray = k ^ (k >> 1)
        diff = gray ^ prev
        j = diff.bit_length() - 1
        sgn = 1 if gray & diff else -1
        for i in range(n):
            sums[i] += sgn * rows[i][j]
        prev = gray
        prod = 1
        for s in sums:
            prod *= s
            if prod == 0:
                break
            if mod:
                prod %= mod
        if prod:
            total += prod if gray.bit_count() % 2 == n % 2 else -prod
            if mod:
                total %= mod
    return total % mod if mod else total


def perm_exact(m) -> int:
    """Exact integer permanent via Gray-code Ryser (dimension <= 28)."""
    return _ryser(m, None)


def perm_mod(m, p: int) -> int:
    """Permanent residue mod p via Gray-code Ryser."""
    return _ryser(m, p)


def block_perm_exact(base, row_reps: int, col_reps: int) -> int:
    """Exact permanent of ``1_{a x b} (x) base`` via multiplicity Ryser over
    the smaller of the lattices {0..b}^c and {0..a}^r."""
    base = np.asarray(base, dtype=np.int64)
    r, c = base.shape
    if row_reps * r != col_reps * c:
        raise ValueError(f"block matrix {row_reps}*{r} x {col_reps}*{c} is not square")
    if row_reps * r == 0:
        return 1  # the empty matrix
    a, b = row_reps, col_reps
    if (a + 1) ** r < (b + 1) ** c:
        base, a, b, r, c = base.T, b, a, c, r  # perm M = perm M^T
    n_total = a * r
    binom = [math.comb(b, s) for s in range(b + 1)]
    cols = [tuple(int(x) for x in base[:, j]) for j in range(c)]
    total = 0
    for s in product(range(b + 1), repeat=c):
        weight = 1
        for sj in s:
            weight *= binom[sj]
        sums = [0] * r
        for j, sj in enumerate(s):
            if sj:
                col = cols[j]
                for i in range(r):
                    sums[i] += sj * col[i]
        prod = weight
        for v in sums:
            if v == 0:
                prod = 0
                break
            prod *= v ** a
        if prod:
            total += -prod if sum(s) % 2 else prod
    return total if n_total % 2 == 0 else -total


def eval_expr_brute(e, p: int) -> int:
    """``eval_expr`` term by term: one ``itertools.product`` point at a time,
    with ``math.comb``; a binomial is zero unless 0 <= bottom <= top < p."""
    n = (p - 1) // e.calV
    total = 0
    for xs in product(range(e.range_bound.value(n) + 1), repeat=len(e.variables)):
        env = dict(zip(e.variables, xs))
        term = -1 if e.sum_sign.value(n, env) % 2 else 1
        for f in e.factors:
            t, b = f.top.value(n, env), f.bottom.value(n, env)
            term *= (math.comb(t, b) if 0 <= b <= t < p else 0) ** f.power
        total += term
    if e.prefactor_sign.value(n) % 2:
        total = -total
    for arg, power in e.fact_powers:
        total *= pow(math.factorial(arg.value(n)), power, p)
    return total % p


def closed_form_zigzag_rec(m: int, p: int) -> int:
    """The zig-zag closed form at p = 2n+1 by recursion over k_1..k_{m-1}:
    (-1)^(m-1) * sum over k_1+..+k_{m-1}=n of
    prod C(n,k_i) * prod_{i<=m-3} C(n - k_{i+1}, k_1+..+k_i)."""
    n = (p - 1) // 2
    tb = mod_tables(p)
    total = 0

    def rec(i: int, remaining: int, prefix_sum: int, acc: int):
        nonlocal total
        if acc == 0:
            return
        if i == m - 2:
            total = (total + acc * tb.binom(n, remaining)) % p
            return
        for k in range(remaining + 1):
            term = acc * tb.binom(n, k) % p
            if term and 1 <= i <= m - 3:
                # the chain binomial uses k_{i+1} with the sum of k_1..k_i
                term = term * tb.binom(n - k, prefix_sum) % p
            if term:
                rec(i + 1, remaining - k, prefix_sum + k, term)

    rec(0, n, 0, 1)
    return (-total) % p if (m - 1) % 2 else total


def coefficient_dense(g, p: int) -> int:
    """``n!^L`` times the coefficient of ``y_1^(p-1) .. y_L^(p-1)`` in
    ``F^(p-1)``, by dense convolution on a ``p^L`` tensor that drops any
    exponent above ``p - 1`` on the fly."""
    spec = block_spec(g)
    n = admissible_n(spec.calV, p)
    f = permanent_polynomial(g)
    L = f.num_vars
    shape = (p,) * L
    acc = np.zeros(shape, dtype=np.int64)
    acc[(0,) * L] = 1
    # F^(p-1) = prod_v form_v^(n*calV); multiply one linear form at a time
    for row in f.coeffs:
        terms = [(j, c % p) for j, c in enumerate(row) if c % p]
        for _ in range(n * spec.calV):
            nxt = np.zeros(shape, dtype=np.int64)
            for j, c in terms:
                # multiply by c * y_j^power: shift axis j by `power`
                src = [slice(None)] * L
                dst = [slice(None)] * L
                src[j] = slice(0, p - f.power)
                dst[j] = slice(f.power, p)
                nxt[tuple(dst)] += c * acc[tuple(src)]
            acc = nxt % p
    coeff = int(acc[(p - 1,) * L])
    return coeff * pow(mod_tables(p).fact[n], L, p) % p


def point_count_dense(g, p: int) -> int:
    """Number of zeros of F in ``F_p^L``, one lattice point per residue."""
    f = permanent_polynomial(g)
    L = f.num_vars
    power = np.array([pow(x, f.power, p) for x in range(p)], dtype=np.int64)
    grids = [power[y] for y in np.indices((p,) * L, sparse=True)]
    nonzero = None
    for row in f.coeffs:
        val = None
        for j, c in enumerate(row):
            if c % p == 0:
                continue
            term = (c % p) * grids[j]
            val = term if val is None else val + term
        mask = (val % p) != 0 if val is not None else np.zeros((1,) * L, bool)
        nonzero = mask if nonzero is None else nonzero & mask
        if not nonzero.any():
            break
    surviving = int(np.broadcast_to(nonzero, (p,) * L).sum())
    return p ** L - surviving


def greedy_reference(vertices, edges_at, ends):
    """Greedy vertex order and cost key, recounting every neighbour at every incidence.

    Always adds the vertex whose expansion widens the frontier least (ties
    to the lower index).  The key is the step costs (width entering a
    vertex plus its free edges) sorted descending, then the largest
    width, then the widths sorted descending.
    """
    left = {e: len(at) for e, at in ends.items()}   # incidences not yet expanded

    def growth(e):
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


def iso_maps_reference(g1, g2):
    """Backtracking multigraph isomorphism; yields vertex maps g1 -> g2."""
    n = g1.vertex_count
    if n != g2.vertex_count or g1.edge_count != g2.edge_count:
        return
    if n > AUTOMORPHISM_VERTEX_CAP:
        raise GraphError(f"isomorphism search capped at {AUTOMORPHISM_VERTEX_CAP} vertices")

    def adjacency_counts(g):
        adj = [dict() for _ in range(g.vertex_count)]
        for t, h in g.edges:
            adj[t][h] = adj[t].get(h, 0) + 1
            if t != h:
                adj[h][t] = adj[h].get(t, 0) + 1
        return adj

    a1, a2 = adjacency_counts(g1), adjacency_counts(g2)
    deg1 = [sum(row.values()) for row in a1]
    deg2 = [sum(row.values()) for row in a2]
    if sorted(deg1) != sorted(deg2):
        return
    # map g1 by descending degree, ties by index (a regular graph: 0..n-1);
    # a candidate must agree on adjacency with every vertex mapped before it
    order = sorted(range(n), key=lambda v: -deg1[v])
    image = [-1] * n
    used = [False] * n

    def extend(i: int):
        if i == n:
            yield tuple(image)
            return
        v = order[i]
        for w in range(n):
            if used[w] or deg1[v] != deg2[w]:
                continue
            if a1[v].get(v, 0) != a2[w].get(w, 0):
                continue
            ok = True
            for u in order[:i]:
                if a1[v].get(u, 0) != a2[w].get(image[u], 0):
                    ok = False
                    break
            if not ok:
                continue
            image[v] = w
            used[w] = True
            yield from extend(i + 1)
            used[w] = False
            image[v] = -1

    yield from extend(0)
