"""Permanents of explicit square matrices, the oracles of the tests.

``perm_leibniz`` sums over the symmetric group; ``perm_exact`` and
``perm_mod`` run Ryser's inclusion-exclusion with Gray-code row-sum
updates.  ``RYSER_CAP`` bounds the latter.  ``block_perm_exact`` is the
exact integer block Ryser over the column-multiplicity lattice, the
oracle of ``egperm.permanent.block_perm_mod``.
"""

from __future__ import annotations

import math
from itertools import permutations, product

import numpy as np

from egperm.permanent import DimensionCapError

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
    """Exact permanent of ``1_{a x b} (x) base`` via multiplicity Ryser."""
    base = np.asarray(base, dtype=np.int64)
    r, c = base.shape
    if row_reps * r != col_reps * c:
        raise ValueError(f"block matrix {row_reps}*{r} x {col_reps}*{c} is not square")
    if c == 0:
        return 1
    a, b = row_reps, col_reps
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
