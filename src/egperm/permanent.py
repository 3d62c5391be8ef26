"""Block permanents mod p and the graph permanents built on them.

``block_perm_mod`` is Glynn's formula (D. Glynn, "The permanent of a
square matrix", Eur. J. Combin. 2010) specialised to block matrices
``1_{a x b} (x) B`` without materialising them.  Glynn sums over a sign
for every column; with ``u_j`` minus signs among the b copies of column
j, the column weighs ``(-1)^u_j C(b, u_j)``, each of the a copies of row
i takes the value ``sum_j B_ij (b - 2 u_j)``, and ``perm = 2^(-a r) *
sum_u prod_j weight_j * prod_i value_i^a``.  So the cost is
``(b+1)^cols(B)`` instead of ``2^(b*cols(B))``.  Flipping every sign,
``u -> b - u``, leaves each summand unchanged, so only ``u_1 <= b/2`` is
enumerated: a slice with ``u_1 < b/2`` counts twice, and the middle slice
of an even b once.  Since ``perm M = perm M^T``, it works on the smaller
of ``(b+1)^cols(B)`` and ``(a+1)^rows(B)``, the latter as
``1_{b x a} (x) B^T``; ``LATTICE_CAP`` bounds the full lattice of that
side.  At p = 2 only ``a = b = 1`` is not already 0 (a or b copies of a
row or column put a! or b! in the permanent), and there the permanent is
the determinant mod 2, computed by elimination over GF(2).

The lattice is summed in the discrete-log domain of F_p^* (the tables of
``ModTables``): each lattice point holds the sum of the logs of its
factors, so a product of factors is one addition per factor and no
reduction mod p.  Each column adds the log of its weight (the first
column's also ``log 2`` on the doubled slices), and each row adds
``a * log(value)`` from one table indexed by the row value shifted from
``[-span, span]`` to start at 0.  A row's term spans only the axes of its
nonzero columns, and ``numtheory.lattice_sum``, which also sums the
closed forms of ``expressions.eval_expr``, adds the terms group by
group: the rows and columns whose axes lie inside a wider row's are
summed on that row's sub-lattice first, so only one addition per group
spans the whole lattice.  A row value that is 0 mod p adds a
sentinel above every sum of nonzero factors.  One histogram of the sums
then gives the total exactly (``ModTables.exp_sum``): its counts below
the sentinel fold mod p-1, and those at or above it are dropped.  The
sums live in the narrowest signed dtype that holds the largest of them
and the widest shifted row value.

On top of these sit the graph permanents ``gperm_direct`` and
``gperm_reduced`` and the unimodular row reduction used by the latter.
Everything here is a cross-check oracle: the production path (``auto``
and ``cofactor``) is the cofactor DP, ``cofactor.gperm_cofactor_primes``.
"""

from __future__ import annotations

import numpy as np

from .graphs import OrientedGraph, block_spec, reduced_incidence
from .numtheory import admissible_n, lattice_sum, mod_tables

__all__ = [
    "DimensionCapError",
    "RankDeficiencyError",
    "block_perm_mod",
    "blockwise_row_reduce",
    "gperm_direct",
    "gperm_reduced",
]

# max points (b+1)^c of the block Glynn lattice; half of them are enumerated
LATTICE_CAP = 40_000_000


class DimensionCapError(ValueError):
    """Requested permanent is beyond the configured size limit."""


class RankDeficiencyError(ValueError):
    """Matrix has deficient row rank (disconnected graph)."""


def _check_block_square(base: np.ndarray, a: int, b: int) -> tuple[int, int]:
    r, c = base.shape
    if a * r != b * c:
        raise ValueError(f"block matrix {a}*{r} x {b}*{c} is not square")
    return r, c


def _det_mod2(base: np.ndarray) -> int:
    """Determinant of a square integer matrix mod 2, by elimination over GF(2)."""
    m = (base % 2).astype(bool)
    for j in range(len(m)):
        below = np.flatnonzero(m[j:, j])
        if not below.size:
            return 0
        i = j + below[0]
        m[[j, i]] = m[[i, j]]
        m[j + 1:] ^= np.outer(m[j + 1:, j], m[j])
    return 1


def block_perm_mod(base, row_reps: int, col_reps: int, p: int) -> int:
    """Permanent of ``1_{a x b} (x) base`` mod p, as a sum of discrete logs
    over half the sign lattice {0..b}^c of the smaller side."""
    base = np.asarray(base, dtype=np.int64)
    r, c = _check_block_square(base, row_reps, col_reps)
    a, b = row_reps, col_reps
    if a * r == 0:
        return 1 % p  # the empty matrix
    if max(a, b) >= p:
        return 0  # a or b identical rows or columns: a! or b! divides it
    if (a + 1) ** r < (b + 1) ** c:
        base, a, b, r, c = base.T, b, a, c, r  # perm M = perm M^T
    if (b + 1) ** c > LATTICE_CAP:
        raise DimensionCapError(
            f"block Glynn lattice (b+1)^c = {b + 1}^{c} exceeds cap {LATTICE_CAP}")
    if p == 2:
        return _det_mod2(base)  # a = b = 1: the matrix is the base itself
    tb = mod_tables(p)
    m = p - 1
    # c column logs and r row logs, each in [0, p-2]; a row value that is 0
    # mod p adds `zero` instead, so a sum reaches `zero` iff a factor is 0,
    # and every sum, like `zero` itself, is at most (r + 1) * zero
    zero = tb.zero_log((r + c) * (p - 2))
    span = b * int(np.abs(base).sum(axis=1).max(initial=0))
    dt = tb.log_dtype(max((r + 1) * zero, 2 * span))
    # u -> b - u leaves every summand alone, so column 0 stops at b // 2,
    # and a slice below b / 2 also counts for its mirror image
    half = b // 2
    shape = (half + 1,) + (b + 1,) * (c - 1)
    grids = np.indices(shape, sparse=True, dtype=dt)
    # log of (-1)^u C(b, u): the ways to sign u of a column's b copies minus
    u = np.arange(b + 1)
    weight = (tb.log_fact[b] + tb.log_inv_fact[u] + tb.log_inv_fact[b - u]
              + u * (m // 2)) % m
    mirrored = (weight[:half + 1] + np.where(2 * u[:half + 1] < b, tb.log[2], 0)) % m
    columns = [mirrored.astype(dt)[grids[0]]] + [weight.astype(dt)[g] for g in grids[1:]]
    # a*log of each row value in [-span, span], shifted by span to start at 0
    v = np.arange(-span, span + 1) % p
    table = np.where(v == 0, zero, a * tb.log[v] % m).astype(dt)
    signed = [b - 2 * g for g in grids]   # a column's copies sum to b - 2u

    def row_logs(row):
        shifted = span
        for x, s in zip(row, signed):
            if x:
                shifted = shifted + int(x) * s
        return table[shifted]

    logs = lattice_sum(columns + [row_logs(row) for row in base], shape)
    return tb.exp_sum(logs, zero) * pow(2, -a * r, p) % p


def blockwise_row_reduce(m) -> tuple[np.ndarray, list[int]]:
    """Row reduce a totally unimodular matrix to ``[I_r | A]`` form.

    Only row swaps, +-1 scalings, and integer row additions are used, so
    the blockwise permanent residue is preserved.  Returns the reduced
    matrix with its columns permuted so the pivots come first, along with
    the column permutation applied.
    """
    r0 = np.array(m, dtype=np.int64)
    rows, cols = r0.shape
    pivots: list[int] = []
    pr = 0
    for j in range(cols):
        if pr >= rows:
            break
        nz = [i for i in range(pr, rows) if r0[i, j] != 0]
        if not nz:
            continue
        i = nz[0]
        if i != pr:
            r0[[i, pr]] = r0[[pr, i]]
        if r0[pr, j] == -1:
            r0[pr] = -r0[pr]
        for i2 in range(rows):
            if i2 != pr and r0[i2, j] != 0:
                r0[i2] -= r0[i2, j] * r0[pr]
        pivots.append(j)
        pr += 1
    if pr < rows:
        raise RankDeficiencyError(
            "row rank deficiency: the graph is disconnected")
    if np.abs(r0).max(initial=0) > 1:
        raise ValueError("unimodular pivoting produced an entry outside {0,+-1}")
    col_perm = pivots + [j for j in range(cols) if j not in pivots]
    return r0[:, col_perm], col_perm


def gperm_direct(g: OrientedGraph, p: int) -> int:
    """Graph permanent at p straight from the block incidence matrix."""
    spec = block_spec(g)
    n = admissible_n(spec.calV, p)
    m = reduced_incidence(g)
    return block_perm_mod(m, n * spec.calV, n * spec.calE, p)


def gperm_reduced(g: OrientedGraph, p: int) -> int:
    """Graph permanent at p after unimodular reduction to [I_r | A].

    Cofactor expansion along the identity columns leaves the much smaller
    block permanent of A, scaled by a falling-factorial power.
    """
    spec = block_spec(g)
    n = admissible_n(spec.calV, p)
    m = reduced_incidence(g)
    reduced, _ = blockwise_row_reduce(m)
    r = m.shape[0]
    a_block = reduced[:, r:]
    tb = mod_tables(p)
    factor = pow(tb.falling(n * spec.calV, n * spec.calE), r, p)
    rest = block_perm_mod(a_block, n * spec.calV - n * spec.calE, n * spec.calE, p)
    return factor * rest % p
