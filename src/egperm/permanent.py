"""Block permanents mod p and the graph permanents built on them.

``block_perm_mod`` is Ryser's formula specialised to block matrices
``1_{a x b} (x) B`` without materialising them.  Repeated columns collapse
subsets into multiplicity vectors, so the cost is ``(b+1)^cols(B)`` instead
of ``2^(b*cols(B))``.  Since ``perm M = perm M^T``, it enumerates the
smaller of ``(b+1)^cols(B)`` and ``(a+1)^rows(B)``, the latter as
``1_{b x a} (x) B^T``; ``LATTICE_CAP`` bounds the side it enumerates.

The lattice is summed in the discrete-log domain of F_p^* (the tables of
``ModTables``): each lattice point holds the sum of the logs of its
factors, so a product of factors is one addition per factor and no
reduction mod p.  Each column adds the log of its weight
``(-1)^s C(b, s)`` (Ryser's sign folded in), and each row adds
``a * log(row sum)`` from a table indexed by the row sum shifted to start
at 0.  A row sum that is 0 mod p adds a sentinel above every sum of
nonzero factors.  One histogram of the sums, clipped at the sentinel and
folded mod p-1, then gives the total exactly (``ModTables.exp_sum``).  The
sums live in the narrowest signed dtype that holds the largest of them
and the widest shifted row sum.

On top of these sit the graph permanents ``gperm_direct`` and
``gperm_reduced`` and the unimodular row reduction used by the latter.
Everything here is a cross-check oracle: the production path (``auto``)
is the cofactor calculus in ``cofactor.gperm_cofactor``.
"""

from __future__ import annotations

import numpy as np

from .graphs import OrientedGraph, block_spec, reduced_incidence
from .numtheory import mod_tables

__all__ = [
    "DimensionCapError",
    "RankDeficiencyError",
    "block_perm_mod",
    "blockwise_row_reduce",
    "gperm_direct",
    "gperm_reduced",
]

LATTICE_CAP = 40_000_000  # max lattice points the block Ryser enumerates


class DimensionCapError(ValueError):
    """Requested permanent is beyond the configured size limit."""


class RankDeficiencyError(ValueError):
    """Matrix has deficient row rank (disconnected graph)."""


def _check_block_square(base: np.ndarray, a: int, b: int) -> tuple[int, int]:
    r, c = base.shape
    if a * r != b * c:
        raise ValueError(f"block matrix {a}*{r} x {b}*{c} is not square")
    return r, c


def block_perm_mod(base, row_reps: int, col_reps: int, p: int) -> int:
    """Permanent of ``1_{a x b} (x) base`` mod p, as a sum of discrete logs
    over the multiplicity lattice {0..b}^c of the smaller side."""
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
            f"block Ryser lattice (b+1)^c = {b + 1}^{c} exceeds cap {LATTICE_CAP}")
    tb = mod_tables(p)
    m = p - 1
    # c column logs and r row logs, each in [0, p-2]; a row sum that is 0
    # mod p adds `zero` instead, so a sum reaches `zero` iff a factor is 0,
    # and every sum, like `zero` itself, is at most (r + 1) * zero
    zero = tb.zero_log((r + c) * (p - 2))
    span = b * int(np.abs(base).sum(axis=1).max(initial=0))
    dt = tb.log_dtype(max((r + 1) * zero, span))
    grids = np.indices((b + 1,) * c, sparse=True, dtype=dt)
    # log of (-1)^s C(b, s): Ryser's sign rides in the column weight
    s = np.arange(b + 1)
    weight = (tb.log_fact[b] + tb.log_inv_fact[s] + tb.log_inv_fact[b - s]
              + s * (m // 2)) % m
    logs = sum(weight.astype(dt)[g] for g in grids)
    for row in base:
        # shift the row sum by -lo into [0, hi - lo] and look up a*log there
        lo = b * int(row[row < 0].sum())
        v = np.arange(lo, b * int(row[row > 0].sum()) + 1) % p
        table = np.where(v == 0, zero, a * tb.log[v] % m).astype(dt)
        shifted = sum(int(x) * g - b * min(int(x), 0)
                      for x, g in zip(row, grids) if x)
        logs += table[shifted]
    total = tb.exp_sum(logs, zero)
    if (a * r) % 2:
        total = (-total) % p
    return total


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
    n = spec.admissible_n(p)
    m = reduced_incidence(g)
    return block_perm_mod(m, n * spec.calV, n * spec.calE, p)


def gperm_reduced(g: OrientedGraph, p: int) -> int:
    """Graph permanent at p after unimodular reduction to [I_r | A].

    Cofactor expansion along the identity columns leaves the much smaller
    block permanent of A, scaled by a falling-factorial power.
    """
    spec = block_spec(g)
    n = spec.admissible_n(p)
    m = reduced_incidence(g)
    reduced, _ = blockwise_row_reduce(m)
    r = m.shape[0]
    a_block = reduced[:, r:]
    tb = mod_tables(p)
    factor = pow(tb.falling(n * spec.calV, n * spec.calE), r, p)
    rest = block_perm_mod(a_block, n * spec.calV - n * spec.calE, n * spec.calE, p)
    return factor * rest % p
