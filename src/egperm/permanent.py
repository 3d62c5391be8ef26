"""Block permanents mod p and the graph permanents built on them.

``block_perm_mod`` is Ryser's formula specialised to block matrices
``1_{a x b} (x) B`` without materialising them.  Repeated columns collapse
subsets into multiplicity vectors, so the cost is ``(b+1)^cols(B)`` instead
of ``2^(b*cols(B))``.  Over the lattice of multiplicity vectors, each
column contributes one weight vector ``(-1)^s C(b, s)`` mod p (Ryser's sign
folded in), and each row sum is raised to the power a by a lookup in the
power table ``ModTables.powers(a)``.

On top of these sit the graph permanents ``gperm_direct`` and
``gperm_reduced`` and the unimodular row reduction used by the latter.
Everything here is a cross-check oracle: the production path (``auto``)
is the cofactor calculus in ``cofactor.gperm_cofactor``.  ``LATTICE_CAP``
bounds the block Ryser behind ``direct`` and ``reduced``.
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

LATTICE_CAP = 40_000_000  # max lattice points for the block Ryser


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
    """Permanent of ``1_{a x b} (x) base`` mod p, vectorised over the
    column-multiplicity lattice {0..b}^c."""
    base = np.asarray(base, dtype=np.int64)
    r, c = _check_block_square(base, row_reps, col_reps)
    if c == 0:
        return 1 % p
    a, b = row_reps, col_reps
    if max(a, b) >= p:
        return 0  # a or b identical rows or columns: a! or b! divides it
    if (b + 1) ** c > LATTICE_CAP:
        raise DimensionCapError(
            f"block Ryser lattice (b+1)^c = {b + 1}^{c} exceeds cap {LATTICE_CAP}")
    tb = mod_tables(p)
    # Ryser's sign (-1)^(s_1 + .. + s_c) rides in each column's weight
    weight = np.array([(-1) ** s * tb.binom(b, s) % p for s in range(b + 1)],
                      dtype=np.int64)
    power = tb.powers(a)
    grids = np.indices((b + 1,) * c, sparse=True)
    term = 1
    for s in grids:
        term = term * weight[s] % p
    for row in base:
        row_sum = sum(int(x) * s for x, s in zip(row, grids) if x)
        term = term * power[row_sum % p] % p
    total = int(term.sum() % p)
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
