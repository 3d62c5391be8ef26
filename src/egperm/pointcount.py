"""Finite-field reformulation of the graph permanent.

With ``p = n*calV + 1`` and ``L = calE * |E|``, the graph permanent can be
read off a single polynomial.  Duplicate every edge ``calE`` times (so the
graph has exactly ``L`` edges and ``n`` column copies per edge suffice) and
form::

    F(y_1, .., y_L) = prod over non-special vertices v of
                      ( sum_{e into v} y_e^calV - sum_{e out of v} y_e^calV )

Then two identities hold mod p:

* coefficient form:  ``GPerm = n!^L * [y_1^(p-1) .. y_L^(p-1)] F^(p-1)``;
* point-count form:  ``GPerm = (-1)^(L+1) * n!^L * N`` where ``N`` is the
  number of zeros of ``F`` in ``F_p^L``.  This follows from summing
  ``F^(p-1)`` over ``F_p^L``: the sum is ``p^L - N = -N`` mod p, while
  monomial-by-monomial only exponent patterns with every variable a
  positive multiple of ``p - 1`` survive, and the total degree
  ``(p-1)*L`` forces all of them to equal ``p - 1`` exactly, leaving
  ``(-1)^L`` times the target coefficient.

``coefficient_oracle`` extracts the coefficient by dense multivariate
convolution with per-variable exponents capped at ``p - 1`` (exponents
only grow, so higher terms can never contribute).  ``point_count``
enumerates ``F_p^L`` with numpy.  Both are exponential in ``L`` and are
meant as independent cross-checks on small graphs, not as production
algorithms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import GraphError, OrientedGraph, block_spec, duplicate_edges, reduced_incidence
from .numtheory import mod_tables

__all__ = [
    "LinearFormProduct",
    "permanent_polynomial",
    "coefficient_oracle",
    "point_count",
    "reconcile",
]

MAX_COEFF_LATTICE = 10_000_000   # dense coefficient tensor entries
MAX_POINT_LATTICE = 40_000_000   # points of F_p^L enumerated


@dataclass(frozen=True)
class LinearFormProduct:
    """``prod_v (sum_j coeffs[v][j] * y_j^power)`` in ``num_vars`` variables."""

    coeffs: tuple[tuple[int, ...], ...]
    power: int
    num_vars: int


def permanent_polynomial(g: OrientedGraph) -> LinearFormProduct:
    """The vertex-form product F for g, over the calE-fold duplicated graph."""
    spec = block_spec(g)
    ge = duplicate_edges(g, spec.calE)
    return LinearFormProduct(
        coeffs=tuple(map(tuple, reduced_incidence(ge).tolist())),
        power=spec.calV,
        num_vars=ge.edge_count,
    )


def coefficient_oracle(g: OrientedGraph, p: int) -> int:
    """GPerm at p as ``n!^L`` times a coefficient of ``F^(p-1)``.

    The target coefficient is ``y_1^(p-1) .. y_L^(p-1)``; the dense tensor
    keeps one axis of length p per variable and drops any exponent above
    ``p - 1`` on the fly.
    """
    spec = block_spec(g)
    n = spec.admissible_n(p)
    f = permanent_polynomial(g)
    L = f.num_vars
    if p ** L > MAX_COEFF_LATTICE:
        raise GraphError(f"coefficient tensor p^L = {p}^{L} exceeds cap")
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


def point_count(g: OrientedGraph, p: int) -> int:
    """Number of zeros of F in ``F_p^L`` (numpy enumeration of the lattice)."""
    f = permanent_polynomial(g)
    L = f.num_vars
    if p ** L > MAX_POINT_LATTICE:
        raise GraphError(f"point lattice p^L = {p}^{L} exceeds cap")
    power = mod_tables(p).powers(f.power)
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


def reconcile(g: OrientedGraph, p: int, gperm: int | None = None) -> dict:
    """Cross-check the two finite-field identities against the residue."""
    spec = block_spec(g)
    # the oracles refuse a lattice over their caps before the permanent runs
    coeff = coefficient_oracle(g, p)
    count = point_count(g, p)
    if gperm is None:
        from .cofactor import gperm_cofactor
        gperm = gperm_cofactor(g, p)
    n = (p - 1) // spec.calV
    L = spec.L
    scale = pow(mod_tables(p).fact[n], L, p)
    count_side = (-1) ** (L + 1) * scale * count % p
    return {
        "prime": p,
        "gperm": gperm,
        "coefficient_identity": coeff,
        "point_count": count,
        "count_identity": count_side,
        "coefficient_ok": coeff == gperm % p,
        "count_ok": count_side == gperm % p,
    }
