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

Every variable enters F only as ``z_j = y_j^calV``, so both oracles run on
a compact lattice of exponents or images instead of on ``F_p^L``.
``coefficient_oracle`` holds the coefficients of F's powers in a tensor
with one axis of length ``n + 1`` per variable, indexed by the exponent of
``y_j`` divided by calV (exponents only grow, so any above ``p - 1`` can
never contribute).  ``point_count`` enumerates the images ``z`` in
``({0} + H)^L``, where ``H`` is the image of ``y -> y^calV`` on ``F_p^*``,
and weights each point by the number of ``y`` that map onto it.  Both are
exponential in ``L`` and are meant as independent cross-checks on small
graphs, not as production algorithms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graphs import GraphError, OrientedGraph, block_spec, duplicate_edges, reduced_incidence
from .numtheory import admissible_n, mod_tables, primitive_root

__all__ = [
    "LinearFormProduct",
    "permanent_polynomial",
    "coefficient_oracle",
    "point_count",
    "reconcile",
]

# coefficient work: compact tensor entries (n+1)^L times shift passes n*L
MAX_COEFF_LATTICE = 100_000_000
# image points (k+1)^L enumerated; point_count peaks at about 48 bytes per
# point with one variable, where the image is a Python list, and at 20 or
# less with more, so a lattice at the cap peaks below 270 MB
MAX_POINT_LATTICE = 5_000_000


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

    The target coefficient is ``y_1^(p-1) .. y_L^(p-1)``.  Axis j of the
    tensor holds the exponent of ``y_j`` divided by calV, so it has length
    ``n + 1``, a multiplication by ``c * y_j^calV`` shifts it by one, and
    the target sits at ``(n, .., n)``.  ``F^(p-1)`` takes ``n*calV`` such
    multiplications per row, ``n*L`` in all, and ``MAX_COEFF_LATTICE``
    bounds the entries times those passes.
    """
    spec = block_spec(g)
    n = admissible_n(spec.calV, p)
    f = permanent_polynomial(g)
    L = f.num_vars
    work = (n + 1) ** L * n * L
    if work > MAX_COEFF_LATTICE:
        raise GraphError(f"coefficient work (n+1)^L * n*L = {n + 1}^{L} * {n * L}"
                         f" exceeds cap {MAX_COEFF_LATTICE}")
    shape = (n + 1,) * L

    def along(j: int, part: slice) -> tuple[slice, ...]:
        return (slice(None),) * j + (part,) + (slice(None),) * (L - j - 1)

    acc = np.zeros(shape, dtype=np.int64)
    acc[(0,) * L] = 1
    for row in f.coeffs:
        terms = [(along(j, slice(1, None)), along(j, slice(0, n)), c % p)
                 for j, c in enumerate(row) if c % p]
        for _ in range(n * f.power):
            # below L * p^2 before the reduction, far inside int64
            nxt = np.zeros(shape, dtype=np.int64)
            for dst, src, c in terms:
                nxt[dst] += c * acc[src]
            acc = nxt % p
    coeff = int(acc[(n,) * L])
    return coeff * pow(mod_tables(p).fact[n], L, p) % p


def point_count(g: OrientedGraph, p: int) -> int:
    """Number of zeros of F in ``F_p^L``, counted on the images of calV-th
    powers.

    ``y -> y^calV`` sends 0 to 0 once and, with ``d = gcd(calV, p-1)``,
    hits each of the ``k = (p-1)/d`` elements of the order-k subgroup of
    ``F_p^*`` exactly d times.  So an image point with i nonzero
    coordinates stands for ``d^i`` points of ``F_p^L``, and the zeros are
    ``p^L`` minus the weighted count of the ``(k+1)^L`` image points where
    F is nonzero.  calV need not divide p - 1 (at p = 2, d = k = 1).
    """
    f = permanent_polynomial(g)
    L = f.num_vars
    d = math.gcd(f.power, p - 1)
    k = (p - 1) // d
    if (k + 1) ** L > MAX_POINT_LATTICE:
        raise GraphError(f"point lattice (k+1)^L = {k + 1}^{L} exceeds cap "
                         f"MAX_POINT_LATTICE = {MAX_POINT_LATTICE}")
    # image index 0 is 0, index t >= 1 is h^(t-1) for a generator h of H
    h = pow(primitive_root(p), d, p)
    image = [0, 1]
    for _ in range(k - 1):
        image.append(image[-1] * h % p)
    image = np.array(image, dtype=np.int64)
    axes = np.indices((k + 1,) * L, sparse=True)
    nonzero = None
    for row in f.coeffs:
        val = None
        for j, c in enumerate(row):
            if c % p == 0:
                continue
            term = (c % p) * image[axes[j]]
            val = term if val is None else val + term
        mask = (val % p) != 0 if val is not None else np.zeros((1,) * L, bool)
        nonzero = mask if nonzero is None else nonzero & mask
        if not nonzero.any():
            break
    shape = (k + 1,) * L
    weight = sum((t > 0).astype(np.int8) for t in axes)  # nonzero coordinates
    by_weight = np.bincount(np.broadcast_to(weight, shape)[
        np.broadcast_to(nonzero, shape)], minlength=L + 1)
    # exact in Python ints: p^L can pass 2^63
    surviving = sum(int(c) * d ** i for i, c in enumerate(by_weight))
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
    n = admissible_n(spec.calV, p)
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
