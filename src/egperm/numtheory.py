"""Primes, factorial tables modulo p, and small Wilson-style helpers."""

from __future__ import annotations

from functools import cached_property, lru_cache
from typing import Callable, Iterable

import numpy as np

__all__ = [
    "is_prime",
    "primes_upto",
    "admissible_primes",
    "require_admissible_primes",
    "admissible_n",
    "largest_first",
    "check_bound",
    "primitive_root",
    "ModTables",
    "lattice_sum",
]

# largest prime bound of a graph-permanent sequence: each residue costs a
# polynomial in p whose degree grows with the graph, so a larger bound
# cannot finish; point counts, at one prime, have lattice caps of their own
BOUND_CAP = 10_000
# largest prime bound of `egp closed-form`: the wheel closed form and the
# factorial table cost O(p) per prime, so a run grows like
# bound^2 / log(bound); wheel(5) takes about 3 s at this bound on a 2-CPU
# machine (stored expressions are bounded by their lattice cap instead)
CLOSED_FORM_CAP = 10_000
# lattice points that ModTables.exp_sum counts at a time: bincount copies
# its input to int64, so a chunk bounds that copy at 512 KiB
_COUNT_CHUNK = 1 << 16


def check_bound(bound: int, cap: int | None = None) -> None:
    """ValueError if ``bound`` exceeds ``cap`` (default ``BOUND_CAP``)."""
    cap = BOUND_CAP if cap is None else cap
    if bound > cap:
        raise ValueError(f"prime bound {bound} exceeds the limit {cap}")


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def primes_upto(bound: int) -> list[int]:
    if bound < 2:
        return []
    sieve = np.ones(bound + 1, dtype=bool)
    sieve[:2] = False
    for i in range(2, int(bound ** 0.5) + 1):
        if sieve[i]:
            sieve[i * i:: i] = False
    return [int(p) for p in np.flatnonzero(sieve)]


def admissible_primes(calV: int, bound: int) -> list[int]:
    """Primes p <= bound of the form p = n*calV + 1 with n >= 1."""
    return [p for p in primes_upto(bound) if p > calV and (p - 1) % calV == 0]


def require_admissible_primes(calV: int, bound: int) -> list[int]:
    """``admissible_primes``; ValueError if there is none."""
    primes = admissible_primes(calV, bound)
    if not primes:
        raise ValueError(f"no admissible prime <= {bound} for calV={calV}")
    return primes


def admissible_n(calV: int, p: int) -> int:
    """The n with ``p = n*calV + 1``; ValueError if p is not admissible."""
    if (p - 1) % calV != 0 or p <= calV:
        raise ValueError(f"prime {p} is not admissible for calV={calV}")
    return (p - 1) // calV


def largest_first(residue: Callable[[int], int], primes: Iterable[int]) -> dict[int, int]:
    """``{p: residue(p)}`` over the distinct ``primes``, computed (and keyed)
    from the largest down: a size cap grows with p, so a run over its cap
    is refused before any prime's work."""
    return {p: residue(p) for p in sorted(set(primes), reverse=True)}


def primitive_root(p: int) -> int:
    """The least generator of the multiplicative group mod the prime p."""
    m, factors, f = p - 1, [], 2
    while f * f <= m:
        if m % f == 0:
            factors.append(f)
            while m % f == 0:
                m //= f
        f += 1
    if m > 1:
        factors.append(m)
    return next(g for g in range(1, p)
                if all(pow(g, (p - 1) // q, p) != 1 for q in factors))


class ModTables:
    """Factorials, inverse factorials, binomials and falling factorials
    mod p, and discrete-log tables of F_p^*.

    The log tables work in the exponent group Z/(p-1): with ``g`` the least
    primitive root, ``exp[k] = g^k`` and ``log[exp[k]] = k``, so a product
    of nonzero residues is the ``exp`` of the sum of their logs mod p-1.
    ``log``, ``exp``, ``log_fact`` and ``log_inv_fact`` are int64 arrays
    built on first use, so a caller that never reads them never pays for
    them; ``log[0]`` is 0 and means nothing (zero has no log).
    """

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        fact = [1] * p
        for i in range(1, p):
            fact[i] = fact[i - 1] * i % p
        inv_fact = [1] * p
        inv_fact[p - 1] = pow(fact[p - 1], p - 2, p)
        for i in range(p - 1, 0, -1):
            inv_fact[i - 1] = inv_fact[i] * i % p
        self.fact = fact
        self.inv_fact = inv_fact

    def binom(self, a: int, b: int) -> int:
        """C(a, b) mod p for 0 <= a < p; zero outside the valid range."""
        if b < 0 or a < 0 or b > a:
            return 0
        return self.fact[a] * self.inv_fact[b] % self.p * self.inv_fact[a - b] % self.p

    def falling(self, a: int, b: int) -> int:
        """a! / (a-b)! mod p; zero when b < 0 or b > a or a < 0."""
        if b < 0 or a < 0 or b > a:
            return 0
        return self.fact[a] * self.inv_fact[a - b] % self.p

    @cached_property
    def exp(self) -> np.ndarray:
        """``g^k mod p`` for k = 0..p-2."""
        g, out = primitive_root(self.p), [1] * (self.p - 1)
        for k in range(1, self.p - 1):
            out[k] = out[k - 1] * g % self.p
        return np.array(out, dtype=np.int64)

    @cached_property
    def log(self) -> np.ndarray:
        """The discrete log of x = 1..p-1 in [0, p-2], at index x."""
        out = np.zeros(self.p, dtype=np.int64)
        out[self.exp] = np.arange(self.p - 1)
        return out

    @cached_property
    def log_fact(self) -> np.ndarray:
        """``log(t!)`` for t = 0..p-1, in [0, p-2]."""
        return np.concatenate(([0], np.cumsum(self.log[1:]) % (self.p - 1)))

    @cached_property
    def log_inv_fact(self) -> np.ndarray:
        """``log(1/t!)`` for t = 0..p-1, in [0, p-2]."""
        return -self.log_fact % (self.p - 1)

    @staticmethod
    def log_dtype(largest: int) -> np.dtype:
        """The narrowest signed integer dtype that holds 0..largest;
        ValueError beyond int64."""
        dt = np.min_scalar_type(-largest - 1)
        if dt.kind != "i":
            raise ValueError(f"log sums up to {largest} overflow int64")
        return dt

    def zero_log(self, largest: int) -> int:
        """The sentinel log of a zero factor: the least multiple of p-1
        above ``largest``, the largest log sum without a zero factor."""
        return (largest // (self.p - 1) + 1) * (self.p - 1)

    def exp_sum(self, logs: np.ndarray, zero: int) -> int:
        """``sum(g^l for l in logs) mod p``, where an entry ``l >= zero``
        stands for a product with a zero factor and adds nothing.

        ``zero`` comes from ``zero_log``, ``logs`` is of a dtype that holds
        it, and no entry is negative.  ``bincount`` counts each sum, up to
        the largest (a few multiples of ``zero`` for every caller), a chunk
        of ``_COUNT_CHUNK`` entries at a time, and the counts below
        ``zero`` fold onto the exponents mod p-1.  The
        total is exact in int64: the folded counts and ``exp`` are below p,
        so each product is below p^2, and the p-1 products, each reduced
        below p again, sum below p^2.
        """
        m = self.p - 1
        logs = np.ravel(logs)
        counts = np.zeros(zero, dtype=np.int64)
        for i in range(0, logs.size, _COUNT_CHUNK):
            counts += np.bincount(logs[i:i + _COUNT_CHUNK], minlength=zero + 1)[:zero]
        folded = counts.reshape(-1, m).sum(axis=0)
        return int((folded % self.p * self.exp % self.p).sum() % self.p)


def lattice_sum(terms: list[np.ndarray], shape: tuple[int, ...]) -> np.ndarray:
    """The sum of ``terms`` over the whole lattice of ``shape``, summed group
    by group, for ``ModTables.exp_sum``.

    Each term is a scalar or a sparse array with one axis per lattice
    axis, and it spans the axes where its length is above 1.  Taken
    widest first, a term whose axes lie inside an earlier group's widest
    term joins that group, and otherwise opens one.  A group adds up its
    other members the same way, on their own sub-lattices, before it adds
    them to its widest term.  From the widest group on, each next group
    is the one that adds the fewest axes to the running sum, which is
    added into in place once it holds an array of its own, so few
    additions span the whole lattice.  An axis that no term spans still
    counts its length.  There is at least one term.
    """
    spans = [(sum(1 << i for i, s in enumerate(np.shape(t)) if s > 1), t) for t in terms]
    spans.sort(key=lambda at: at[0].bit_count(), reverse=True)
    return np.broadcast_to(_group_sum(spans), shape)


def _group_sum(spans: list[tuple[int, np.ndarray]]):
    """``lattice_sum`` of (axis bit mask, term) pairs sorted widest first."""
    groups: list[list[tuple[int, np.ndarray]]] = []
    for axes, t in spans:
        for group in groups:
            if not axes & ~group[0][0]:
                group.append((axes, t))
                break
        else:
            groups.append([(axes, t)])
    sums = [(axes, widest + _group_sum(rest) if rest else widest)
            for (axes, widest), *rest in groups]
    covered, total = sums.pop(0)
    owned = False   # whether `total` is an array made here, free to add into
    while sums:
        axes, term = sums.pop(min(range(len(sums)),
                                  key=lambda i: (covered | sums[i][0]).bit_count()))
        if owned and not axes & ~covered:
            total += term
        else:
            total, owned = total + term, True
        covered |= axes
    return total


# a table holds two lists of p ints (and up to four arrays of p), so keep
# only the latest few: enough for the 13 primes of a bound-41 sequence,
# while a long run over large primes holds 16 tables, not every one
@lru_cache(maxsize=16)
def mod_tables(p: int) -> ModTables:
    return ModTables(p)
