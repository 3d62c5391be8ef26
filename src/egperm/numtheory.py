"""Primes, factorial tables modulo p, and small Wilson-style helpers."""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = [
    "is_prime",
    "primes_upto",
    "admissible_primes",
    "admissible_n",
    "check_bound",
    "ModTables",
]

# largest prime bound of a graph-permanent sequence: each residue costs a
# polynomial in p whose degree grows with the graph, so a larger bound
# cannot finish; point counts, at one prime, are not capped
BOUND_CAP = 10_000
# largest prime bound of `egp closed-form`: the wheel closed form and the
# factorial table cost O(p) per prime, so a run grows like
# bound^2 / log(bound); wheel(5) takes about 3 s at this bound on a 2-CPU
# machine (stored expressions are bounded by their lattice cap instead)
CLOSED_FORM_CAP = 10_000


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


def admissible_n(calV: int, p: int) -> int:
    """The n with ``p = n*calV + 1``; ValueError if p is not admissible."""
    if (p - 1) % calV != 0 or p <= calV:
        raise ValueError(f"prime {p} is not admissible for calV={calV}")
    return (p - 1) // calV


class ModTables:
    """Factorials, inverse factorials, binomials, falling factorials and
    power tables mod p."""

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

    def powers(self, k: int) -> np.ndarray:
        """int64 array of ``pow(x, k, p)`` for x = 0..p-1; index it with an
        array of residues to raise every entry to the power k."""
        return np.array([pow(x, k, self.p) for x in range(self.p)], dtype=np.int64)


@lru_cache(maxsize=128)
def mod_tables(p: int) -> ModTables:
    return ModTables(p)
