import gc
import weakref

import numpy as np
import pytest

from egperm.numtheory import (ModTables, admissible_primes, is_prime, mod_tables,
                              primes_upto)


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43}
    for k in range(45):
        assert is_prime(k) == (k in primes)


def test_primes_upto():
    assert primes_upto(41) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41]


def test_admissible_primes_phi4():
    # calV = 2: all odd primes
    assert admissible_primes(2, 41) == [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41]
    # calV = 3: p = 3n + 1
    assert admissible_primes(3, 43) == [7, 13, 19, 31, 37, 43]
    # calV = 12: p = 12n + 1
    assert admissible_primes(12, 100) == [13, 37, 61, 73, 97]


def test_binom_out_of_range_is_zero():
    tb = mod_tables(13)
    assert tb.binom(5, -1) == 0
    assert tb.binom(5, 6) == 0
    assert tb.binom(5, 2) == 10
    assert tb.falling(5, 6) == 0
    assert tb.falling(5, 2) == 20 % 13


def test_wilson_complement_factorials():
    # for p = 2n+1: a! (p-1-a)! = (-1)^(a+1)  (mod p)
    for p in [3, 5, 7, 11, 13, 17, 101]:
        tb = mod_tables(p)
        for a in range(p):
            lhs = tb.fact[a] * tb.fact[p - 1 - a] % p
            assert lhs == (-1) ** (a + 1) % p


def test_wilson_central_square():
    # for p = 2n+1: (n!)^2 = (-1)^(n+1)  (mod p)
    for p in [3, 5, 7, 11, 13, 101]:
        n = (p - 1) // 2
        tb = mod_tables(p)
        assert tb.fact[n] ** 2 % p == (-1) ** (n + 1) % p


def test_mod_tables_requires_prime():
    with pytest.raises(ValueError):
        mod_tables(9)


def test_discrete_log_tables():
    for p in (2, 3, 13, 101):
        tb = mod_tables(p)
        assert sorted(tb.exp.tolist()) == list(range(1, p))  # g generates F_p^*
        for x in range(1, p):
            assert tb.exp[tb.log[x]] == x
        for t in range(p):
            assert tb.exp[tb.log_fact[t]] == tb.fact[t]
            assert tb.exp[tb.log_inv_fact[t]] == tb.inv_fact[t]


def test_exp_sum_counts_zero_sentinel_as_nothing():
    tb = mod_tables(7)
    # the sentinel is the least multiple of p - 1 above the largest sum
    assert (tb.zero_log(0), tb.zero_log(11), tb.zero_log(12)) == (6, 12, 18)
    # logs 0, 1, 7 (= 1 mod 6) and the sentinel 12: 1 + 3 + 3 + 0
    logs = np.array([0, 1, 7, 12, 30], dtype=np.int8)
    assert tb.exp_sum(logs, 12) == (1 + 3 + 3) % 7


def test_log_dtype_is_narrowest_signed():
    assert [ModTables.log_dtype(x) for x in (0, 127, 128, 2 ** 15, 2 ** 31)] == [
        np.int8, np.int8, np.int16, np.int32, np.int64]
    with pytest.raises(ValueError):
        ModTables.log_dtype(2 ** 63)


def test_mod_tables_keeps_a_bounded_set_of_tables():
    # a sweep over many primes leaves only the latest few tables alive ...
    mod_tables.cache_clear()
    refs = [weakref.ref(mod_tables(p)) for p in primes_upto(1000)]
    gc.collect()
    assert sum(r() is not None for r in refs) <= 16
    # ... while a bound-41 sequence rerun finds all of its 13 tables
    mod_tables.cache_clear()
    for _ in range(2):
        for p in primes_upto(41):
            mod_tables(p)
    info = mod_tables.cache_info()
    assert (info.hits, info.misses) == (13, 13)
    mod_tables.cache_clear()
