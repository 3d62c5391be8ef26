import signal
from contextlib import contextmanager
from importlib import resources

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from egperm.catalog import get_entry, load_expression
from egperm.expressions import (
    MAX_LATTICE, BinomFactor, BinomialSumExpr, LinForm, eval_expr, format_expr, parse_expr,
)
from egperm.graphs import block_spec
from egperm.numtheory import admissible_primes
from egperm.sequences import canonicalize_sign, sequence_from_row
from oracles import eval_expr_brute


@contextmanager
def deadline(seconds: int):
    """Fail with TimeoutError if the block runs longer than ``seconds``."""
    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_completed_one_loop_values():
    e = load_expression("completed_P_1_1.expr", calV=3)
    expected = {7: 6, 13: 5, 19: 12, 31: 27, 37: 11, 43: 8}
    for p, v in expected.items():
        assert eval_expr(e, p) == v


def test_completed_three_loop_values():
    e = load_expression("completed_P_3_1.expr", calV=5)
    expected = {11: 1, 31: 6, 41: 3}
    for p, v in expected.items():
        assert eval_expr(e, p) == v


def test_decompletion_expression_matches_stored_row():
    entry = get_entry("P_3_1")
    e = load_expression(entry.expression_file, calV=entry.calV)
    row = {p: eval_expr(e, p) for p in entry.row}
    seq = canonicalize_sign(
        sequence_from_row("expr", entry.calV, entry.calE, row))
    assert seq.residues() == entry.row_sequence().residues()


def stored_expressions():
    """(file name, expression) for all 22 stored expression files."""
    files = sorted(f.name for f in
                   (resources.files("egperm.data") / "expressions").iterdir()
                   if f.name.endswith(".expr"))
    assert len(files) == 22
    for name in files:
        entry = get_entry(name.removeprefix("completed_").removesuffix(".expr"))
        # a completed expression is indexed by the completed graph's calV
        calV = (block_spec(entry.completed_graph()).calV
                if name.startswith("completed_") else entry.calV)
        yield name, load_expression(name, calV=calV)


def test_format_parse_round_trip():
    for name, e in stored_expressions():
        e2 = parse_expr(format_expr(e), calV=e.calV)
        assert e2 == e, name
        for p in admissible_primes(e.calV, 37)[-2:]:
            assert eval_expr(e, p) == eval_expr(e2, p), (name, p)


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_expr("SUM { SIGN")
    with pytest.raises(ValueError):
        parse_expr("hello world")


@pytest.mark.parametrize("text", [
    "SUM x0 { BINOM(n, *) } PREFACTOR fact(0)",
    "SUM x0 { BINOM(n x0, x0) } PREFACTOR fact(0)",
    "SUM x0 { BINOM(n, x0) } PREFACTOR SIGN(x0)",
    "SUM n { BINOM(n, n) } PREFACTOR fact(0)",
    "SUM x0 x0 { BINOM(n, x0) } PREFACTOR fact(0)",
    "SUM x0 BINOM",
])
def test_malformed_expression_raises_promptly(text):
    with deadline(1), pytest.raises(ValueError):
        parse_expr(text)


def test_range_may_precede_the_factorials():
    with deadline(1):
        e = parse_expr("SUM x0 { BINOM(n, x0) } PREFACTOR RANGE n fact(2n)")
        twin = parse_expr("SUM x0 { BINOM(n, x0) } PREFACTOR fact(2n) RANGE n")
        assert e == twin
        for p in (5, 7, 11):
            assert eval_expr(e, p) == eval_expr(twin, p)


def test_undeclared_variable_rejected():
    for text in ("SUM x0 { BINOM(n, x9) } PREFACTOR fact(0)",
                 "SUM x0 { SIGN x9; BINOM(n, x0) } PREFACTOR fact(0)"):
        with pytest.raises(ValueError, match="'x9'"):
            parse_expr(text)


def test_inadmissible_prime_rejected():
    e = load_expression("completed_P_1_1.expr", calV=3)
    with pytest.raises(ValueError):
        eval_expr(e, 5)  # 5 - 1 is not a multiple of 3


def test_lattice_just_over_the_cap_rejected():
    # P_6_1 sums three variables over 0..n: the first prime whose (n+1)^3
    # passes the cap is refused before any array is built
    e = load_expression("P_6_1.expr")
    primes = admissible_primes(2, 2 * round(MAX_LATTICE ** (1 / 3)) + 100)
    size = {p: ((p - 1) // 2 + 1) ** 3 for p in primes}
    over = min(p for p in primes if size[p] > MAX_LATTICE)
    assert size[max(p for p in primes if p < over)] <= MAX_LATTICE
    with pytest.raises(ValueError, match=f"MAX_LATTICE = {MAX_LATTICE}"):
        eval_expr(e, over)


def test_variable_missing_from_every_binom_counts_its_range():
    # at p = 5, n = 2: sum over x0 of C(2, x0) is 4, and x1 takes 3 values
    e = parse_expr("SUM x0 x1 { BINOM(n, x0) } PREFACTOR fact(0)")
    assert eval_expr(e, 5) == 4 * 3 % 5
    e = parse_expr("SUM x0 x1 { SIGN x1; BINOM(n, x0) } PREFACTOR fact(0)")
    assert eval_expr(e, 5) == 4 * (1 - 1 + 1) % 5


def test_sum_without_variables_keeps_its_factors():
    e = parse_expr("SUM { SIGN n + 1; BINOM(n, 1)^3 } PREFACTOR fact(n)")
    assert eval_expr(e, 5) == -(2 ** 3) * 2 % 5


def test_sum_without_factors_at_a_large_prime():
    # no factor: the sentinel, 130 at p = 131, still fits the sums' dtype
    e = parse_expr("SUM x0 { SIGN x0; } PREFACTOR fact(0) RANGE n + 1")
    assert eval_expr(e, 131) == 1


def test_negative_binom_power_rejected():
    with pytest.raises(ValueError, match="BINOM power"):
        parse_expr("SUM x0 { BINOM(n, x0)^-1 } PREFACTOR fact(0)")
    # a negative factorial power is a modular inverse, and stays valid
    e = parse_expr("SUM x0 { BINOM(n, x0) } PREFACTOR fact(n)^-1")
    assert eval_expr(e, 5) == 4 * pow(2, -1, 5) % 5


def test_stored_expressions_match_brute_force():
    # the log-domain lattice sum against a term-by-term sum, at small primes
    for name, e in stored_expressions():
        for p in admissible_primes(e.calV, 31)[:3]:
            assert eval_expr(e, p) == eval_expr_brute(e, p), (name, p)


@pytest.mark.parametrize("text", [
    # a ^0 factor is 1 even where its binomial is out of range
    "SUM x0 x1 { BINOM(n, x0)^0 * BINOM(n - 1, x1 + 2)^0 * BINOM(n, x0 + x1) } PREFACTOR fact(0)",
    # out-of-range binomials: negative bottom, bottom above top, top >= p
    "SUM x0 x1 { BINOM(n, x0 - 1) * BINOM(x0 + x1, x1)^2 } PREFACTOR fact(n) RANGE 2n",
    # signs under the sum and outside it, with a negative factorial power
    "SUM x0 x1 { SIGN x0 + 3 x1 + n; BINOM(2n, x0 + x1)^3 * BINOM(n, x1) } "
    "PREFACTOR fact(n)^-2 SIGN(n + 1) RANGE 2n",
    "SUM { SIGN n; } PREFACTOR fact(n)",
    # tops without variables, tabulated over their bottoms: bottoms that
    # run negative and past the top, and tops that reach p when calV = 1
    "SUM x0 x1 { BINOM(2n, 2n - x0 - 2 x1) * BINOM(n + 1, x0 - x1 + 1)^2 } "
    "PREFACTOR fact(n) RANGE n + 1",
])
def test_hand_written_expressions_match_brute_force(text):
    for calV in (1, 2, 3):
        e = parse_expr(text, calV=calV)
        for p in admissible_primes(calV, 23):
            assert eval_expr(e, p) == eval_expr_brute(e, p), (calV, p)


@st.composite
def small_exprs(draw):
    """A random closed form and an admissible prime small enough for
    ``eval_expr_brute``: 0-3 variables, forms with coefficients -2..2 on
    1, n and each variable, powers 0-3, fixed and variable tops, a sign,
    a prefactor and a range, calV 1-3 and p <= 23."""
    names = tuple(f"x{i}" for i in range(draw(st.integers(0, 3))))
    coeff = st.integers(-2, 2)

    def form(symbols):
        return LinForm(tuple((s, c) for s in symbols if (c := draw(coeff))))

    factors = []
    for _ in range(draw(st.integers(0, 4))):
        top = form(("1", "n", *names) if draw(st.booleans()) else ("1", "n"))
        factors.append(BinomFactor(top, form(("1", "n", *names)), draw(st.integers(0, 3))))
    range_bound = draw(st.sampled_from([LinForm((("n", 1),)), LinForm((("n", 1), ("1", -1))),
                                        *(LinForm((("1", c),)) for c in (-1, 1, 2, 3))]))
    calV = draw(st.integers(1, 3))
    e = BinomialSumExpr(names, form(("1", "n", *names)), tuple(factors),
                        ((LinForm((("n", 1),)), draw(st.integers(-1, 1))),),
                        form(("1", "n")), range_bound, calV)
    # at most 13^3 lattice points for the term-by-term oracle
    primes = admissible_primes(calV, 23 if len(names) < 3 else 13)
    return e, draw(st.sampled_from(primes))


@settings(max_examples=150, deadline=None)
@given(small_exprs())
# a factor with no variable
@example((parse_expr("SUM x0 { BINOM(n, 2)^2 * BINOM(n + 1, x0) } PREFACTOR fact(0)"), 11))
# two factors over the same variables, one with a variable top
@example((parse_expr("SUM x0 x1 { SIGN x0 + x1; BINOM(n, x0 + x1) * BINOM(2n - x0, x1 - x0)^2 } "
                     "PREFACTOR fact(n)", calV=3), 13))
# a variable that no factor mentions, and one that only the sign does
@example((parse_expr("SUM x0 x1 x2 { SIGN x0; BINOM(n, x1)^3 } PREFACTOR fact(n)^-1 RANGE n - 1"),
          13))
def test_random_expressions_match_brute_force(case):
    e, p = case
    assert eval_expr(e, p) == eval_expr_brute(e, p), (format_expr(e), p)
