import signal
from contextlib import contextmanager
from importlib import resources

import pytest

from egperm.catalog import get_entry, load_expression
from egperm.expressions import eval_expr, format_expr, parse_expr
from egperm.graphs import block_spec
from egperm.numtheory import admissible_primes
from egperm.sequences import canonicalize_sign, sequence_from_row


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


def test_format_parse_round_trip():
    files = sorted(f.name for f in
                   (resources.files("egperm.data") / "expressions").iterdir()
                   if f.name.endswith(".expr"))
    assert len(files) == 22
    for name in files:
        entry = get_entry(name.removeprefix("completed_").removesuffix(".expr"))
        # a completed expression is indexed by the completed graph's calV
        calV = (block_spec(entry.completed_graph()).calV
                if name.startswith("completed_") else entry.calV)
        e = load_expression(name, calV=calV)
        e2 = parse_expr(format_expr(e), calV=calV)
        assert e2 == e, name
        for p in admissible_primes(calV, 37)[-2:]:
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


def test_variable_missing_from_every_binom_counts_its_range():
    # at p = 5, n = 2: sum over x0 of C(2, x0) is 4, and x1 takes 3 values
    e = parse_expr("SUM x0 x1 { BINOM(n, x0) } PREFACTOR fact(0)")
    assert eval_expr(e, 5) == 4 * 3 % 5
    e = parse_expr("SUM x0 x1 { SIGN x1; BINOM(n, x0) } PREFACTOR fact(0)")
    assert eval_expr(e, 5) == 4 * (1 - 1 + 1) % 5


def test_sum_without_variables_keeps_its_factors():
    e = parse_expr("SUM { SIGN n + 1; BINOM(n, 1)^3 } PREFACTOR fact(n)")
    assert eval_expr(e, 5) == -(2 ** 3) * 2 % 5


def test_negative_binom_power_rejected():
    with pytest.raises(ValueError, match="BINOM power"):
        parse_expr("SUM x0 { BINOM(n, x0)^-1 } PREFACTOR fact(0)")
    # a negative factorial power is a modular inverse, and stays valid
    e = parse_expr("SUM x0 { BINOM(n, x0) } PREFACTOR fact(n)^-1")
    assert eval_expr(e, 5) == 4 * pow(2, -1, 5) % 5
