"""Binomial-sum closed forms: a small expression grammar and evaluator.

Closed forms for graph-permanent residues are sums of products of
binomial coefficients whose arguments are integer linear forms in ``n``
(with ``p = calV*n + 1``) and the summation variables, times a factorial
prefactor and a (-1)^(linear form) sign.  The text grammar is::

    SUM x0 x1 { SIGN x0 + x1; BINOM(n, x0)^3 * BINOM(2n - x0, x1) }
    PREFACTOR fact(2n)^6 SIGN(n) RANGE n

* ``SUM`` declares the summation variables, distinct names other than
  ``n`` (possibly none);
* an optional ``SIGN <linform>;`` opens the braces: the exponent of -1
  under the sum;
* ``BINOM(a, b)^k`` factors (k >= 0) joined by ``*`` multiply under the
  sum; an out-of-range binomial is zero, which bounds the sum;
* ``PREFACTOR`` takes, in any order, ``fact(<linform>)^<int>`` powers (a
  negative power is a modular inverse), a ``SIGN(<linform>)`` and
  ``RANGE <linform>``, the inclusive upper bound of every variable
  (default ``n``); these use no name but ``n``.

A linear form is terms joined by ``+`` or ``-``, after an optional ``-``;
a term is an optional integer and an optional name, at least one of the
two, e.g. ``2n - x0 - x1 + 1``.  Each parser step takes a token, and a
token out of place raises ``ValueError`` naming it.  Evaluation is a
dense numpy lattice over the variable ranges (``np.indices``), summed in
the discrete-log domain of F_p^* as ``permanent.block_perm_mod`` is: each
lattice point holds the sum of the logs of its factors, and one histogram
of those sums gives the total (``ModTables.exp_sum``).  The sum runs over
the whole lattice, so a variable that no factor mentions still counts its
range.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .numtheory import admissible_n, mod_tables

__all__ = ["LinForm", "BinomFactor", "BinomialSumExpr", "parse_expr", "format_expr", "eval_expr"]

MAX_VARS = 5
# eval_expr holds about 41 bytes per lattice point at its peak (int64 tops
# and bottoms, their masks and the log sums), so a lattice at the cap peaks
# near 270 MB
MAX_LATTICE = 6_000_000


@dataclass(frozen=True)
class LinForm:
    """sum(coeff * symbol) over ``terms``; the symbol "1" is the constant."""

    terms: tuple[tuple[str, int], ...] = ()

    def value(self, n: int, grids: dict[str, np.ndarray] | None = None):
        env = {"1": 1, "n": n, **(grids or {})}
        return sum(c * env[s] for s, c in self.terms)

    def is_fixed(self) -> bool:
        """True when no summation variable occurs."""
        return all(s in ("1", "n") for s, _ in self.terms)

    def extent(self, n: int, bound: int) -> tuple[int, int]:
        """Least and greatest value with every variable in 0..bound."""
        variables = [(s, c) for s, c in self.terms if s not in ("1", "n")]
        fixed = self.value(n, {s: 0 for s, _ in variables})
        return (fixed + bound * sum(min(c, 0) for _, c in variables),
                fixed + bound * sum(max(c, 0) for _, c in variables))

    def __str__(self) -> str:
        out = ""
        for s, c in self.terms:
            mag = str(abs(c)) if s == "1" or abs(c) != 1 else ""
            out += (" - " if c < 0 else " + ") + mag + ("" if s == "1" else s)
        if not out:
            return "0"
        return out[3:] if out.startswith(" + ") else "-" + out[3:]


_N = LinForm((("n", 1),))


@dataclass(frozen=True)
class BinomFactor:
    top: LinForm
    bottom: LinForm
    power: int = 1


@dataclass(frozen=True)
class BinomialSumExpr:
    variables: tuple[str, ...]
    sum_sign: LinForm              # exponent of (-1) under the sum
    factors: tuple[BinomFactor, ...]
    fact_powers: tuple[tuple[LinForm, int], ...]   # prefactor factorials
    prefactor_sign: LinForm        # constant (-1)^(linform) outside the sum
    range_bound: LinForm = _N
    calV: int = 2                  # primes are p = calV*n + 1


_NAME = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
# any other character is a token of its own, which the parser rejects by name
_TOKEN = re.compile(rf"{_NAME.pattern}|[0-9]+|\S")


def _shown(tok: str | None) -> str:
    return "end of input" if tok is None else repr(tok)


class _Parser:
    def __init__(self, text: str):
        self.toks = _TOKEN.findall(re.sub("#.*", "", text))
        self.i = 0

    def peek(self) -> str | None:
        return self.toks[self.i] if self.i < len(self.toks) else None

    def take(self) -> str | None:
        tok = self.peek()
        self.i += 1
        return tok

    def accept(self, tok: str) -> bool:
        found = self.peek() == tok
        self.i += found
        return found

    def expect(self, tok: str) -> None:
        if not self.accept(tok):
            raise ValueError(f"expected {tok!r}, got {_shown(self.peek())}")

    def power(self) -> int:
        """``^<int>`` if it comes next, else 1."""
        if not self.accept("^"):
            return 1
        sign = -1 if self.accept("-") else 1
        tok = self.take()
        if tok is None or not tok.isdigit():
            raise ValueError(f"expected an integer, got {_shown(tok)}")
        return sign * int(tok)

    def linform(self, names: tuple[str, ...]) -> LinForm:
        """A linear form over the integers and ``names``."""
        coeffs: dict[str, int] = {}
        sign = -1 if self.accept("-") else 1
        while True:
            tok = self.peek()
            if tok is not None and tok.isdigit():
                coeff = int(self.take())
                sym = self.take() if self.peek() in names else "1"
            elif tok in names:
                coeff, sym = 1, self.take()
            else:
                raise ValueError(f"expected an integer or one of "
                                 f"{', '.join(names)}, got {_shown(tok)}")
            coeffs[sym] = coeffs.get(sym, 0) + sign * coeff
            if self.peek() not in ("+", "-"):
                return LinForm(tuple((s, c) for s, c in coeffs.items() if c))
            sign = 1 if self.take() == "+" else -1

    def binom(self, names: tuple[str, ...]) -> BinomFactor:
        self.expect("BINOM")
        self.expect("(")
        top = self.linform(names)
        self.expect(",")
        bottom = self.linform(names)
        self.expect(")")
        power = self.power()
        if power < 0:
            raise ValueError(f"BINOM power {power} is negative; a zero binomial has no inverse")
        return BinomFactor(top, bottom, power)


def parse_expr(text: str, calV: int = 2) -> BinomialSumExpr:
    p = _Parser(text)
    p.expect("SUM")
    variables: list[str] = []
    while not p.accept("{"):
        v = p.take()
        if v is None or not _NAME.fullmatch(v) or v == "n" or v in variables:
            raise ValueError("SUM declares distinct names other than n, "
                             f"then '{{'; got {_shown(v)}")
        variables.append(v)
    names = ("n", *variables)
    sum_sign = LinForm()
    if p.accept("SIGN"):
        sum_sign = p.linform(names)
        p.expect(";")
    factors = [] if p.peek() == "}" else [p.binom(names)]
    while p.accept("*"):
        factors.append(p.binom(names))
    p.expect("}")
    p.expect("PREFACTOR")
    fact_powers = []
    prefactor_sign = LinForm()
    range_bound = _N
    while (tok := p.take()) is not None:
        if tok == "RANGE":
            range_bound = p.linform(("n",))
        elif tok in ("fact", "SIGN"):
            p.expect("(")
            arg = p.linform(("n",))
            p.expect(")")
            if tok == "SIGN":
                prefactor_sign = arg
            else:
                fact_powers.append((arg, p.power()))
        else:
            raise ValueError(f"unexpected token {tok!r} in prefactor")
    return BinomialSumExpr(tuple(variables), sum_sign, tuple(factors),
                           tuple(fact_powers), prefactor_sign, range_bound, calV)


def _power(text: str, k: int) -> str:
    return text if k == 1 else f"{text}^{k}"


def format_expr(e: BinomialSumExpr) -> str:
    sign = [f"SIGN {e.sum_sign};"] if e.sum_sign.terms else []
    body = " * ".join(_power(f"BINOM({f.top}, {f.bottom})", f.power)
                      for f in e.factors)
    pre = [_power(f"fact({arg})", k) for arg, k in e.fact_powers]
    if e.prefactor_sign.terms:
        pre.append(f"SIGN({e.prefactor_sign})")
    if e.range_bound != _N:
        pre.append(f"RANGE {e.range_bound}")
    return " ".join(["SUM", *e.variables, "{", *sign, body, "}", "PREFACTOR", *pre])


def eval_expr(e: BinomialSumExpr, p: int) -> int:
    """Residue of the closed form at prime p = calV*n + 1.

    Each ``BINOM(t, b)^k`` adds ``k * (log t! + log 1/b! + log 1/(t-b)!)``
    from the cached ``ModTables.log_fact`` and ``log_inv_fact`` arrays, and
    an odd ``SIGN`` adds ``log(-1) = (p-1)/2``.  An out-of-range binomial
    adds a sentinel above every sum of nonzero factors, unless k = 0
    (``0^0 = 1``).  A factor whose top has no summation variable (as in
    every stored expression) is tabulated once over the range of its
    bottom and looked up at each point.  The sums live in the narrowest
    signed dtype that holds them."""
    n = admissible_n(e.calV, p)
    if len(e.variables) > MAX_VARS:
        raise ValueError(f"too many summation variables ({len(e.variables)} > {MAX_VARS})")
    bound = e.range_bound.value(n)
    k = len(e.variables)
    if k and (bound + 1) ** k > MAX_LATTICE:
        raise ValueError(f"lattice ({bound + 1})^{k} exceeds cap MAX_LATTICE = {MAX_LATTICE}")
    tb = mod_tables(p)

    pref = 1
    for arg, power in e.fact_powers:
        a = arg.value(n)
        if not (0 <= a < p):
            raise ValueError(f"prefactor factorial argument {a} outside [0, p)")
        f = tb.fact[a] if power >= 0 else tb.inv_fact[a]
        pref = pref * pow(f, abs(power), p) % p
    pref = pref * (1 - 2 * (e.prefactor_sign.value(n) % 2)) % p

    shape = (max(bound + 1, 0),) * k
    grids = dict(zip(e.variables, np.indices(shape, sparse=True)))
    factors = [f for f in e.factors if f.power]  # BINOM(...)^0 is 1, even out of range
    m = p - 1
    # each factor adds power * three logs in [0, p-2], the sign adds (p-1)/2
    # (the log of -1); an out-of-range binomial adds `zero` instead, so a
    # sum reaches `zero` iff a factor is 0, and every sum, like `zero`
    # itself, is at most (len(factors) + 1) * zero
    zero = tb.zero_log(3 * (p - 2) * sum(f.power for f in factors) + m // 2)
    dt = tb.log_dtype((len(factors) + 1) * zero)
    log_fact, log_inv_fact = tb.log_fact.astype(dt), tb.log_inv_fact.astype(dt)

    def binom_logs(t, b, power: int) -> np.ndarray:
        t, b = np.broadcast_arrays(t, b)
        ok = (0 <= b) & (b <= t) & (t < p)
        t, b = t * ok, b * ok
        log_binom = log_fact[t] + log_inv_fact[b] + log_inv_fact[t - b]
        return np.where(ok, power * log_binom, zero)

    logs = np.zeros((), dtype=dt)
    for f in factors:
        if f.top.is_fixed():
            # one top t over the whole lattice: tabulate the factor over the
            # bottom's values lo..hi once, and look each point up there
            lo, hi = f.bottom.extent(n, max(bound, 0))
            table = binom_logs(f.top.value(n), np.arange(lo, hi + 1), f.power)
            logs = logs + table[f.bottom.value(n, grids) - lo]
        else:
            logs = logs + binom_logs(f.top.value(n, grids), f.bottom.value(n, grids),
                                     f.power)
    sign = np.asarray(e.sum_sign.value(n, grids)) % 2
    logs = logs + (sign * (m // 2)).astype(dt)
    return pref * tb.exp_sum(np.broadcast_to(logs, shape), zero) % p
