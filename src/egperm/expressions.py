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
token out of place raises ``ValueError`` naming it.

Evaluation sums over the lattice of the variable ranges in the
discrete-log domain of F_p^*, as ``permanent.block_perm_mod`` does: each
lattice point holds the sum of the logs of its factors, and one histogram
of those sums gives the total (``ModTables.exp_sum``).  Each call builds
one log table with a segment per linear form that a factor reads, and
every factor is a lookup into it, indexed by its form on sparse grids
(``np.indices(..., sparse=True)``), so a lookup spans only its form's
variables.  ``numtheory.lattice_sum`` adds the lookups group by group on
their own sub-lattices, as it adds the rows of ``block_perm_mod``, so the
whole lattice sees one addition per group.  The sum runs over the whole
lattice, so a variable that no factor mentions still counts its range.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .numtheory import admissible_n, lattice_sum, mod_tables

__all__ = ["LinForm", "BinomFactor", "BinomialSumExpr", "parse_expr", "format_expr", "eval_expr"]

MAX_VARS = 5
# eval_expr holds about 2.2 bytes per lattice point at its peak on P_7_1 at
# p = 97 (one int16 log sum per point), and 12 when a form spans every
# variable (its int16 index, numpy's int64 copy of it and the int16 lookup),
# as in P_7_2 and P_6_1, so a lattice at the cap peaks near 75 MB
MAX_LATTICE = 6_000_000


@dataclass(frozen=True)
class LinForm:
    """sum(coeff * symbol) over ``terms``; the symbol "1" is the constant."""

    terms: tuple[tuple[str, int], ...] = ()

    def value(self, n: int, grids: dict[str, np.ndarray] | None = None):
        env = {"1": 1, "n": n, **(grids or {})}
        return sum(c * env[s] for s, c in self.terms)

    def __sub__(self, other: LinForm) -> LinForm:
        coeffs = dict(self.terms)
        for s, c in other.terms:
            coeffs[s] = coeffs.get(s, 0) - c
        return LinForm(tuple((s, c) for s, c in coeffs.items() if c))

    def is_fixed(self) -> bool:
        """True when no summation variable occurs."""
        return all(s in ("1", "n") for s, _ in self.terms)

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

    Each factor reads one log table, built once per call, at the values
    of linear forms.  ``BINOM(t, b)^k`` with a top free of summation
    variables reads ``k * log C(t, b)`` at b; any other reads ``k * log
    t!`` at t, ``k * log 1/b!`` at b and ``k * log 1/(t-b)!`` at t - b;
    the ``SIGN`` reads ``log(-1) = (p-1)/2`` at an odd value and 0 at an
    even one.  A form's segment of the table covers the form's values on
    the lattice, each entry reduced mod p-1, and a value that makes the
    binomial 0 (a bottom or t - b below 0, or a top past p-1) reads a
    sentinel above every sum of nonzero factors.  A ``^0`` factor reads
    nothing (``0^0 = 1``).  Each lookup's index is its segment's offset
    plus its form on the sparse grids, so it spans only the form's
    variables, and ``numtheory.lattice_sum`` adds the lookups up group by
    group before one histogram gives the total."""
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

    m = p - 1
    span = max(bound, 0)
    segments: list[np.ndarray] = []           # the table, in pieces
    places: list[tuple[int, list]] = []        # (fixed - lo, variable terms) of each

    def segment(form: LinForm, logs: np.ndarray | None, power: int = 1) -> None:
        # the segment over the form's values lo..hi on the lattice: power *
        # logs[v] mod p-1 at a value v, and -1 (the sentinel, once known)
        # where v is not an index of logs; or, with no logs, the sign's
        # (p-1)/2 at an odd value and 0 at an even one
        fixed, terms = 0, []
        for s, c in form.terms:
            if s in ("1", "n"):
                fixed += c * (n if s == "n" else 1)
            else:
                terms.append((s, c))
        lo = fixed + span * sum(c for _, c in terms if c < 0)
        hi = fixed + span * sum(c for _, c in terms if c > 0)
        if logs is None:
            values = np.arange(lo, hi + 1) % 2 * (m // 2)
        else:
            values = np.full(hi - lo + 1, -1)
            a, b = max(lo, 0), min(hi, len(logs) - 1)
            if a <= b:
                values[a - lo:b - lo + 1] = power * logs[a:b + 1] % m
        segments.append(values)
        places.append((fixed - lo, terms))

    for f in e.factors:
        if not f.power:
            continue
        if f.top.is_fixed():
            t = f.top.value(n)
            # log C(t, b) for b = 0..t
            segment(f.bottom, tb.log_fact[t] + tb.log_inv_fact[:t + 1] + tb.log_inv_fact[t::-1]
                    if 0 <= t < p else tb.log_fact[:0], f.power)
        else:
            segment(f.top, tb.log_fact, f.power)
            segment(f.bottom, tb.log_inv_fact, f.power)
            segment(f.top - f.bottom, tb.log_inv_fact, f.power)
    segment(e.sum_sign, None)
    # each lookup reads at most p-2 or the sentinel `zero`, so a sum
    # reaches `zero` iff a factor is 0, and no sum passes len(segments) * zero
    zero = tb.zero_log(len(segments) * (p - 2))
    table = np.concatenate(segments)
    table = np.where(table < 0, zero, table).astype(tb.log_dtype(len(segments) * zero))

    # an index and its partial sums lie in (-len(table), len(table))
    shape = (max(bound + 1, 0),) * k
    grids = dict(zip(e.variables, np.indices(
        shape, sparse=True, dtype=tb.log_dtype(max(len(table), span)))))
    lookups, start = [], 0
    for values, (offset, terms) in zip(segments, places):
        index = start + offset
        for s, c in terms:
            index = index + c * grids[s]
        lookups.append(table.take(index))
        start += len(values)
    return pref * tb.exp_sum(lattice_sum(lookups, shape), zero) % p
