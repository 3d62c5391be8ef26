"""Binomial-sum closed forms: a small expression grammar and evaluator.

Closed forms for graph-permanent residues are nested sums of products of
binomial coefficients whose arguments are integer linear forms in ``n``
(with ``p = calV*n + 1``) and the summation variables, together with a
factorial prefactor and a global (-1)^(linear form) sign.  The text
grammar is::

    SUM x0 x1 { SIGN x0 + x1; BINOM(n, x0)^3 * BINOM(2n - x0, x1) }
    PREFACTOR fact(2n)^6 SIGN(n) RANGE n

* ``SUM`` lists the summation variables (may be empty);
* an optional leading ``SIGN <linform>;`` inside the braces is the
  exponent of -1 under the sum;
* ``BINOM(a, b)^k`` factors (k >= 0) multiply inside the sum; out-of-range
  binomials evaluate to zero, which implements the summation bounds;
* ``PREFACTOR`` collects ``fact(<linform>)^<int>`` powers (negative
  exponents use modular inverses) and an optional constant ``SIGN(<linform>)``;
* ``RANGE <linform>`` is the inclusive upper bound of every variable
  (default ``n``).

Linear forms are sums of terms ``[int]``, ``[int]n``, ``[int]<var>``,
e.g. ``2n - x0 - x1 + 1``.  Evaluation is a dense numpy lattice over the
variable ranges (``np.indices``) with all arithmetic mod p: each binomial
is raised to its power by a lookup in ``ModTables.powers``, the sign
multiplies the term, and the term is summed over the whole lattice, so a
variable that no factor mentions still counts its range.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from .numtheory import admissible_n, mod_tables

__all__ = ["LinForm", "BinomFactor", "BinomialSumExpr", "parse_expr", "format_expr", "eval_expr"]

MAX_VARS = 5
MAX_LATTICE = 80_000_000


@dataclass(frozen=True)
class LinForm:
    """constant + n_coeff * n + sum(var_coeffs[v] * x_v)."""

    constant: int = 0
    n_coeff: int = 0
    var_coeffs: tuple[tuple[str, int], ...] = ()

    def __str__(self) -> str:
        parts = []
        if self.n_coeff:
            parts.append(_term_str(self.n_coeff, "n"))
        for v, c in self.var_coeffs:
            parts.append(_term_str(c, v))
        if self.constant or not parts:
            parts.append(_term_str(self.constant, ""))
        out = parts[0] + "".join(
            f" - {t[1:]}" if t.startswith("-") else f" + {t}" for t in parts[1:])
        return out


def _term_str(c: int, sym: str) -> str:
    if not sym:
        return str(c)
    if c == 1:
        return sym
    if c == -1:
        return "-" + sym
    return f"{c}{sym}"


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
    range_bound: LinForm = field(default_factory=lambda: LinForm(n_coeff=1))
    calV: int = 2                  # primes are p = calV*n + 1


_TOKEN = re.compile(r"\s*([A-Za-z_][A-Za-z_0-9]*|\d+|[{}();,*^+-])")


def _tokenize(text: str) -> list[str]:
    out, pos = [], 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ValueError(f"bad expression syntax near {text[pos:pos+20]!r}")
        out.append(m.group(1))
        pos = m.end()
    return out


class _Parser:
    def __init__(self, tokens: list[str]):
        self.toks = tokens
        self.i = 0

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else None

    def take(self, expected=None):
        tok = self.peek()
        if tok is None or (expected is not None and tok != expected):
            raise ValueError(f"expected {expected!r}, got {tok!r}")
        self.i += 1
        return tok

    def integer(self) -> int:
        sign = 1
        while self.peek() in ("+", "-"):
            if self.take() == "-":
                sign = -sign
        return sign * int(self.take())

    def linform(self, stop: tuple[str, ...]) -> LinForm:
        const, ncoef = 0, 0
        var_coeffs: dict[str, int] = {}
        sign = 1
        expect_term = True
        while True:
            tok = self.peek()
            if tok is None or (tok in stop and not expect_term):
                break
            if tok == "+":
                self.take()
                expect_term = True
                continue
            if tok == "-":
                self.take()
                sign = -sign
                expect_term = True
                continue
            coeff = 1
            if tok is not None and tok.isdigit():
                coeff = int(self.take())
                tok = self.peek()
            name = None
            if tok is not None and re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*", tok or ""):
                name = self.take()
            if name == "n":
                ncoef += sign * coeff
            elif name is not None:
                var_coeffs[name] = var_coeffs.get(name, 0) + sign * coeff
            else:
                const += sign * coeff
            sign = 1
            expect_term = False
        return LinForm(const, ncoef,
                       tuple((v, c) for v, c in var_coeffs.items() if c))


def parse_expr(text: str, calV: int = 2) -> BinomialSumExpr:
    text = "\n".join(line.split("#", 1)[0] for line in text.splitlines())
    p = _Parser(_tokenize(text))
    p.take("SUM")
    variables = []
    while p.peek() != "{":
        variables.append(p.take())
    p.take("{")
    sum_sign = LinForm()
    factors = []
    if p.peek() == "SIGN":
        p.take()
        sum_sign = p.linform(stop=(";",))
        p.take(";")
    while p.peek() != "}":
        if p.peek() == "*":
            p.take()
            continue
        p.take("BINOM")
        p.take("(")
        top = p.linform(stop=(",",))
        p.take(",")
        bottom = p.linform(stop=(")",))
        p.take(")")
        power = 1
        if p.peek() == "^":
            p.take()
            power = p.integer()
        if power < 0:
            raise ValueError(f"BINOM power {power} is negative; a zero binomial has no inverse")
        factors.append(BinomFactor(top, bottom, power))
    p.take("}")
    for form in [sum_sign] + [lf for f in factors for lf in (f.top, f.bottom)]:
        for v, _ in form.var_coeffs:
            if v not in variables:
                raise ValueError(f"variable {v!r} in the sum is not declared by SUM")
    p.take("PREFACTOR")
    fact_powers = []
    prefactor_sign = LinForm()
    range_bound = LinForm(n_coeff=1)
    while p.peek() is not None:
        tok = p.take()
        if tok == "fact":
            p.take("(")
            arg = p.linform(stop=(")",))
            p.take(")")
            power = 1
            if p.peek() == "^":
                p.take()
                power = p.integer()
            fact_powers.append((arg, power))
        elif tok == "SIGN":
            p.take("(")
            prefactor_sign = p.linform(stop=(")",))
            p.take(")")
        elif tok == "RANGE":
            range_bound = p.linform(stop=())
        else:
            raise ValueError(f"unexpected token {tok!r} in prefactor")
    return BinomialSumExpr(tuple(variables), sum_sign, tuple(factors),
                           tuple(fact_powers), prefactor_sign, range_bound, calV)


def format_expr(e: BinomialSumExpr) -> str:
    inner = []
    if e.sum_sign != LinForm():
        inner.append(f"SIGN {e.sum_sign};")
    inner.append(" * ".join(
        f"BINOM({f.top}, {f.bottom})" + (f"^{f.power}" if f.power != 1 else "")
        for f in e.factors))
    pre = " ".join(
        f"fact({arg})" + (f"^{power}" if power != 1 else "")
        for arg, power in e.fact_powers)
    if e.prefactor_sign != LinForm():
        pre += f" SIGN({e.prefactor_sign})"
    if e.range_bound != LinForm(n_coeff=1):
        pre += f" RANGE {e.range_bound}"
    return (f"SUM {' '.join(e.variables)} {{ {' '.join(inner)} }} "
            f"PREFACTOR {pre}").replace("{  ", "{ ")


def _eval_linform(lf: LinForm, n: int, grids: dict[str, np.ndarray]):
    out = lf.constant + lf.n_coeff * n
    arr = None
    for v, c in lf.var_coeffs:
        term = c * grids[v]
        arr = term if arr is None else arr + term
    return out if arr is None else arr + out


def eval_expr(e: BinomialSumExpr, p: int) -> int:
    """Residue of the closed form at prime p = calV*n + 1."""
    n = admissible_n(e.calV, p)
    if len(e.variables) > MAX_VARS:
        raise ValueError(f"too many summation variables ({len(e.variables)} > {MAX_VARS})")
    tb = mod_tables(p)

    bound = e.range_bound.constant + e.range_bound.n_coeff * n
    if e.range_bound.var_coeffs:
        raise ValueError("range bound may only depend on n")
    k = len(e.variables)
    if k and (bound + 1) ** k > MAX_LATTICE:
        raise ValueError(f"lattice ({bound + 1})^{k} exceeds cap {MAX_LATTICE}")

    # prefactor
    pref = 1
    for arg, power in e.fact_powers:
        a = arg.constant + arg.n_coeff * n
        if arg.var_coeffs:
            raise ValueError("prefactor factorial may only depend on n")
        if not (0 <= a < p):
            raise ValueError(f"prefactor factorial argument {a} outside [0, p)")
        f = tb.fact[a]
        if power < 0:
            f = tb.inv_fact[a]
            power = -power
        pref = pref * pow(f, power, p) % p
    sgn = _eval_linform(e.prefactor_sign, n, {})
    if sgn % 2:
        pref = (-pref) % p

    shape = (max(bound + 1, 0),) * k
    grids = dict(zip(e.variables, np.indices(shape, sparse=True)))

    # binomial lookup with out-of-range arguments giving zero
    fact_t = np.array(tb.fact, dtype=np.int64)
    ifact_t = np.array(tb.inv_fact, dtype=np.int64)

    def binom_arr(top, bot):
        t = np.broadcast_to(np.asarray(top), np.broadcast_shapes(
            np.shape(top), np.shape(bot)))
        b = np.broadcast_to(np.asarray(bot), t.shape)
        ok = (b >= 0) & (t >= 0) & (b <= t) & (t < p)
        ts = np.where(ok, t, 0)
        bs = np.where(ok, b, 0)
        val = fact_t[ts] * ifact_t[bs] % p * ifact_t[ts - bs] % p
        return np.where(ok, val, 0)

    term = 1
    for f in e.factors:
        top = _eval_linform(f.top, n, grids)
        bot = _eval_linform(f.bottom, n, grids)
        term = term * tb.powers(f.power)[binom_arr(top, bot)] % p
    # every entry is in (-p, p), so the int64 sum is exact under MAX_LATTICE
    term = term * (1 - 2 * (_eval_linform(e.sum_sign, n, grids) % 2))
    total = int(np.broadcast_to(term, shape).sum() % p)
    return pref * total % p
