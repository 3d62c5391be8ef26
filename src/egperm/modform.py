"""Comparing graph-permanent sequences with modular form coefficients.

Some graph-permanent sequences agree, prime by prime, with the Fourier
coefficients ``a_p`` of a modular form reduced mod p.  This module
expands eta products ``c * prod_i eta(m_i z)^{e_i}`` as exact integer
q-series (``eta(mz) = q^{m/24} prod_{k>=1} (1 - q^{mk})``), ingests
coefficient tables from CSV, and compares either source against an
extended-graph-permanent sequence under the canonical sign convention.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass

from .numtheory import BOUND_CAP
from .sequences import EgpSequence, sequence_from_row, sequences_equal

__all__ = [
    "EtaProduct",
    "CoeffSeries",
    "parse_eta_product",
    "eta_expand",
    "series_from_csv",
    "residue_row",
    "compare",
]

DEFAULT_TERMS = 128


@dataclass(frozen=True)
class EtaProduct:
    """``constant * prod eta(m z)^e`` with factors as (m, e) pairs."""

    constant: int
    factors: tuple[tuple[int, int], ...]

    def __str__(self) -> str:
        parts = [] if self.constant == 1 else [str(self.constant)]
        for m, e in self.factors:
            parts.append(f"eta({m})" + (f"^{e}" if e != 1 else ""))
        return " * ".join(parts) if parts else "1"

    @property
    def weight(self) -> float:
        return sum(e for _, e in self.factors) / 2


_ETA_FACTOR = re.compile(r"eta\((\d+)\)(?:\^(-?\d+))?")


def parse_eta_product(text: str) -> EtaProduct:
    """Parse e.g. ``-1 * eta(2)^4 * eta(4)^4``."""
    constant = 1
    factors = []
    for piece in text.split("*"):
        piece = piece.strip()
        if not piece:
            continue
        m = _ETA_FACTOR.fullmatch(piece)
        if m:
            level, power = int(m.group(1)), int(m.group(2) or 1)
            if level < 1:
                raise ValueError(f"eta({level}) in {text!r}: the level must be at least 1")
            factors.append((level, power))
        else:
            try:
                constant *= int(piece)
            except ValueError:
                raise ValueError(f"{piece!r} in {text!r} is neither an integer "
                                 f"nor eta(m)^e") from None
    if not factors:
        raise ValueError(f"no eta factors in {text!r}")
    return EtaProduct(constant, tuple(factors))


@dataclass(frozen=True)
class CoeffSeries:
    """q-series coefficients a_1, a_2, ... as exact integers."""

    label: str
    coeffs: tuple[int, ...]   # coeffs[k] = a_{k+1}

    def a(self, n: int) -> int:
        if not 1 <= n <= len(self.coeffs):
            raise ValueError(f"coefficient a_{n} beyond the expansion ({self.label})")
        return self.coeffs[n - 1]


def _mul_trunc(a: list[int], b: list[int], terms: int) -> list[int]:
    out = [0] * terms
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            if i + j >= terms:
                break
            out[i + j] += x * y
    return out


def _inv_trunc(a: list[int], terms: int) -> list[int]:
    if a[0] not in (1, -1):
        raise ValueError("series inversion needs a unit constant term")
    out = [0] * terms
    out[0] = a[0]
    for k in range(1, terms):
        s = sum(a[i] * out[k - i] for i in range(1, min(k, len(a) - 1) + 1))
        out[k] = -a[0] * s
    return out


def _euler_product(m: int, terms: int) -> list[int]:
    """``prod_{k>=1} (1 - q^(m k))`` truncated to `terms` coefficients."""
    out = [0] * terms
    out[0] = 1
    k = 1
    while m * k < terms:
        nxt = list(out)
        for i in range(terms - m * k):
            if out[i]:
                nxt[i + m * k] -= out[i]
        out = nxt
        k += 1
    return out


def eta_expand(product: EtaProduct, terms: int = DEFAULT_TERMS) -> CoeffSeries:
    """Exact integer q-expansion of an eta product, coefficients a_1..a_terms."""
    shift_num = sum(m * e for m, e in product.factors)
    if shift_num % 24 != 0:
        raise ValueError(f"eta product {product} has fractional q-exponent")
    shift = shift_num // 24
    if shift < 1:
        raise ValueError(f"eta product {product} does not start at q^1 or later")
    series = [0] * (terms + 1)
    series[0] = product.constant
    for m, e in product.factors:
        base = _euler_product(m, terms + 1)
        if e < 0:
            base = _inv_trunc(base, terms + 1)
            e = -e
        while e:   # repeated squaring: base^e in about 2 log2(e) products
            if e & 1:
                series = _mul_trunc(series, base, terms + 1)
            e >>= 1
            if e:
                base = _mul_trunc(base, base, terms + 1)
    coeffs = [0] * terms
    for i, c in enumerate(series):
        n = i + shift
        if 1 <= n <= terms:
            coeffs[n - 1] = c
    return CoeffSeries(str(product), tuple(coeffs))


def series_from_csv(path: str, label: str | None = None) -> CoeffSeries:
    """Read ``n,a_n`` rows (optional header) into a coefficient series.

    The series is dense up to its largest n, so an n past ``BOUND_CAP``,
    beyond every prime a sequence reaches, is refused with ValueError.
    """
    entries: dict[int, int] = {}
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if not row or row[0].strip().lstrip("-").isdigit() is False:
                continue
            if len(row) < 2:
                raise ValueError(f"{path}: row {row!r} needs the two fields n,a_n")
            n, a_n = int(row[0]), int(row[1])
            if n > BOUND_CAP:
                raise ValueError(f"{path}: index {n} is past the prime bound limit {BOUND_CAP}")
            entries[n] = a_n
    if not entries:
        raise ValueError(f"no coefficient rows in {path}")
    top = max(entries)
    coeffs = tuple(entries.get(n, 0) for n in range(1, top + 1))
    return CoeffSeries(label or path, coeffs)


def residue_row(series: CoeffSeries, primes: list[int]) -> dict[int, int]:
    """``p -> a_p mod p`` for the given primes."""
    return {p: series.a(p) % p for p in primes}


def compare(seq: EgpSequence, series: CoeffSeries) -> bool:
    """True iff a_p = the sequence's residue at every prime, canonically.

    The comparison row inherits the sequence's prime family and variate
    pattern, so orientation-dependent residues may match up to the usual
    global sign flip.
    """
    row = residue_row(series, seq.primes())
    other = sequence_from_row(series.label, seq.calV, seq.calE, row)
    return sequences_equal(seq, other)
