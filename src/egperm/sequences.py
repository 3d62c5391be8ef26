"""Extended graph permanent sequences: assembly, canonical sign, closed forms.

The extended graph permanent of a graph G is the sequence of residues
``Perm(1_{n calV x n calE} (x) M_G) mod p`` over the admissible primes
``p = n*calV + 1``.  At primes where ``n*calE`` is odd (*variate* primes)
the residue's sign depends on the arbitrary edge orientation; the
canonical form flips all variate residues together so that the first
nonzero variate residue r satisfies ``r <= p - r``.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from .cofactor import gperm_cofactor_primes
from .graphs import OrientedGraph, block_spec
from .numtheory import check_bound, largest_first, mod_tables, require_admissible_primes
from .permanent import gperm_direct, gperm_reduced

__all__ = [
    "EgpValue",
    "EgpSequence",
    "egp",
    "canonicalize_sign",
    "sequences_equal",
    "sequence_from_row",
    "closed_form_tree",
    "closed_form_wheel",
    "closed_form_zigzag",
    "FAMILIES",
    "check_zigzag_work",
]

ALGORITHMS = ("direct", "reduced", "cofactor", "auto")

_log = logging.getLogger("egperm")


@dataclass(frozen=True)
class EgpValue:
    prime: int
    n: int
    residue: int
    variate: bool


@dataclass(frozen=True)
class EgpSequence:
    graph_id: str
    calV: int
    calE: int
    values: tuple[EgpValue, ...]

    def primes(self) -> list[int]:
        return [v.prime for v in self.values]

    def residues(self) -> list[int]:
        return [v.residue for v in self.values]

    def row(self) -> dict[int, int]:
        """The residues keyed by prime, the inverse of ``sequence_from_row``."""
        return dict(zip(self.primes(), self.residues()))


def egp(g: OrientedGraph, bound: int, algorithm: str = "auto",
        graph_id: str = "", merge_components: bool = False) -> EgpSequence:
    """Uncanonicalized EGP sequence under the graph's stored orientation.

    A connected component without the special vertex forces every
    residue to zero; with ``merge_components`` the components are instead
    glued by identifying one vertex of each with the special vertex,
    which matches the cut-vertex interpretation of disconnectedness.
    ``auto`` computes every prime at the special vertex of the cheapest
    cofactor plan: the residue does not depend on that choice, only the
    cost does.  The other algorithms use the graph's special vertex.
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    check_bound(bound)
    if merge_components and not g.is_connected():
        merged = _merge_components(g)  # fewer vertices: the block sizes change
        if merged.vertex_count > 1:
            # loops alone merge into one vertex; their columns are zero either way
            g = merged
    spec = block_spec(g)
    primes = require_admissible_primes(spec.calV, bound)
    if not g.is_connected():
        row = dict.fromkeys(primes, 0)
    elif algorithm in ("auto", "cofactor"):
        special, cost, residues, planned = gperm_cofactor_primes(
            g, primes, choose_special=algorithm == "auto")
        row = dict(zip(primes, residues))
        if planned is not None:
            _log.debug("egp %s: special vertex %d (given %d), cost key %s, "
                       "planned in %.4f s", graph_id or "-", special,
                       g.special_vertex, cost, planned)
    else:
        # direct and reduced are the cross-check oracles
        oracle = gperm_direct if algorithm == "direct" else gperm_reduced
        row = largest_first(lambda p: oracle(g, p), primes)
    return sequence_from_row(graph_id, spec.calV, spec.calE, row)


def _merge_components(g: OrientedGraph) -> OrientedGraph:
    """Identify one vertex per component with the special vertex."""
    comps = g.components()
    rep = {}
    for comp in comps:
        if g.special_vertex in comp:
            continue
        anchor = min(comp)
        rep[anchor] = g.special_vertex
    edges = tuple((rep.get(t, t), rep.get(h, h)) for t, h in g.edges)
    # dimensions change: the identified vertices disappear
    used = sorted({v for e in edges for v in e} | {g.special_vertex})
    remap = {v: i for i, v in enumerate(used)}
    edges = tuple((remap[t], remap[h]) for t, h in edges)
    return OrientedGraph(len(used), edges, remap[g.special_vertex])


def canonicalize_sign(s: EgpSequence) -> EgpSequence:
    """Flip all variate residues if the first nonzero one exceeds p - r."""
    flip = False
    for v in s.values:
        if v.variate and v.residue:
            flip = v.residue > v.prime - v.residue
            break
    if not flip:
        return s
    values = tuple(
        replace(v, residue=(v.prime - v.residue) % v.prime) if v.variate else v
        for v in s.values)
    return replace(s, values=values)


def sequences_equal(a: EgpSequence, b: EgpSequence) -> bool:
    """Canonical equality at every shared prime (same prime family required)."""
    if a.calV != b.calV:
        raise ValueError("sequences live over different prime families")
    da, db = canonicalize_sign(a).row(), canonicalize_sign(b).row()
    shared = sorted(set(da) & set(db))
    if not shared:
        raise ValueError("sequences share no primes")
    return all(da[p] == db[p] for p in shared)


def sequence_from_row(graph_id: str, calV: int, calE: int,
                      row: dict[int, int]) -> EgpSequence:
    """A prime -> residue row as a sequence in increasing primes, each residue
    reduced mod p; the sign is kept as given (see ``canonicalize_sign``)."""
    values = []
    for p in sorted(row):
        n = (p - 1) // calV
        values.append(EgpValue(p, n, row[p] % p, n * calE % 2 == 1))
    return EgpSequence(graph_id, calV, calE, tuple(values))


# ---------------------------------------------------------------------------
# Closed forms for families
# ---------------------------------------------------------------------------

def closed_form_tree(vertex_count: int, p: int) -> int:
    """(-1)^(|V|-1) mod p, for any prime p."""
    if vertex_count < 1:
        raise ValueError("tree needs >= 1 vertex")
    return (-1) ** (vertex_count - 1) % p


def closed_form_wheel(w: int, p: int) -> int:
    """(-1)^w sum_k (-1)^{kw} C(n,k)^w mod p, p = 2n+1 (orientation-normal form)."""
    if p % 2 == 0 or p < 3:
        raise ValueError("wheel closed form needs an odd prime")
    if w < 3:
        raise ValueError("wheel needs rim length >= 3")
    n = (p - 1) // 2
    tb = mod_tables(p)
    total = 0
    for k in range(n + 1):
        term = pow(tb.binom(n, k), w, p)
        if (k * w) % 2:
            term = p - term
        total = (total + term) % p
    if w % 2:
        total = (-total) % p
    return total


# largest work estimate of `egp closed-form --family zigzag`: a chain step
# at p = 2n+1 is a convolution of n*n multiply-adds, plus a fixed numpy
# overhead worth about 10^5 of them, and there are size - 3 steps at each
# prime; summing p^2 + 10^5 over every p <= bound overestimates both, and
# the largest run allowed takes a few seconds on a 2-CPU machine
ZIGZAG_WORK_CAP = 2 * 10 ** 11


def check_zigzag_work(size: int, bound: int) -> None:
    """ValueError if the zig-zag closed forms of ``size`` vertices at the
    primes up to ``bound`` would exceed ``ZIGZAG_WORK_CAP``."""
    work = (size - 3) * bound * (bound ** 2 + 10 ** 5)
    if work > ZIGZAG_WORK_CAP:
        raise ValueError(f"zig-zag closed form of size {size} up to bound {bound} "
                         f"costs about {work:.1e} multiply-adds, over the limit "
                         f"{ZIGZAG_WORK_CAP:.0e}")


def closed_form_zigzag(m: int, p: int) -> int:
    """Zig-zag closed form at p = 2n+1:
    (-1)^(m-1) * sum over k_1+..+k_{m-1}=n of
    prod C(n,k_i) * prod_{i<=m-3} C(n - k_{i+1}, k_1+..+k_i).

    A DP over the prefix sum S = k_1+..+k_i, with n+1 states.  Each chain
    step multiplies by the trinomial C(n,k) C(n-k,S) = n! / (k! S! (n-k-S)!),
    so it is one convolution truncated at n: with T = S + k,
    ``f'[T] = n!/(n-T)! * sum_{S+k=T} (f[S]/S!) (1/k!)``.  The int64
    convolution is exact while (n+1)(p-1)^2 < 2^63."""
    if p % 2 == 0 or p < 3:
        raise ValueError("zig-zag closed form needs an odd prime")
    if m < 4:
        raise ValueError("zig-zag needs >= 4 vertices")
    n = (p - 1) // 2
    if (n + 1) * (p - 1) ** 2 >= 2 ** 63:
        raise ValueError(f"zig-zag closed form at p = {p} overflows int64")
    tb = mod_tables(p)
    inv = np.array(tb.inv_fact[: n + 1], dtype=np.int64)
    falling = tb.fact[n] * inv[::-1] % p           # n!/(n-T)! for T = 0..n
    binom_n = falling * inv % p                    # C(n, S), the k_1 step
    f = binom_n
    for _ in range(m - 3):
        f = falling * (np.convolve(f * inv % p, inv)[: n + 1] % p) % p
    # the last part is k_{m-1} = n - S, with C(n, n - S) = C(n, S)
    total = int((f * binom_n).sum() % p)
    return (-total) % p if (m - 1) % 2 else total


# family -> (calV of its decompletions, closed form at p of a size)
FAMILIES = {
    "tree": (1, closed_form_tree),
    "wheel": (2, closed_form_wheel),
    "zigzag": (2, closed_form_zigzag),
}
