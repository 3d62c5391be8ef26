"""Seeded inputs and checked requests for the benchmark workloads.

A run of a workload is a stream of rounds, each a list of requests.  Round
``r`` draws its vertex labels, edge order and orientation, special
vertices and random multigraphs from ``random.Random(f"{seed}:{workload}:{r}")``.
So every round holds the same kinds of request on fresh inputs: the cost
of one catalog graph varies several-fold with its labelling, and a run that
draws dozens of labellings of each graph does not hang on a few of them.
The same seed always yields the same rounds, and the library only ever
sees the generated graphs.
Every request returns the values it computed together with their
references, one ``(cell, got, want)`` triple per checked value.

Library functions are always looked up through their module at call time
(``sequences.egp``, never a bound ``egp``), so the tracer's wrappers see
every call.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import Callable, Iterator

from egperm import (catalog, expressions, graphs, modform, numtheory,
                    permanent, pointcount, sequences, transforms)

WORKLOADS = ("catalog-sequences", "oracle-crosscheck")


# prime bounds and lattice caps of a full-size round
CATALOG_BOUND = 17        # catalog sequences
ORACLE_BOUND = 11         # reduced sequences and the dual certificate
CROSSCHECK_BOUND = 13     # direct sequences, reconcile and multigraphs
MAX_POINTS = 2 ** 20      # largest (b+1)^c or p^L lattice handed to an oracle
MULTIGRAPHS = 12          # random multigraphs per round


@dataclass(frozen=True)
class Sizes:
    """Caps on the work of one round; the defaults are the full size."""

    max_bound: int = CATALOG_BOUND      # no prime bound above this
    max_points: int = MAX_POINTS        # no lattice larger than this


# small enough that a round of every workload takes well under a second
TINY = Sizes(max_bound=7, max_points=4096)


@dataclass
class Request:
    label: str                      # names the request in failing cells
    cells: int                      # values the request checks
    call: Callable[[], list[tuple[str, object, object]]]
    key: str                        # canonical text of the inputs, for the digest
    want: dict | None = None        # stored reference, where there is one


@dataclass
class Workload:
    """Set-up of one workload: the catalog, references and the first round."""

    name: str
    seed: int
    sizes: Sizes = field(default_factory=Sizes)

    def __post_init__(self):
        if self.name not in WORKLOADS:
            raise ValueError(f"unknown workload {self.name!r}")
        self.entries = {e.name: e for e in catalog.load_catalog()}
        self.completed = {n: e.completed_graph()
                          for n, e in self.entries.items() if e.has_edges}
        self._make_round = getattr(self, "_round_" + self.name.replace("-", "_"))
        self.first_round = self.round(0)
        digest = hashlib.sha256()
        for req in self.first_round:
            digest.update(req.key.encode())
        self.digest = digest.hexdigest()[:16]

    def round(self, r: int) -> list[Request]:
        """Round r's requests, on inputs drawn afresh."""
        return self._make_round(self._rng(r))

    def rounds(self) -> Iterator[list[Request]]:
        """The endless stream of rounds, the first one built at set-up."""
        yield self.first_round
        r = 1
        while True:
            yield self.round(r)
            r += 1

    def _bound(self, bound: int) -> int:
        return min(bound, self.sizes.max_bound)

    def _rng(self, *key: int) -> random.Random:
        return random.Random(":".join(map(str, (self.seed, self.name) + key)))

    # -- request builders ---------------------------------------------------

    def _row_request(self, kind: str, name: str, g, bound: int,
                     algorithm: str = "auto") -> Request:
        """Canonical ``egp`` sequence of g checked against name's stored row."""
        entry = self.entries[name]
        want = {p: r for p, r in entry.row.items() if p <= bound}

        def call():
            return _row_cells(sequences.canonicalize_sign(
                sequences.egp(g, bound, algorithm=algorithm, graph_id=name)), want)

        return Request(f"{kind}:{name}", len(want), call,
                       f"{kind}|{name}|{bound}|{algorithm}|{_graph_key(g)}",
                       want)

    # -- catalog-sequences ----------------------------------------------------

    def _round_catalog_sequences(self, rng) -> list[Request]:
        out = []
        for name, comp in self.completed.items():
            g = relabel(comp, rng)
            dec = graphs.decomplete(g, g.vertex_count - 1)
            out.append(self._row_request("sequence", name, dec,
                                         self._bound(CATALOG_BOUND)))
        rng.shuffle(out)
        return out

    # -- oracle-crosscheck ----------------------------------------------------

    def _round_oracle_crosscheck(self, rng) -> list[Request]:
        bound = self._bound(ORACLE_BOUND)
        out = []
        for name, comp in self.completed.items():
            g = relabel(comp, rng)
            dec = graphs.decomplete(g, g.vertex_count - 1)
            out.append(self._row_request("reduced", name, dec, bound,
                                         algorithm="reduced"))
            direct = _direct_bound(dec, self.sizes.max_points,
                                   self._bound(CROSSCHECK_BOUND))
            if direct:
                out.append(self._row_request("direct", name, dec, direct,
                                             algorithm="direct"))
        for label, g in _small_graphs():
            out += self._reconcile_requests(
                label, relabel(g, rng, special=True))
        for name, entry in self.entries.items():
            if entry.expression_file is not None:
                out.append(self._expression_request(name))
            if entry.eta_product is not None:
                out.append(self._eta_request(name))
        out.append(self._twist_request(rng))
        out.append(self._dual_request(rng))
        for i in range(MULTIGRAPHS):
            out.append(self._multigraph_request(i, rng))
        rng.shuffle(out)
        return out

    def _reconcile_requests(self, label: str, g) -> list[Request]:
        spec = graphs.block_spec(g)
        out = []
        for p in numtheory.admissible_primes(spec.calV,
                                               self._bound(CROSSCHECK_BOUND)):
            if p ** spec.L > self.sizes.max_points:
                continue

            def call(p=p):
                gperm = permanent.gperm_reduced(g, p)
                report = pointcount.reconcile(g, p, gperm)
                return [("coefficient", report["coefficient_identity"], gperm),
                        ("count", report["count_identity"], gperm)]

            out.append(Request(f"reconcile:{label}:p={p}", 2, call,
                               f"reconcile|{p}|{_graph_key(g)}"))
        return out

    def _expression_request(self, name: str) -> Request:
        entry = self.entries[name]
        want = dict(entry.row)

        def call():
            expr = catalog.load_expression(entry.expression_file, entry.calV)
            raw = {p: expressions.eval_expr(expr, p) for p in sorted(want)}
            return _row_cells(sequences.canonicalize_sign(
                sequences.sequence_from_row(name, entry.calV, entry.calE, raw)),
                want)

        return Request(f"expression:{name}", len(want), call,
                       f"expression|{name}", want)

    def _eta_request(self, name: str) -> Request:
        entry = self.entries[name]
        want = dict(entry.row)

        def call():
            series = modform.eta_expand(modform.parse_eta_product(entry.eta_product))
            row = modform.residue_row(series, sorted(want))
            cells = _row_cells(sequences.canonicalize_sign(
                sequences.sequence_from_row(name, entry.calV, entry.calE, row)),
                want)
            return cells + [("compare", modform.compare(entry.row_sequence(),
                                                        series), True)]

        return Request(f"eta:{name}", len(want) + 1, call,
                       f"eta|{name}", want)

    def _twist_request(self, rng: random.Random) -> Request:
        cert = catalog.certificates()["twist_P_7_4"]
        source, perm = relabel_with(self.completed["P_7_4"], rng)
        target = relabel(self.completed[cert["target"]], rng)
        cut = transforms.FourCutSpec(
            tuple(perm[v] for v in cert["cut_vertices"]),
            frozenset(perm[v] for v in cert["left_vertices"]))

        def call():
            twisted = transforms.schnetz_twist(source, cut)
            return [("isomorphic", transforms.isomorphic(twisted, target), True)]

        return Request(f"twist:P_7_4->{cert['target']}", 1, call,
                       f"twist|{_graph_key(source)}|{cut.cut_vertices}|"
                       f"{sorted(cut.left_vertices)}|{_graph_key(target)}")

    def _dual_request(self, rng: random.Random) -> Request:
        cert = catalog.certificates()["dual_P_7_5"]
        plain = graphs.decomplete(self.completed[cert["source"]],
                                  cert["decompletion_vertex"])
        # the rotation system names edges by index, so the edge order stays
        perm = list(range(plain.vertex_count))
        rng.shuffle(perm)
        edges = [(perm[h], perm[t]) if rng.random() < 0.5 else (perm[t], perm[h])
                 for t, h in plain.edges]
        src = graphs.build_graph(edges, plain.vertex_count,
                                 perm[plain.special_vertex])
        rotation = {perm[int(v)]: list(order)
                    for v, order in cert["rotation"].items()}
        bound = self._bound(ORACLE_BOUND)
        target = cert["target"]
        want = {p: r for p, r in self.entries[target].row.items() if p <= bound}

        def call():
            dual = transforms.planar_dual(src, rotation)
            return _row_cells(sequences.canonicalize_sign(
                sequences.egp(dual, bound, algorithm="reduced", graph_id=target)),
                want)

        return Request(f"dual:{cert['source']}->{target}", len(want),
                       call, f"dual|{_graph_key(src)}|{sorted(rotation.items())}",
                       want)

    def _multigraph_request(self, tag: int, rng: random.Random) -> Request:
        g = random_multigraph(rng)
        bound = self._bound(CROSSCHECK_BOUND)
        primes = numtheory.admissible_primes(2, bound)

        def call():
            fast = sequences.egp(g, bound, algorithm="cofactor").residues()
            slow = sequences.egp(g, bound, algorithm="reduced").residues()
            return [(f"p={p}", a, b) for p, a, b in zip(primes, fast, slow)]

        return Request(f"multigraph:{tag}:V={g.vertex_count}:special="
                       f"{g.special_vertex}:edges={list(g.edges)}",
                       len(primes), call, f"multigraph|{bound}|{_graph_key(g)}")


# ---------------------------------------------------------------------------
# input generation
# ---------------------------------------------------------------------------

def relabel_with(g, rng: random.Random, special: bool = False):
    """Random vertex relabelling, edge order and edge orientation of g.

    Returns the new graph and the vertex map.  With ``special`` the special
    vertex is drawn at random too; otherwise it follows the relabelling.
    """
    perm = list(range(g.vertex_count))
    rng.shuffle(perm)
    edges = [(perm[h], perm[t]) if rng.random() < 0.5 else (perm[t], perm[h])
             for t, h in g.edges]
    rng.shuffle(edges)
    sv = rng.randrange(g.vertex_count) if special else perm[g.special_vertex]
    return graphs.build_graph(edges, g.vertex_count, sv), perm


def relabel(g, rng: random.Random, special: bool = False):
    return relabel_with(g, rng, special)[0]


def random_multigraph(rng: random.Random):
    """Connected loopless multigraph on 3..5 vertices with |E| = 2(|V|-1).

    A random tree plus |V|-1 edges between two distinct uniformly drawn
    endpoints, so parallel edges occur; |E| = 2(|V|-1) gives calV = 2,
    which makes every odd prime admissible.  Self-loops are left out:
    ``cofactor`` gets them wrong (ROADMAP item 5), and every operation of
    a workload must succeed.
    """
    n = rng.randint(3, 5)
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    edges += [tuple(rng.sample(range(n), 2)) for _ in range(n - 1)]
    rng.shuffle(edges)
    edges = [(h, t) if rng.random() < 0.5 else (t, h) for t, h in edges]
    return graphs.build_graph(edges, n, rng.randrange(n))


def _row_cells(seq, want: dict) -> list[tuple[str, object, object]]:
    """One cell per prime of the reference row."""
    got = {v.prime: v.residue for v in seq.values}
    return [(f"p={p}", got.get(p), want[p]) for p in sorted(want)]


def _small_graphs():
    doubled_path = graphs.build_graph([(0, 1), (0, 1), (1, 2), (1, 2)], 3, 0)
    doubled_triangle = graphs.build_graph(
        [(0, 1), (0, 1), (1, 2), (1, 2), (0, 2), (0, 2)], 3, 0)
    return [("banana2", graphs.banana(2)), ("banana3", graphs.banana(3)),
            ("banana4", graphs.banana(4)), ("K4", graphs.zigzag(4)),
            ("triangle", graphs.cycle(3)), ("wheel4", graphs.wheel(4)),
            ("doubled_path", doubled_path), ("doubled_triangle", doubled_triangle)]


def _direct_bound(g, points: int, bound: int) -> int:
    """Largest prime bound whose every block-Ryser lattice fits ``points``."""
    spec = graphs.block_spec(g)
    best = 0
    for p in numtheory.admissible_primes(spec.calV, bound):
        n = (p - 1) // spec.calV
        if (n * spec.calE + 1) ** g.edge_count > points:
            break
        best = p
    return best


def _graph_key(g) -> str:
    return f"{g.vertex_count}/{g.special_vertex}/{g.edges}"
