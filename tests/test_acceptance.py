"""Acceptance gate: one test per criterion, exact arithmetic throughout.

Each test prints nothing on success; a failure names the graph, prime,
and mismatching residues.  Expected total runtime is a few minutes,
dominated by the seven-loop bound-41 reproduction in criterion 1.
"""

import random

from egperm.catalog import (
    certificates,
    get_entry,
    load_catalog,
    load_expression,
    nonprimitive_4regular,
)
from egperm.cofactor import gperm_cofactor
from egperm.expressions import eval_expr
from egperm.graphs import (
    banana,
    block_spec,
    build_graph,
    cycle,
    decomplete,
    reduced_incidence,
    tree_from_parents,
    wheel,
    zigzag,
)
from egperm.modform import compare, eta_expand, parse_eta_product
from egperm.numtheory import admissible_primes
from egperm.permanent import gperm_direct, gperm_reduced
from egperm.pointcount import coefficient_oracle, point_count, reconcile
from egperm.sequences import (
    canonicalize_sign,
    closed_form_tree,
    closed_form_wheel,
    closed_form_zigzag,
    egp,
    sequence_from_row,
    sequences_equal,
)
from egperm.transforms import (
    FourCutSpec,
    isomorphic,
    planar_dual,
    schnetz_twist,
    symmetry_zero_predicate,
    two_vertex_split,
)
from oracles import block_perm_exact

K4 = zigzag(4)
TRIANGLE = cycle(3)

SEVEN_LOOP_ENTRIES = [e for e in load_catalog() if e.loops <= 7 and e.has_edges]


def _row_at(entry, bound):
    return {p: r for p, r in entry.row.items() if p <= bound}


def test_criterion_1_stored_row_reproduction():
    # every reconstructible graph through 7 loops: two independent
    # algorithms at p <= 13, the cheapest one at p <= 41, exact residues
    assert len(SEVEN_LOOP_ENTRIES) == 19
    for entry in SEVEN_LOOP_ENTRIES:
        g = entry.decompletion()
        want41 = _row_at(entry, 41)
        want13 = _row_at(entry, 13)
        for algorithm, bound, want in (("reduced", 13, want13),
                                       ("cofactor", 13, want13),
                                       ("cofactor", 41, want41)):
            seq = canonicalize_sign(egp(g, bound, algorithm=algorithm))
            got = {v.prime: v.residue for v in seq.values}
            assert got == want, (entry.name, algorithm, bound, got, want)


def test_criterion_2_completed_expression_values():
    one = load_expression("completed_P_1_1.expr", calV=3)
    for p, v in {7: 6, 13: 5, 19: 12, 31: 27, 37: 11, 43: 8}.items():
        assert eval_expr(one, p) == v, (p, eval_expr(one, p))
    three = load_expression("completed_P_3_1.expr", calV=5)
    for p, v in {11: 1, 31: 6, 41: 3}.items():
        assert eval_expr(three, p) == v, (p, eval_expr(three, p))
    # the same residues from the permanent itself where the lattice fits
    doubled_triangle = build_graph(
        [(0, 1), (0, 1), (1, 2), (1, 2), (0, 2), (0, 2)], 3, 0)
    for p in (7, 13, 19):
        assert gperm_direct(doubled_triangle, p) == eval_expr(one, p)
        assert gperm_cofactor(doubled_triangle, p) == eval_expr(one, p)
    k5 = get_entry("P_3_1").completed_graph()
    assert gperm_direct(k5, 11) == 1
    assert gperm_cofactor(k5, 11) == 1


def test_criterion_3_closed_form_equivalence():
    for w in (3, 4, 5, 16, 30):
        row = {p: closed_form_wheel(w, p) for p in (3, 5, 7, 11, 13)}
        assert sequences_equal(sequence_from_row("wheel", 2, 1, row),
                               egp(wheel(w), 13)), w
    row = {p: closed_form_zigzag(4, p) for p in (3, 5, 7, 11, 13)}
    assert sequences_equal(sequence_from_row("zigzag", 2, 1, row), egp(K4, 13))
    rng = random.Random(20260823)
    for _ in range(25):
        size = rng.randint(2, 6)
        t = tree_from_parents([rng.randrange(i) for i in range(1, size)])
        for v in egp(t, 13, algorithm="direct").values:
            assert v.residue == closed_form_tree(size, v.prime), (t, v)


def test_criterion_4_invariance_suites():
    # special-vertex invariance: every vertex of every <= 7-loop decompletion
    for entry in SEVEN_LOOP_ENTRIES:
        g = entry.decompletion()
        want = canonicalize_sign(egp(g, 13, algorithm="cofactor")).residues()
        for v in range(1, g.vertex_count):
            got = canonicalize_sign(
                egp(g.with_special(v), 13, algorithm="cofactor")).residues()
            assert got == want, (entry.name, v, got, want)
    # decompletion invariance: every vertex of every 4-regular graph
    # on <= 8 vertices (primitive and non-primitive alike)
    small = [e.completed_graph() for e in SEVEN_LOOP_ENTRIES
             if e.completed_graph().vertex_count <= 8]
    small += [g for g in nonprimitive_4regular() if g.vertex_count <= 8]
    assert len(small) == 11  # 8 catalog completions (incl. the 3-vertex
    # doubled triangle) plus the 3 non-primitive classes on <= 8 vertices
    for g in small:
        want = canonicalize_sign(egp(decomplete(g, 0), 13)).residues()
        for v in range(1, g.vertex_count):
            got = canonicalize_sign(egp(decomplete(g, v), 13)).residues()
            assert got == want, (g, v, got, want)
    # twist pair and dual pair agree as computed sequences up to p = 41
    certs = certificates()
    tw = certs["twist_P_7_4"]
    g = get_entry("P_7_4").completed_graph()
    twisted = schnetz_twist(g, FourCutSpec(tuple(tw["cut_vertices"]),
                                           frozenset(tw["left_vertices"])))
    assert isomorphic(twisted, get_entry("P_7_7").completed_graph())
    assert sequences_equal(egp(decomplete(g, 0), 41),
                           egp(decomplete(twisted, 0), 41))
    du = certs["dual_P_7_5"]
    src = decomplete(get_entry("P_7_5").completed_graph(),
                     du["decompletion_vertex"])
    rotation = {int(v): list(o) for v, o in du["rotation"].items()}
    assert sequences_equal(egp(planar_dual(src, rotation), 41),
                           egp(src, 41))
    # 2-vertex-cut product: gluing two copies of the 3-loop decompletion
    # (K4) at a vertex pair gives GPerm(G) = -GPerm(G1) * GPerm(G2)
    edges = [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
             (0, 4), (0, 5), (1, 4), (1, 5), (4, 5)]
    glued = build_graph(edges, 6, 0)
    g1, g2 = two_vertex_split(glued, (0, 1))
    assert isomorphic(g1, K4) and isomorphic(g2, K4)
    whole, s1, s2 = egp(glued, 13), egp(g1, 13), egp(g2, 13)
    for w, a, b in zip(whole.values, s1.values, s2.values):
        assert w.residue == (-a.residue * b.residue) % w.prime
    # and the glued sequence is minus the square of the 3-loop row
    row3 = _row_at(get_entry("P_3_1"), 13)
    for w in canonicalize_sign(whole).values:
        assert w.residue == (-row3[w.prime] ** 2) % w.prime


def test_criterion_5_symmetry_zeros():
    flagged = {e.name for e in SEVEN_LOOP_ENTRIES
               if symmetry_zero_predicate(e.decompletion())}
    # P_7_10 carries the flag alongside its planar-dual partner P_7_5:
    # the two labels share one residue row and are not separable by any
    # row-level invariant, so the predicate necessarily marks both even
    # though summaries conventionally name only one of them
    assert flagged == {"P_3_1", "P_7_5", "P_7_9", "P_7_10"}, flagged
    for name in flagged:
        row = get_entry(name).row
        zeros = [p for p in row if p % 4 == 3]
        assert zeros and all(row[p] == 0 for p in zeros), (name, row)
    # the flag certifies vanishing residues, not a vanishing permanent
    assert gperm_direct(wheel(5), 5) == 0
    base = reduced_incidence(wheel(5))
    assert block_perm_exact(base, 4, 2) != 0


def test_criterion_6_composite_modulus_vanishing():
    for g in (TRIANGLE, K4, banana(2), banana(3)):
        spec = block_spec(g)
        base = reduced_incidence(g)
        for modulus in (4, 6, 8, 9):
            k = modulus - 1
            value = block_perm_exact(base, k * spec.calV, k * spec.calE)
            assert value % modulus == 0, (g, modulus, value)


def test_criterion_7_point_count_reconciliation():
    # coefficient identity against the direct permanent; the triangle has
    # calV = 3, so only p = 7 of the small primes lies in its family
    cases = [(banana(2), (3, 5, 7)), (TRIANGLE, (7,)), (K4, (3, 5))]
    for g, primes in cases:
        for p in primes:
            assert coefficient_oracle(g, p) == gperm_direct(g, p), (g, p)
    # an even number of zeros over F_2 whenever |E| = 2(|V| - 1)
    doubled_path = build_graph([(0, 1), (0, 1), (1, 2), (1, 2)], 3, 0)
    for g in (banana(2), doubled_path, K4, wheel(4)):
        assert 2 * (g.vertex_count - 1) == g.edge_count
        assert point_count(g, 2) % 2 == 0, g
    # count identity at the sign-fixed primes (p = 1 mod 4); the global
    # sign is (-1)^(L+1), recorded empirically and pinned by banana(3)
    for g in (K4, banana(2), banana(3)):
        for p in admissible_primes(block_spec(g).calV, 13):
            if p % 4 != 1:
                continue
            report = reconcile(g, p)
            assert report["count_ok"] and report["coefficient_ok"], (g, p, report)


def test_criterion_8_eta_product_rows():
    for name in ("P_3_1", "P_4_1", "P_6_1", "P_6_4"):
        entry = get_entry(name)
        series = eta_expand(parse_eta_product(entry.eta_product))
        assert compare(entry.row_sequence(), series), name


def test_criterion_9_unexplained_equalities():
    pairs = set()
    for e in load_catalog():
        for other in e.relations.get("equal", []):
            pairs.add(frozenset((e.name, other)))
    assert frozenset(("P_6_1", "P_6_4")) in pairs
    assert len(pairs) >= 5
    for pair in pairs:
        a, b = sorted(pair)
        assert sequences_equal(get_entry(a).row_sequence(),
                               get_entry(b).row_sequence()), (a, b)
    # unrelated rows must differ at bound 41
    related = set(pairs)
    for e in load_catalog():
        for kind in ("twist", "dual"):
            if kind in e.relations:
                related.add(frozenset((e.name, e.relations[kind])))
    names = [e.name for e in load_catalog()]
    rng = random.Random(41)
    refuted = 0
    while refuted < 10:
        a, b = rng.sample(names, 2)
        if frozenset((a, b)) in related:
            continue
        assert not sequences_equal(get_entry(a).row_sequence(),
                                   get_entry(b).row_sequence()), (a, b)
        refuted += 1
