#!/usr/bin/env python3
"""Derive and freeze the bundled graph catalog (data/catalog.json).

The derivation is exact and deterministic: two runs write the same
bytes.  Steps:

1. Enumerate connected 4-regular simple graphs on 5..9 vertices up to
   isomorphism: the closure of circulant(n, 1, 2) under double-edge
   switches ab, cd -> ac, bd that keep the graph simple and connected,
   which reaches every class (R. Taylor, "Constrained switchings in
   graphs", 1981), keeping a graph whose canonical form is new.  Assert
   the known class counts.
2. Filter the *primitive* completions: every vertex subset S with
   2 <= |S| <= n-2 has edge boundary >= 6 (the only 4-edge-cuts are
   vertex stars), and no 3 vertices disconnect the rest.
3. Name the primitive classes by one rule.  Group the classes on n
   vertices by the canonical residue row of a decompletion (primes
   <= 13); each group takes the published (n-2)-loop names with that
   row, in name order, the class with more triangles first.  Distinct
   classes may share a row (twists and planar duals preserve it):
   P_6_1/P_6_4 (8 vs 0 triangles), P_7_4/P_7_7 (6 vs 5), P_7_5/P_7_10
   (6 vs 4).  The circulants in CIRCULANTS are checked against their
   names by isomorphism; those on 10 vertices are named from the table
   alone.  Every named row is then recomputed at another decompletion.
4. Certify the recorded relations: find an explicit 4-cut whose twist
   maps P_7_4 to P_7_7, and a planar decompletion + rotation system
   exhibiting P_7_5 <-> P_7_10 duality.  The rotation is the first
   rotation system, in lexicographic order, that planar_dual accepts.
5. Emit src/egperm/data/catalog.json and a CHECKSUMS file.

Run:  python3 tools/derive_catalog.py
"""

from __future__ import annotations

import hashlib
import itertools
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "src/egperm/data"
sys.path.insert(0, str(ROOT / "src"))

from egperm.graphs import (GraphError, OrientedGraph, build_graph, circulant,
                           complete, decomplete, triangles)
from egperm.sequences import canonicalize_sign, egp
from egperm.transforms import (FourCutSpec, canonical_form, isomorphic,
                               planar_dual, schnetz_twist,
                               symmetry_zero_predicate)

PRIMES_41 = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41]
MATCH_PRIMES = [3, 5, 7, 11, 13]

# Published canonical residue rows at the primes above (<= 41).
ROWS = {
    "P_1_1":  [1, 4, 1, 1, 12, 16, 1, 1, 28, 1, 36, 40],
    "P_3_1":  [0, 1, 0, 0, 3, 13, 0, 0, 16, 0, 33, 23],
    "P_4_1":  [1, 3, 4, 0, 9, 16, 13, 10, 24, 5, 23, 7],
    "P_5_1":  [1, 1, 1, 5, 12, 16, 11, 13, 7, 1, 25, 9],
    "P_6_1":  [0, 4, 3, 1, 11, 16, 0, 13, 15, 9, 35, 6],
    "P_6_2":  [1, 3, 5, 8, 8, 15, 10, 17, 27, 20, 32, 1],
    "P_6_3":  [1, 1, 3, 8, 10, 9, 15, 0, 24, 24, 3, 11],
    "P_6_4":  [0, 4, 3, 1, 11, 16, 0, 13, 15, 9, 35, 6],
    "P_7_1":  [1, 3, 3, 4, 1, 15, 7, 14, 13, 13, 28, 0],
    "P_7_2":  [1, 2, 0, 9, 9, 6, 6, 12, 25, 9, 0, 31],
    "P_7_3":  [0, 0, 3, 8, 5, 3, 2, 14, 10, 18, 23, 34],
    "P_7_4":  [1, 0, 4, 5, 9, 1, 4, 4, 4, 7, 26, 0],
    "P_7_5":  [0, 3, 0, 0, 1, 11, 0, 0, 13, 0, 26, 36],
    "P_7_6":  [1, 1, 1, 8, 10, 9, 7, 14, 28, 16, 35, 36],
    "P_7_7":  [1, 0, 4, 5, 9, 1, 4, 4, 4, 7, 26, 0],
    "P_7_8":  [1, 1, 2, 0, 10, 16, 17, 8, 4, 25, 26, 33],
    "P_7_9":  [0, 0, 0, 0, 10, 2, 0, 0, 17, 0, 1, 0],
    "P_7_10": [0, 3, 0, 0, 1, 11, 0, 0, 13, 0, 26, 36],
    "P_7_11": [0, 1, 1, 1, 11, 5, 0, 22, 6, 25, 16, 38],
    "P_8_1":  [1, 1, 5, 10, 7, 14, 17, 4, 8, 11, 19, 7],
    "P_8_2":  [1, 0, 4, 0, 10, 6, 12, 12, 27, 17, 34, 0],
    "P_8_3":  [1, 0, 1, 1, 9, 10, 14, 3, 8, 17, 15, 22],
    "P_8_4":  [1, 3, 4, 0, 7, 16, 3, 11, 23, 23, 11, 17],
    "P_8_5":  [0, 2, 1, 0, 0, 16, 17, 9, 12, 2, 33, 26],
    "P_8_6":  [0, 0, 3, 0, 4, 5, 6, 6, 3, 13, 28, 24],
    "P_8_7":  [1, 1, 0, 2, 0, 3, 13, 2, 22, 7, 25, 31],
    "P_8_10": [1, 1, 5, 10, 7, 14, 17, 4, 8, 11, 19, 7],
    "P_8_11": [1, 3, 1, 1, 8, 14, 0, 1, 13, 20, 15, 24],
    "P_8_12": [1, 1, 6, 0, 7, 0, 6, 15, 10, 29, 11, 30],
    "P_8_13": [1, 4, 4, 7, 1, 12, 7, 11, 28, 11, 24, 26],
    "P_8_14": [0, 3, 3, 2, 2, 11, 12, 3, 1, 27, 30, 27],
    "P_8_16": [1, 3, 1, 10, 3, 1, 5, 16, 3, 12, 23, 5],
    "P_8_17": [0, 4, 2, 0, 4, 0, 9, 1, 27, 7, 22, 17],
    "P_8_18": [0, 3, 0, 0, 0, 4, 0, 0, 3, 0, 15, 12],
    "P_8_19": [1, 4, 4, 4, 10, 2, 15, 6, 3, 27, 28, 36],
    "P_8_20": [1, 2, 3, 2, 1, 15, 6, 7, 14, 25, 12, 38],
    "P_8_24": [1, 2, 1, 6, 7, 5, 3, 5, 8, 5, 25, 31],
    "P_8_26": [1, 1, 0, 7, 1, 10, 15, 16, 6, 9, 2, 12],
    "P_8_29": [1, 3, 5, 8, 1, 15, 13, 17, 8, 23, 6, 15],
    "P_8_30": [1, 4, 3, 4, 6, 5, 2, 21, 11, 5, 34, 28],
    "P_8_31": [0, 3, 0, 0, 3, 1, 0, 0, 25, 0, 35, 13],
    "P_8_32": [1, 0, 1, 1, 9, 10, 14, 3, 8, 17, 15, 22],
    "P_8_33": [0, 1, 0, 0, 7, 3, 7, 19, 20, 29, 3, 33],
    "P_8_35": [0, 3, 0, 0, 3, 1, 0, 0, 25, 0, 35, 13],
    "P_8_36": [1, 4, 3, 4, 6, 5, 2, 21, 11, 5, 34, 28],
    "P_8_37": [1, 1, 5, 0, 11, 5, 13, 7, 13, 30, 16, 15],
    "P_8_38": [1, 2, 0, 1, 1, 4, 6, 15, 11, 18, 28, 29],
    "P_8_39": [0, 0, 3, 0, 4, 5, 6, 6, 3, 13, 28, 24],
    "P_8_40": [1, 1, 5, 10, 7, 14, 17, 4, 8, 11, 19, 7],
    "P_8_41": [0, 3, 1, 5, 12, 2, 18, 15, 9, 25, 27, 34],
}

TWIST = {"P_7_4": "P_7_7", "P_8_6": "P_8_9", "P_8_7": "P_8_8",
         "P_8_10": "P_8_22", "P_8_11": "P_8_15", "P_8_13": "P_8_21",
         "P_8_17": "P_8_23", "P_8_18": "P_8_25", "P_8_26": "P_8_28",
         "P_8_32": "P_8_34"}
DUAL = {"P_7_5": "P_7_10", "P_8_19": "P_8_27"}
EQUAL_SETS = [["P_6_1", "P_6_4"], ["P_8_1", "P_8_10", "P_8_40"],
              ["P_8_3", "P_8_32"], ["P_8_6", "P_8_39"],
              ["P_8_30", "P_8_36"], ["P_8_31", "P_8_35"]]

# name -> (n, a, b) of circulant(n, a, b)
CIRCULANTS = {"P_3_1": (5, 1, 2), "P_4_1": (6, 1, 2), "P_5_1": (7, 1, 2),
              "P_6_1": (8, 1, 2), "P_6_4": (8, 1, 3), "P_7_1": (9, 1, 2),
              "P_7_11": (9, 1, 3), "P_8_1": (10, 1, 2),
              "P_8_40": (10, 1, 4), "P_8_41": (10, 1, 3)}

EXPECTED_CLASSES = {5: 1, 6: 1, 7: 2, 8: 6, 9: 16}
ETA = {"P_3_1": "-1 * eta(4)^6", "P_4_1": "eta(2)^4 * eta(4)^4",
       "P_6_1": "eta(2)^12", "P_6_4": "eta(2)^12"}
COMMON = {"P_3_1": {"completed": "K5", "decompleted": "K4 (wheel W3)"},
          "P_4_1": {"completed": "octahedron", "decompleted": "wheel W4"},
          "P_6_4": {"decompleted": "K_{3,4}"}}


def switches(g: OrientedGraph):
    """The simple connected graphs one double-edge switch away from g.

    A switch replaces edges ab, cd by ac, bd.  Edges are kept as sorted
    (low, high) pairs in a sorted list, so the output is deterministic.
    """
    edges = set(g.edges)
    for (a, b), (c, d) in itertools.combinations(g.edges, 2):
        if len({a, b, c, d}) < 4:
            continue
        for x, y in ((c, d), (d, c)):
            new = {(min(a, x), max(a, x)), (min(b, y), max(b, y))}
            if new & edges:
                continue
            h = build_graph(sorted(edges - {(a, b), (c, d)} | new), g.vertex_count)
            if h.is_connected():
                yield h


def enumerate_4regular(n: int) -> list[OrientedGraph]:
    """One graph per class of connected 4-regular simple graphs on n vertices.

    The closure of circulant(n, 1, 2) under ``switches``, in the order found.
    """
    found = [circulant(n, 1, 2)]
    forms = {canonical_form(found[0])}
    for g in found:  # grows while it is walked
        for h in switches(g):
            form = canonical_form(h)
            if form not in forms:
                forms.add(form)
                found.append(h)
    return found


def is_primitive(g: OrientedGraph) -> bool:
    """Completed-primitive test for a connected 4-regular graph.

    The graph must be internally 6-edge-connected (every 4-edge-cut
    splits off a single vertex) and 4-vertex-connected (a 3-vertex cut
    factorises the period into a product): no 3 vertices disconnect the
    rest.  The edge check alone does not imply the vertex check.  This
    reproduces the census class counts 1, 1, 1, 4, 11 on 5..9 vertices.
    """
    n = g.vertex_count
    for size in range(2, n - 1):
        for s in itertools.combinations(range(n), size):
            ss = set(s)
            boundary = sum(1 for t, h in g.edges if (t in ss) != (h in ss))
            if boundary < 6:
                return False
    for cut in itertools.combinations(range(n), 3):
        rest = g
        for v in reversed(cut):
            rest = decomplete(rest, v)
        if not rest.is_connected():
            return False
    return True


def canonical_row(dec: OrientedGraph, primes: list[int]) -> list[int]:
    row = canonicalize_sign(egp(dec, max(primes))).row()
    return [row[p] for p in primes]


def any_decompletion_szp(g: OrientedGraph) -> bool:
    return any(symmetry_zero_predicate(decomplete(g, v))
               for v in range(g.vertex_count))


def find_twist_cut(g: OrientedGraph, target: OrientedGraph) -> FourCutSpec:
    """Search for a 4-cut whose twist turns g into target (up to iso)."""
    n = g.vertex_count
    for cut4 in itertools.combinations(range(n), 4):
        cut = set(cut4)
        off_cut = build_graph([e for e in g.edges if not cut & set(e)], n)
        # candidate left sides: unions of connected components off the cut
        comps = [frozenset(c) for c in off_cut.components() if not c & cut]
        if len(comps) < 2:
            continue
        for r in range(1, len(comps)):
            for pick in itertools.combinations(comps, r):
                left = frozenset().union(*pick)
                for perm in itertools.permutations(cut4):
                    spec = FourCutSpec(tuple(perm), left)
                    try:
                        twisted = schnetz_twist(g, spec)
                    except GraphError:
                        continue
                    if not isomorphic(twisted, g) and isomorphic(twisted, target):
                        return spec
    raise RuntimeError("no twist cut found")


def planar_rotation(dec: OrientedGraph) -> dict[int, list[int]] | None:
    """The first rotation system that planar_dual accepts, or None.

    Each vertex's incident edges are tried in every cyclic order, its
    lowest edge first, the vertices' orders in lexicographic product.
    """
    incident = [[j for j, e in enumerate(dec.edges) if v in e] for v in range(dec.vertex_count)]
    cyclic = [[[at[0], *order] for order in itertools.permutations(at[1:])] for at in incident]
    for orders in itertools.product(*cyclic):
        rotation = dict(enumerate(orders))
        try:
            planar_dual(dec, rotation)
        except GraphError:
            continue
        return rotation
    return None


def derive_catalog() -> dict:
    """The catalog, as written to catalog.json."""
    classes: dict[int, list[OrientedGraph]] = {}
    for n in range(5, 10):
        classes[n] = enumerate_4regular(n)
        assert len(classes[n]) == EXPECTED_CLASSES[n], \
            f"{n} vertices: found {len(classes[n])} classes, expected {EXPECTED_CLASSES[n]}"
        print(f"{n} vertices: {len(classes[n])} connected 4-regular classes")

    primitive = {n: [g for g in classes[n] if is_primitive(g)] for n in classes}
    for n, exp in [(5, 1), (6, 1), (7, 1), (8, 4), (9, 11)]:
        assert len(primitive[n]) == exp, \
            f"{n} vertices: {len(primitive[n])} primitive, expected {exp}"
    print("primitive counts OK:", {n: len(primitive[n]) for n in primitive})

    # ------------------------------------------------------------------
    # name assignment
    # ------------------------------------------------------------------
    # P_1_1 completion: the doubled triangle (only multigraph in the catalog)
    named: dict[str, OrientedGraph] = {
        "P_1_1": build_graph([(0, 1), (0, 1), (1, 2), (1, 2), (0, 2), (0, 2)], 3, 0),
    }
    for n in primitive:
        groups: dict[tuple[int, ...], list[OrientedGraph]] = {}
        for g in primitive[n]:
            row = tuple(canonical_row(decomplete(g, 0), MATCH_PRIMES))
            groups.setdefault(row, []).append(g)
        for row, group in groups.items():
            names = [name for name in ROWS if name.startswith(f"P_{n - 2}_")
                     and tuple(ROWS[name][:5]) == row]
            group.sort(key=triangles, reverse=True)
            counts = [triangles(g) for g in group]
            assert len(names) == len(group) and len(set(counts)) == len(counts), \
                (names, counts)
            named.update(zip(names, group))
    for name, spec in CIRCULANTS.items():
        g = circulant(*spec)
        if name in named:
            assert isomorphic(named[name], g), name
        else:
            named[name] = g
    print("named classes:", sorted(named))

    # spot-verify every named row at the matching primes
    for name, g in named.items():
        row = canonical_row(decomplete(g, g.vertex_count - 1), MATCH_PRIMES)
        assert row == ROWS[name][:5], (name, row)
    print("all named rows verified at p <= 13 (last-vertex decompletion)")

    # ------------------------------------------------------------------
    # relation certificates
    # ------------------------------------------------------------------
    cut = find_twist_cut(named["P_7_4"], named["P_7_7"])
    print("twist cut P_7_4 -> P_7_7:", cut.cut_vertices, sorted(cut.left_vertices))

    rotation = None
    dual_vertex = None
    dual_source = None
    for source, target in (("P_7_5", "P_7_10"), ("P_7_10", "P_7_5")):
        for v in range(named[source].vertex_count):
            dec = decomplete(named[source], v)
            rot = planar_rotation(dec)
            if rot is None:
                continue
            try:
                completed = complete(planar_dual(dec, rot))
            except GraphError:
                continue  # the dual's degrees allow no completion
            if isomorphic(completed, named[target]):
                rotation, dual_vertex, dual_source = rot, v, source
                break
        if rotation is not None:
            break
    assert rotation is not None, "no planar decompletion links the dual pair"
    dual_target = "P_7_10" if dual_source == "P_7_5" else "P_7_5"
    print(f"{dual_source} decompletion at vertex {dual_vertex} dualises to "
          f"a {dual_target} decompletion")

    # symmetry-zero flags for all named classes
    szp = {name: any_decompletion_szp(g) for name, g in named.items()}
    # the published list names P_3_1, P_7_5, P_7_9; the dual partner
    # P_7_10 shares P_7_5's sequence and also has a symmetric decompletion
    expected_szp = {"P_3_1", "P_7_5", "P_7_9", "P_7_10"}
    got = {n for n, v in szp.items() if v and not n.startswith("P_8")}
    assert got == expected_szp, got
    print("symmetry-zero flags:", sorted(n for n, v in szp.items() if v))

    # ------------------------------------------------------------------
    # emit catalog.json
    # ------------------------------------------------------------------
    # relations in both directions, between names that have rows
    relations: dict[str, dict] = {}
    for kind, pairs in (("twist", TWIST), ("dual", DUAL)):
        for a, b in pairs.items():
            if a in ROWS and b in ROWS:
                relations.setdefault(a, {})[kind] = b
                relations.setdefault(b, {})[kind] = a
    for eq in EQUAL_SETS:
        for name in eq:
            relations.setdefault(name, {})["equal"] = [x for x in eq if x != name]

    expr_dir = DATA / "expressions"
    entries = []
    for name in ROWS:
        loops = int(name.split("_")[1])
        g = named.get(name)
        entry = {
            "name": name,
            "loops": loops,
            "calV": 2,
            "calE": 1,
            "row": {str(p): r for p, r in zip(PRIMES_41, ROWS[name])},
            "completed": None,
            "relations": relations.get(name, {}),
        }
        if g is not None:
            entry["completed"] = {
                "vertices": g.vertex_count,
                "edges": [[t, h] for t, h in g.edges],
            }
            entry["symmetry_zero"] = szp.get(name, False)
        if (expr_dir / f"{name}.expr").exists():
            entry["expression"] = f"{name}.expr"
        if (expr_dir / f"completed_{name}.expr").exists():
            entry["completed_expression"] = f"completed_{name}.expr"
        if name in ETA:
            entry["eta_product"] = ETA[name]
        if name in COMMON:
            entry["common_names"] = COMMON[name]
        entries.append(entry)

    nonprimitive = []
    for n in classes:
        for g in classes[n]:
            if g not in primitive[n]:
                nonprimitive.append({
                    "name": f"fourregular_{n}_{len(nonprimitive) + 1}",
                    "vertices": n,
                    "edges": [[t, h] for t, h in g.edges],
                })

    catalog = {
        "schema": 1,
        "primes": PRIMES_41,
        "entries": entries,
        "certificates": {
            "twist_P_7_4": {
                "cut_vertices": list(cut.cut_vertices),
                "left_vertices": sorted(cut.left_vertices),
                "target": "P_7_7",
            },
            "dual_P_7_5": {
                "source": dual_source,
                "decompletion_vertex": dual_vertex,
                "rotation": {str(v): rotation[v] for v in sorted(rotation)},
                "target": dual_target,
            },
        },
        "nonprimitive_4regular": nonprimitive,
    }
    print(f"derived {len(entries)} entries, {len(nonprimitive)} auxiliary graphs")
    return catalog


def write_catalog(catalog: dict) -> None:
    """Write catalog.json and its CHECKSUMS line."""
    out = DATA / "catalog.json"
    out.write_text(json.dumps(catalog, indent=1) + "\n")
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    (DATA / "CHECKSUMS").write_text(f"{digest}  catalog.json\n")
    print(f"wrote {out}, sha256={digest[:16]}...")


if __name__ == "__main__":
    write_catalog(derive_catalog())
