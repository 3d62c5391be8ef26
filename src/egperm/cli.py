"""Command-line interface.

Subcommands: compute, table, verify, pointcount, modform-compare,
closed-form, catalog.  Graphs are addressed as ``file:<path>`` (text
format) or ``catalog:<name>`` (bundled decompletion).  ``--algorithm
auto`` (the default) runs the cofactor calculus; ``direct`` and
``reduced`` are the block Glynn cross-check oracles, which sum half of
Glynn's sign lattice (the permanent is the determinant over GF(2) at
p = 2).  ``EGPERM_LATTICE_CAP``, a positive integer, overrides their
lattice size limit.  Exit status is 1 when a verification or
reproduction check fails, 2 on bad input and 141 when the reader of
standard output has gone.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from functools import partial

from . import numtheory, permanent
from .catalog import certificates, get_entry, load_catalog, load_expression
from .expressions import eval_expr
from .graphs import (GraphError, OrientedGraph, block_spec, decomplete,
                     parse_graph, wheel, zigzag)
from .modform import compare, eta_expand, parse_eta_product, residue_row, series_from_csv
from .numtheory import largest_first, require_admissible_primes
from .pointcount import reconcile
from .sequences import (ALGORITHMS, FAMILIES, EgpSequence, canonicalize_sign,
                        check_zigzag_work, egp, sequence_from_row, sequences_equal)
from .transforms import FourCutSpec, isomorphic, planar_dual, schnetz_twist


def _apply_cap_overrides() -> None:
    lattice = os.environ.get("EGPERM_LATTICE_CAP")
    if lattice:
        try:
            cap = int(lattice)
        except ValueError:
            cap = 0
        if cap < 1:
            raise ValueError(
                f"EGPERM_LATTICE_CAP must be a positive integer, got {lattice!r}")
        permanent.LATTICE_CAP = cap


def _load_graph(spec: str) -> tuple[OrientedGraph, str]:
    if spec.startswith("file:"):
        path = spec[5:]
        with open(path) as fh:
            g, _rotation = parse_graph(fh.read())
            return g, path
    if spec.startswith("catalog:"):
        name = spec[8:]
        return get_entry(name).decompletion(), name
    raise GraphError(f"graph spec must be file:<path> or catalog:<name>, got {spec!r}")


def _sequence_json(seq: EgpSequence) -> dict:
    return {
        "graph": seq.graph_id,
        "calV": seq.calV,
        "calE": seq.calE,
        "primes": seq.primes(),
        "residues": seq.residues(),
        "variate": [v.variate for v in seq.values],
    }


def _print_sequence(seq: EgpSequence, as_json: bool) -> None:
    if as_json:
        print(json.dumps(_sequence_json(seq)))
        return
    primes = seq.primes()
    res = seq.residues()
    var = ["*" if v.variate else " " for v in seq.values]
    w = [max(len(str(p)), len(str(r))) for p, r in zip(primes, res)]
    print("prime   " + "  ".join(str(p).rjust(k) for p, k in zip(primes, w)))
    print("residue " + "  ".join(str(r).rjust(k) for r, k in zip(res, w)))
    print("variate " + "  ".join(v.rjust(k) for v, k in zip(var, w)))


def cmd_compute(args) -> int:
    g, label = _load_graph(args.graph)
    seq = canonicalize_sign(egp(g, args.bound, algorithm=args.algorithm,
                                graph_id=label))
    _print_sequence(seq, args.json)
    return 0


def cmd_table(args) -> int:
    failures = 0
    report = []
    for entry in load_catalog():
        primes = [p for p in sorted(entry.row) if p <= args.bound]
        if args.appendix == "A":
            if not entry.has_edges:
                report.append({"name": entry.name, "status": "row-only"})
                continue
            got = canonicalize_sign(egp(entry.decompletion(), args.bound,
                                        algorithm=args.algorithm,
                                        graph_id=entry.name)).row()
        else:  # appendix B: stored closed-form expressions
            if entry.expression_file is None:
                report.append({"name": entry.name, "status": "no-expression"})
                continue
            expr = load_expression(entry.expression_file, entry.calV)
            raw = largest_first(partial(eval_expr, expr), primes)
            got = canonicalize_sign(sequence_from_row(
                entry.name, entry.calV, entry.calE, raw)).row()
        bad = [p for p in primes if got.get(p) != entry.row[p]]
        failures += len(bad)
        report.append({"name": entry.name,
                       "status": "ok" if not bad else f"mismatch at {bad}"})
    if args.json:
        print(json.dumps({"appendix": args.appendix, "rows": report,
                          "failures": failures}))
    else:
        for r in report:
            print(f"{r['name']:>8}  {r['status']}")
        print(f"{failures} mismatching cells")
    return 1 if failures else 0


def _verify_invariance(bound: int, rng: random.Random) -> list[str]:
    problems = []
    for entry in load_catalog():
        if not entry.has_edges or entry.loops > 7:
            continue
        comp = entry.completed_graph()
        base = None
        for v in range(comp.vertex_count):
            dec = decomplete(comp, v)
            seq = canonicalize_sign(egp(dec, bound, graph_id=entry.name))
            if base is None:
                base = seq
            elif not sequences_equal(base, seq):
                problems.append(f"{entry.name}: decompletion at {v} differs")
        # special-vertex invariance on one decompletion; auto would choose
        # its own special vertex, cofactor computes at the given one
        dec = entry.decompletion()
        for v in range(min(dec.vertex_count, 3)):
            moved = OrientedGraph(dec.vertex_count, dec.edges, v)
            if not sequences_equal(base, canonicalize_sign(egp(
                    moved, bound, algorithm="cofactor", graph_id=entry.name))):
                problems.append(f"{entry.name}: special vertex {v} differs")
        # orientation fuzz
        dec = entry.decompletion()
        for _ in range(3):
            flipped = tuple((h, t) if rng.random() < 0.5 else (t, h)
                            for t, h in dec.edges)
            moved = OrientedGraph(dec.vertex_count, flipped, dec.special_vertex)
            if not sequences_equal(base, canonicalize_sign(
                    egp(moved, bound, graph_id=entry.name))):
                problems.append(f"{entry.name}: reorientation differs")
    return problems


def _verify_relations(bound: int) -> list[str]:
    problems = []
    certs = certificates()
    twist = certs["twist_P_7_4"]
    g = get_entry("P_7_4").completed_graph()
    cut = FourCutSpec(tuple(twist["cut_vertices"]),
                      frozenset(twist["left_vertices"]))
    twisted = schnetz_twist(g, cut)
    if not isomorphic(twisted, get_entry(twist["target"]).completed_graph()):
        problems.append("stored twist cut does not map P_7_4 to P_7_7")
    dual = certs["dual_P_7_5"]
    dec = get_entry(dual["source"]).completed_graph()
    dec = decomplete(dec, dual["decompletion_vertex"])
    rotation = {int(v): e for v, e in dual["rotation"].items()}
    dual_graph = planar_dual(dec, rotation)
    a = egp(dec, bound, graph_id=dual["source"])
    b = egp(dual_graph, bound, graph_id=dual["target"])
    if not sequences_equal(a, b):
        problems.append("planar dual sequence differs")
    for entry in load_catalog():
        for other in entry.relations.get("equal", []):
            if not sequences_equal(entry.row_sequence(),
                                   get_entry(other).row_sequence()):
                problems.append(f"stored rows differ: {entry.name} vs {other}")
    return problems


def cmd_verify(args) -> int:
    rng = random.Random(20240823)
    problems = []
    if args.suite in ("invariance", "all"):
        problems += _verify_invariance(args.bound, rng)
    if args.suite in ("relations", "all"):
        problems += _verify_relations(args.bound)
    for p in problems:
        print("FAIL:", p)
    print(f"suite {args.suite}: {'ok' if not problems else f'{len(problems)} failures'}")
    return 1 if problems else 0


def cmd_pointcount(args) -> int:
    g, label = _load_graph(args.graph)
    report = reconcile(g, args.prime)
    report["graph"] = label
    print(json.dumps(report))
    return 0 if report["coefficient_ok"] else 1


def cmd_modform(args) -> int:
    g, label = _load_graph(args.graph)
    if args.eta:
        series = eta_expand(parse_eta_product(args.eta))
    elif args.csv:
        series = series_from_csv(args.csv)
    else:
        entry = get_entry(label)
        if entry.eta_product is None:
            raise ValueError(f"no eta product on record for {label}")
        series = eta_expand(parse_eta_product(entry.eta_product))
    numtheory.check_bound(args.bound)
    last = require_admissible_primes(block_spec(g).calV, args.bound)[-1]
    if last > len(series.coeffs):
        raise ValueError(f"prime {last} is past the last coefficient "
                         f"a_{len(series.coeffs)} of {series.label}; lower --bound")
    seq = egp(g, args.bound, graph_id=label)
    ok = compare(seq, series)
    row = residue_row(series, seq.primes())
    out = {"graph": label, "series": series.label, "match": ok,
           "primes": seq.primes(),
           "egp": canonicalize_sign(seq).residues(),
           "a_p_mod_p": [row[p] for p in seq.primes()]}
    print(json.dumps(out) if args.json else
          "\n".join(f"{k}: {v}" for k, v in out.items()))
    return 0 if ok else 1


def cmd_closed_form(args) -> int:
    if args.family and (args.name or args.completed):
        raise ValueError("closed-form takes --family or --name [--completed], not both")
    numtheory.check_bound(args.bound, numtheory.CLOSED_FORM_CAP)
    if args.family == "zigzag":
        check_zigzag_work(args.size, args.bound)
    if args.family:
        calV, closed_form = FAMILIES[args.family]
        label = f"{args.family}({args.size})"
    elif args.name is None:
        raise ValueError("closed-form needs --family or --name")
    else:
        entry = get_entry(args.name)
        label, calV = entry.expression_file, entry.calV
        if args.completed:
            label = entry.completed_expression_file
            calV = block_spec(entry.completed_graph()).calV
        if label is None:
            raise ValueError(f"no stored expression for {args.name}")
    primes = require_admissible_primes(calV, args.bound)
    if args.family:
        # report under the canonical sign convention
        vals = canonicalize_sign(sequence_from_row(
            label, calV, 1, largest_first(partial(closed_form, args.size), primes))).row()
    else:
        vals = largest_first(partial(eval_expr, load_expression(label, calV)), primes)
    out = {"source": label, "primes": sorted(vals), "values": [vals[p] for p in sorted(vals)]}
    print(json.dumps(out) if args.json else
          "\n".join(f"p={p}: {vals[p]}" for p in sorted(vals)))
    return 0


def cmd_catalog(args) -> int:
    rows = []
    for e in load_catalog():
        rows.append({
            "name": e.name, "loops": e.loops,
            "edges": "present" if e.has_edges else "absent",
            "relations": e.relations,
            "symmetry_zero": e.symmetry_zero,
            "expression": e.expression_file is not None,
            "eta_product": e.eta_product,
        })
    if args.json:
        print(json.dumps(rows))
    else:
        for r in rows:
            rel = ", ".join(f"{k}:{v}" for k, v in r["relations"].items())
            print(f"{r['name']:>8}  loops={r['loops']}  edges={r['edges']:7}  {rel}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="egp",
                                 description="extended graph permanent toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_graph(p):
        p.add_argument("--graph", required=True,
                       help="file:<path> or catalog:<name>")

    p = sub.add_parser("compute", help="EGP sequence of a graph")
    add_graph(p)
    p.add_argument("--bound", type=int, default=41)
    p.add_argument("--algorithm", choices=ALGORITHMS, default="auto")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_compute)

    p = sub.add_parser("table", help="reproduce the stored residue tables")
    p.add_argument("--appendix", choices=("A", "B"), default="A")
    p.add_argument("--bound", type=int, default=41)
    p.add_argument("--algorithm", choices=ALGORITHMS, default="auto")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_table)

    p = sub.add_parser("verify", help="run invariance/relation property suites")
    p.add_argument("--suite", choices=("invariance", "relations", "all"),
                   default="all")
    p.add_argument("--bound", type=int, default=13)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("pointcount", help="finite-field reconciliation report")
    add_graph(p)
    p.add_argument("-p", "--prime", type=int, required=True)
    p.set_defaults(fn=cmd_pointcount)

    p = sub.add_parser("modform-compare", help="compare EGP with form coefficients")
    add_graph(p)
    p.add_argument("--eta", help="eta product spec, e.g. '-1 * eta(4)^6'")
    p.add_argument("--csv", help="CSV file of n,a_n coefficients")
    p.add_argument("--bound", type=int, default=41)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_modform)

    p = sub.add_parser("closed-form", help="evaluate family/stored closed forms")
    p.add_argument("--family", choices=tuple(FAMILIES))
    p.add_argument("--size", type=int, default=3,
                   help="vertex count (tree/zigzag) or rim length (wheel)")
    p.add_argument("--name", help="catalog entry with a stored expression")
    p.add_argument("--completed", action="store_true",
                   help="use the completed-graph expression")
    p.add_argument("--bound", type=int, default=41)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_closed_form)

    p = sub.add_parser("catalog", help="list bundled graphs")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_catalog)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _apply_cap_overrides()
        status = args.fn(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # the reader stopped early (`egp table | head -1`): end quietly,
        # with the status a shell gives a tool killed by SIGPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
