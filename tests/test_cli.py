import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import egperm
import egperm.cli as cli
import egperm.expressions as expressions
import egperm.numtheory as numtheory
import egperm.permanent as permanent
import egperm.pointcount as pointcount
from egperm.expressions import MAX_LATTICE
from egperm.cli import main
from egperm.catalog import get_entry, load_expression
from egperm.graphs import format_graph, wheel
from test_expressions import deadline


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_compute_catalog_graph_json(capsys):
    code, out, _ = run(capsys, "compute", "--graph", "catalog:P_3_1",
                       "--bound", "13", "--json")
    assert code == 0
    payload = json.loads(out)
    entry = get_entry("P_3_1")
    got = dict(zip(payload["primes"], payload["residues"]))
    assert got == {p: entry.row[p] for p in (3, 5, 7, 11, 13)}


def test_compute_file_graph(tmp_path, capsys):
    path = tmp_path / "w4.graph"
    path.write_text(format_graph(wheel(4)))
    code, out, _ = run(capsys, "compute", "--graph", f"file:{path}",
                       "--bound", "7")
    assert code == 0
    assert "prime" in out and "7" in out


def test_table_appendix_b(capsys):
    code, out, _ = run(capsys, "table", "--appendix", "B",
                       "--bound", "13", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["failures"] == 0
    statuses = {r["name"]: r["status"] for r in payload["rows"]}
    assert statuses["P_3_1"] == "ok"
    assert statuses["P_8_39"] == "no-expression"


def test_verify_relations(capsys):
    code, _, _ = run(capsys, "verify", "--suite", "relations", "--bound", "13")
    assert code == 0


def test_pointcount(capsys):
    code, out, _ = run(capsys, "pointcount", "--graph", "catalog:P_1_1",
                       "-p", "7")
    assert code == 0
    payload = json.loads(out)
    assert payload["coefficient_ok"] and payload["count_ok"]


def test_pointcount_runs_on_the_compact_lattice(capsys):
    # F_17^6 has 17^6 points, but the squares take only 9 values per axis
    code, out, _ = run(capsys, "pointcount", "--graph", "catalog:P_3_1",
                       "-p", "17")
    assert code == 0
    payload = json.loads(out)
    assert payload["coefficient_ok"] and payload["count_ok"]
    # beyond the caps: one error line, exit 2
    code, out, err = run(capsys, "pointcount", "--graph", "catalog:P_1_1",
                         "-p", "10000019")
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_pointcount_over_the_point_lattice_cap_exits_2(capsys, monkeypatch):
    # the coefficient cap always fires first at the default caps, so the
    # point cap is lowered to one point below P_1_1's lattice at p = 7,
    # where k = 3
    f = pointcount.permanent_polynomial(get_entry("P_1_1").decompletion())
    monkeypatch.setattr(pointcount, "MAX_POINT_LATTICE", (3 + 1) ** f.num_vars - 1)
    code, out, err = run(capsys, "pointcount", "--graph", "catalog:P_1_1", "-p", "7")
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "MAX_POINT_LATTICE" in err


def test_closed_form_over_the_lattice_cap_exits_2(capsys):
    # P_6_1 at p = 367: 184^3 points pass the cap; the largest prime runs
    # first, so the refusal comes before any smaller prime is evaluated
    assert 184 ** 3 > MAX_LATTICE
    code, out, err = run(capsys, "closed-form", "--name", "P_6_1", "--bound", "367")
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert f"MAX_LATTICE = {MAX_LATTICE}" in err


@pytest.mark.parametrize("argv", [("table", "--appendix", "B"),
                                  ("closed-form", "--name", "P_7_1")])
def test_stored_expressions_run_the_largest_prime_first(capsys, monkeypatch, argv):
    # the cap passes P_7_1's lattice at p = 37 but not at 41, so its
    # refusal comes before any smaller prime is evaluated (table B runs
    # the entries before P_7_1 in full, on smaller lattices)
    expr = load_expression(get_entry("P_7_1").expression_file, 2)
    monkeypatch.setattr(expressions, "MAX_LATTICE",
                        (expr.range_bound.value(numtheory.admissible_n(2, 37)) + 1)
                        ** len(expr.variables))
    calls = []
    monkeypatch.setattr(cli, "eval_expr", lambda e, p: calls.append((e, p))
                        or expressions.eval_expr(e, p))
    code, out, err = run(capsys, *argv, "--bound", "41")
    assert code == 2 and out == ""
    assert "MAX_LATTICE" in err
    assert [p for e, p in calls if e is calls[-1][0]] == [41]


def test_closed_pipe_exits_141_quietly():
    # the reader is gone before egp writes (it buffers its whole output):
    # no error line, and the status a shell gives a tool stopped by SIGPIPE
    src = Path(egperm.__file__).resolve().parent.parent
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), path] if path else [str(src)]))
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run([sys.executable, "-m", "egperm.cli", "table", "--appendix", "A",
                               "--bound", "13"], stdout=write, stderr=subprocess.PIPE,
                              env=env, check=False)
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (141, b"")


def test_modform_compare_default_eta(capsys):
    code, out, _ = run(capsys, "modform-compare", "--graph", "catalog:P_4_1",
                       "--bound", "41", "--json")
    assert code == 0
    assert json.loads(out)["match"] is True


def test_modform_compare_level_zero_exits_2(capsys):
    # eta(0) has no q-expansion; its Euler product used to loop forever
    with deadline(5):
        code, out, err = run(capsys, "modform-compare", "--graph", "catalog:P_3_1",
                             "--eta", "eta(0)^24 * eta(1)^24")
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "eta(0)" in err and err.count("\n") == 1


def test_modform_compare_refuses_primes_past_the_series(capsys):
    # eta_expand gives a_1..a_128, so the prime 397 could only end in
    # "coefficient a_397 beyond the expansion" after every smaller prime ran
    with deadline(1):
        code, out, err = run(capsys, "modform-compare", "--graph", "catalog:P_8_41",
                             "--eta", "eta(2)^12", "--bound", "400")
    assert (code, out) == (2, "")
    assert err.startswith("error: prime 397 ") and "a_128" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [("compute",), ("pointcount", "-p", "7")])
def test_absurd_vertex_count_exits_2(tmp_path, capsys, argv):
    # a header of 10^9 vertices ran out of memory in components()
    path = tmp_path / "huge.graph"
    path.write_text("V 1000000000\n0 1\n")
    with deadline(1):
        code, out, err = run(capsys, *argv, "--graph", f"file:{path}")
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "1000000000" in err
    assert err.count("\n") == 1


def test_modform_compare_csv_index_past_the_bound_cap_exits_2(tmp_path, capsys):
    # the series is dense up to its largest n; 10^10 ran out of memory
    path = tmp_path / "far.csv"
    path.write_text("10000000000,5\n")
    with deadline(1):
        code, out, err = run(capsys, "modform-compare", "--graph", "catalog:P_3_1",
                             "--csv", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "10000000000" in err
    assert err.count("\n") == 1


def test_dp_state_cap_exits_2_before_the_work(capsys):
    # at p = 397 a DP layer of P_8_41 may hold over ten million states;
    # without the cap this ran for minutes
    with deadline(1):
        code, out, err = run(capsys, "compute", "--graph", "catalog:P_8_41",
                             "--bound", "400")
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "DP_STATE_CAP" in err
    assert err.count("\n") == 1


def test_closed_form_family(capsys):
    code, out, _ = run(capsys, "closed-form", "--family", "wheel",
                       "--size", "4", "--bound", "13", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["primes"] == [3, 5, 7, 11, 13]
    assert len(payload["values"]) == 5


def test_closed_form_empty_tree_exits_2(capsys):
    # a tree of no vertices has no closed form; (-1) ** -1 printed as 1.0
    code, out, err = run(capsys, "closed-form", "--family", "tree",
                         "--size", "0", "--bound", "7")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_closed_form_without_source_exits_2(capsys):
    code, out, err = run(capsys, "closed-form", "--bound", "7")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "--family" in err and "--name" in err


@pytest.mark.parametrize("argv, message", [
    (("--family", "tree", "--size", "3", "--bound", "1"),
     "no admissible prime <= 1 for calV=1"),
    (("--name", "P_3_1", "--bound", "2"), "no admissible prime <= 2 for calV=2"),
    (("--name", "P_8_41",), "no stored expression for P_8_41"),
])
def test_closed_form_with_nothing_to_evaluate_exits_2(capsys, argv, message):
    # as compute, table and modform-compare do: one error line, no empty result
    code, out, err = run(capsys, "closed-form", *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


def test_modform_compare_without_eta_product_exits_2(capsys):
    code, out, err = run(capsys, "modform-compare", "--graph", "catalog:P_5_1",
                         "--bound", "7")
    assert (code, out) == (2, "")
    assert err == "error: no eta product on record for P_5_1\n"


def test_closed_form_conflicting_sources_exit_2(capsys):
    # --family evaluates a family formula; --name/--completed a stored one
    for extra in (("--name", "P_3_1"), ("--completed",)):
        code, out, err = run(capsys, "closed-form", "--family", "wheel",
                             *extra, "--bound", "7")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1


def test_catalog_listing(capsys):
    code, out, _ = run(capsys, "catalog", "--json")
    assert code == 0
    names = {r["name"] for r in json.loads(out)}
    assert {"P_1_1", "P_7_5", "P_8_39"} <= names


def test_unknown_catalog_graph_exits_2(capsys):
    code, _, err = run(capsys, "compute", "--graph", "catalog:nope",
                       "--bound", "13")
    assert code == 2
    assert "error" in err


def test_unreadable_file_exits_2(capsys):
    code, _, err = run(capsys, "compute", "--graph", "file:/no/such/file",
                       "--bound", "13")
    assert code == 2


def test_cap_override_env(capsys, monkeypatch):
    monkeypatch.setattr(permanent, "LATTICE_CAP", permanent.LATTICE_CAP)
    monkeypatch.setenv("EGPERM_LATTICE_CAP", "5")
    code, _, _ = run(capsys, "compute", "--graph", "catalog:P_1_1",
                     "--bound", "7")
    assert code == 0
    assert permanent.LATTICE_CAP == 5
    # the cap bounds the direct oracle's lattice
    code, _, err = run(capsys, "compute", "--graph", "catalog:P_1_1",
                       "--bound", "7", "--algorithm", "direct")
    assert code == 2
    assert "exceeds cap 5" in err


def test_bad_env_override_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(permanent, "LATTICE_CAP", permanent.LATTICE_CAP)
    monkeypatch.setenv("EGPERM_LATTICE_CAP", "abc")
    code, out, err = run(capsys, "compute", "--graph", "catalog:P_1_1",
                         "--bound", "7")
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "EGPERM_LATTICE_CAP" in lines[0]


@pytest.mark.parametrize("value", ["-5", "0"])
def test_nonpositive_env_override_exits_2(capsys, monkeypatch, value):
    # a cap below 1 would refuse every direct run; refuse the cap instead
    monkeypatch.setattr(permanent, "LATTICE_CAP", permanent.LATTICE_CAP)
    monkeypatch.setenv("EGPERM_LATTICE_CAP", value)
    code, out, err = run(capsys, "compute", "--graph", "catalog:P_1_1",
                         "--bound", "7", "--algorithm", "direct")
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "EGPERM_LATTICE_CAP" in lines[0] and value in lines[0]


def test_absurd_bound_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(numtheory, "BOUND_CAP", 50)
    code, out, err = run(capsys, "compute", "--graph", "catalog:P_1_1",
                         "--bound", "60")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "60" in err and "50" in err
    code, _, _ = run(capsys, "compute", "--graph", "catalog:P_1_1",
                     "--bound", "50")
    assert code == 0


def test_closed_form_bound_cap_exits_2(capsys, monkeypatch):
    # closed forms have a cap of their own, checked before the sieve
    monkeypatch.setattr(numtheory, "CLOSED_FORM_CAP", 50)
    for source in (("--family", "tree"), ("--name", "P_3_1")):
        code, out, err = run(capsys, "closed-form", *source, "--bound", "60")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "60" in err and "50" in err
    code, _, _ = run(capsys, "closed-form", "--family", "tree", "--bound", "50")
    assert code == 0


def test_zigzag_work_limit_exits_2(capsys):
    # the zig-zag DP costs (size - 3) convolutions per prime: a long chain or
    # a large bound is refused before any prime is sieved
    for size, bound in (("10000000", "5"), ("5", "10000")):
        code, out, err = run(capsys, "closed-form", "--family", "zigzag",
                             "--size", size, "--bound", bound)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert size in err and bound in err
    code, out, _ = run(capsys, "closed-form", "--family", "zigzag",
                       "--size", "5", "--bound", "400", "--json")
    assert code == 0
    assert json.loads(out)["primes"][-1] == 397


def test_bound_cap_spares_cheap_commands(capsys, monkeypatch):
    # closed forms and point counts are linear in p and not capped
    monkeypatch.setattr(numtheory, "BOUND_CAP", 50)
    code, out, _ = run(capsys, "closed-form", "--family", "wheel",
                       "--size", "4", "--bound", "60", "--json")
    assert code == 0
    assert json.loads(out)["primes"][-1] == 59
    code, out, _ = run(capsys, "pointcount", "--graph", "catalog:P_1_1",
                       "-p", "53")
    assert code == 0
    assert json.loads(out)["count_ok"]
