"""Smoke test of the benchmark at a tiny size.

Run from the repository root:  python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import run  # noqa: E402
import workloads  # noqa: E402
from workloads import TINY, WORKLOADS, Request, Workload  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _names(section):
    return {m["name"] for m in SPEC[section]}


def test_spec_lists_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", WORKLOADS)
def test_rounds_are_checked_and_correct(name):
    w = Workload(name, 3, TINY)
    tally = run.measure(w.rounds(), count=2)
    assert tally.requests == 2 * len(w.first_round) and len(tally.rounds) == 2
    assert tally.attempted == 2 * sum(r.cells for r in w.first_round) > 0
    assert tally.correct, tally.failures


@pytest.mark.parametrize("name", WORKLOADS)
def test_rounds_draw_fresh_inputs_of_the_same_kinds(name):
    w = Workload(name, 3, TINY)
    first, second = w.first_round, w.round(1)
    assert sorted(r.label.split(":")[0] for r in first) == \
        sorted(r.label.split(":")[0] for r in second)
    assert sum(r.cells for r in first) == sum(r.cells for r in second)
    assert {r.key for r in first} != {r.key for r in second}


@pytest.mark.parametrize("name", WORKLOADS)
def test_digest_follows_the_seed(name):
    assert Workload(name, 5, TINY).digest == Workload(name, 5, TINY).digest
    assert Workload(name, 5, TINY).digest != Workload(name, 6, TINY).digest


def test_random_multigraphs_are_loopless_and_agree():
    import random
    for i in range(200):
        g = workloads.random_multigraph(random.Random(i))
        assert all(t != h for t, h in g.edges)
    w = Workload("oracle-crosscheck", 3, TINY)
    tally = run.measure(w.rounds(), count=2)
    assert tally.failed == 0 and tally.correct, tally.failures


def test_corrupted_reference_is_a_failure():
    w = Workload("catalog-sequences", 3, TINY)
    first = w.first_round[0]
    p = min(first.want)
    first.want[p] = (first.want[p] + 1) % p
    tally = run.measure([[first]])
    assert tally.failed == 1 and not tally.correct
    assert tally.failures[0].startswith(f"{first.label} p={p}:")


def test_tail_leaves_ten_requests_above():
    assert run.tail([float(i) for i in range(100)]) == (90.0, 89.0)
    assert run.tail([3.0, 1.0]) == (100.0, 3.0)


def test_only_the_first_round_is_whole():
    def call():
        time.sleep(0.01)
        return [("c", 1, 1)]

    rounds = iter([[Request(f"r{i}", 1, call, "") for i in range(10)]] * 5)
    tally = run.measure(rounds, seconds=0.15, whole_rounds=False)
    assert len(tally.rounds) == 2
    assert 10 < tally.requests < 20 and tally.correct


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_run_reports_every_layer_metric(name):
    _, tally, report, values = run.run_traced(name, 3, 0.2, TINY)
    assert set(values) == _names("per_layer")
    assert tally.requests > 0 and report["spans"] > 0
    assert run.MIN_COVERAGE <= values["trace.coverage"][0] <= 1
    assert report["coverage_within_10pct"]


@pytest.mark.parametrize("name", WORKLOADS)
def test_command_prints_the_contract_line(name):
    out = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    report, result = (json.loads(line) for line in out.stdout.splitlines()[-2:])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == _names("end_to_end")
    assert result["correct"] and result["attempted"] >= 1
    assert set(report["end_to_end"]) == _names("end_to_end") | {"fail_ratio"}
    assert report["fail_ratio"] == result["failed"] / result["attempted"]


def test_command_fails_without_the_library(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in BENCH_DIR.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0 and out.stdout == ""
