"""egperm benchmark: one seeded, checked, closed-loop workload per run.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the library is imported from ``src/``.  One
client sends requests back to back (closed loop) in rounds until S seconds
have gone by.  Every round holds the same kinds of request on inputs drawn
afresh from the seed.  Every value a request computes is compared with a
reference.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
line before it is a report with the environment, the input digest,
``fail_ratio`` and every failing cell.

Exit status: 0 when every cell is correct, 1 on any mismatch or exception
or, with ``--trace 1``, when the traced layers cover less than 90% of the
traced wall time, 2 when egperm cannot be imported or the arguments are
bad.  See perfbench/README.md.
"""

from __future__ import annotations

import os

# one thread per process, so the single client measures the program and
# not the scheduler; set before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SETUP_PROBES = 7        # fresh processes timed per run for setup_s
TAIL_BEYOND = 10        # requests that must lie above the tail percentile
MIN_COVERAGE = 0.9      # traced layers must cover this share of the traced wall

END_TO_END_UNITS = {"setup_s": "s", "cells_per_s": "1/s", "request_p50_s": "s",
                    "request_tail_s": "s", "peak_rss_mb": "MB",
                    "fail_ratio": "ratio"}


class Tally:
    """Latencies, checked cells and named failures of a stretch of rounds."""

    def __init__(self):
        self.latencies: list[float] = []
        self.rounds: list[tuple[float, int]] = []   # wall, cells checked
        self.attempted = 0
        self.checked = 0            # cells of requests that returned
        self.failed = 0
        self.failures: list[str] = []
        self.wall = 0.0

    @property
    def requests(self) -> int:
        return len(self.latencies)

    @property
    def correct(self) -> bool:
        return self.failed == 0

    def record(self, req, checks, error, seconds: float) -> None:
        self.latencies.append(seconds)
        self.attempted += req.cells
        if error is not None:
            self._fail(req.cells, f"{req.label}: raised "
                       f"{type(error).__name__}: {error}")
            return
        if len(checks) != req.cells:
            self._fail(req.cells, f"{req.label}: returned {len(checks)} "
                       f"cells, expected {req.cells}")
            return
        self.checked += len(checks)
        for cell, got, want in checks:
            if got != want:
                self._fail(1, f"{req.label} {cell}: got {got!r}, want {want!r}")

    def _fail(self, cells: int, name: str) -> None:
        self.failed += cells
        self.failures.append(name)

    def merge(self, other: "Tally") -> None:
        """Add another stretch's cell counts and failures to this one."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.failures += other.failures


def measure(rounds, seconds: float | None = None, count: int | None = None,
            tracer=None, after_round=None, whole_rounds: bool = True) -> Tally:
    """Closed loop over rounds, until ``seconds`` or ``count`` rounds.

    The next request starts when the previous one has returned.  The first
    round is always finished; later rounds are cut at ``seconds`` unless
    ``whole_rounds``.  ``after_round`` runs between rounds, outside the
    timed stretch.
    """
    tally = Tally()
    timed = 0.0
    for requests in rounds:
        if count is not None and len(tally.rounds) >= count:
            break
        if seconds is not None and timed >= seconds:
            break
        cells, t_round = tally.checked, time.perf_counter()
        for req in requests:
            if (not whole_rounds and tally.rounds and
                    timed + time.perf_counter() - t_round >= seconds):
                break
            if tracer is not None:
                tracer.request = tally.requests
            t0 = time.perf_counter()
            try:
                checks, error = req.call(), None
            except Exception as exc:  # counted and named as a failing request
                checks, error = None, exc
            tally.record(req, checks, error, time.perf_counter() - t0)
        wall = time.perf_counter() - t_round
        if tracer is not None:
            tracer.request = "build"    # the next round's inputs
        tally.rounds.append((wall, tally.checked - cells))
        timed += wall
        if after_round is not None:
            after_round()
    tally.wall = timed
    return tally


def tail(latencies: list[float]) -> tuple[float, float]:
    """Highest percentile with TAIL_BEYOND requests above it, and its value."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return 100.0, xs[-1]
    return 100.0 * (n - TAIL_BEYOND) / n, xs[n - TAIL_BEYOND - 1]


def probe_setup(workload: str, seed: int) -> tuple[float, str]:
    """Seconds from starting a fresh process until its inputs are ready."""
    cmd = [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload, str(seed)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        digest = proc.stdout.readline().strip()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or not digest:
        raise RuntimeError(f"set-up probe exited with {code}")
    return elapsed, digest


def environment(seed: int) -> dict:
    import numpy
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": model or platform.processor(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "seed": seed,
            "threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS",
                                                   "OPENBLAS_NUM_THREADS",
                                                   "MKL_NUM_THREADS")}}


def run_plain(name: str, seed: int, seconds: float):
    from workloads import Workload
    samples, digests = [], set()
    start = time.perf_counter()

    def probe(now: bool = False):
        # spread over the run, so one slow stretch of the host sways few
        due = start + len(samples) * seconds / SETUP_PROBES
        if len(samples) < SETUP_PROBES and (now or time.perf_counter() >= due):
            elapsed, digest = probe_setup(name, seed)
            samples.append(elapsed)
            digests.add(digest)

    probe()
    workload = Workload(name, seed)
    tally = measure(workload.rounds(), seconds=seconds, after_round=probe,
                    whole_rounds=False)
    while len(samples) < SETUP_PROBES:
        probe(now=True)
    digests.add(workload.digest)
    if len(digests) != 1:
        raise RuntimeError(f"the same seed gave different inputs: {sorted(digests)}")
    percentile, tail_s = tail(tally.latencies)
    values = {
        "setup_s": statistics.median(samples),
        "cells_per_s": tally.checked / tally.wall,
        "request_p50_s": statistics.median(tally.latencies),
        "request_tail_s": tail_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "fail_ratio": tally.failed / tally.attempted,
    }
    report = {"setup_samples_s": samples,
              "rounds": len(tally.rounds), "wall_s": tally.wall,
              "round_walls_s": [w for w, _ in tally.rounds],
              "tail_percentile": percentile,
              "end_to_end": {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                             for k, v in values.items()}}
    del values["fail_ratio"]    # carried by attempted/failed in the result
    return workload, tally, report, values


def run_traced(name: str, seed: int, seconds: float, sizes=None):
    from tracing import Tracer
    from workloads import Sizes, Workload
    sizes = sizes or Sizes()
    tracer = Tracer()
    tracer.install()
    try:
        workload = Workload(name, seed, sizes)
        tables = tracer.original("numtheory", "mod_tables")
        before = tables.cache_info()
        traced = measure(workload.rounds(), seconds=seconds / 2, tracer=tracer)
        after = tables.cache_info()
    finally:
        tracer.uninstall()
    # the same rounds again without tracing, for the overhead
    plain = measure(Workload(name, seed, sizes).rounds(), count=len(traced.rounds))
    tally = traced
    tally.merge(plain)

    in_requests = lambda r: isinstance(r, int)  # noqa: E731
    run = tracer.summarize(in_requests)
    setup = tracer.summarize(lambda r: r == "setup")
    wall = traced.wall
    busy = run["layer_busy"]
    values = {
        "cofactor.calls": (run["layer_calls"]["cofactor"], "count"),
        "cofactor.busy_s": (busy["cofactor"], "s"),
        "cofactor.max_call_s": (run["layer_max"]["cofactor"], "s"),
        "cofactor.share": (busy["cofactor"] / wall, "ratio"),
        "cofactor.state_s": (run["name_time"]["cofactor.state_from_graph"], "s"),
        "numtheory.tables_hits": (after.hits - before.hits, "count"),
        "numtheory.tables_misses": (after.misses - before.misses, "count"),
        "sequences.egp_calls": (run["name_calls"]["sequences.egp"], "count"),
        "sequences.egp_self_s": (run["name_self"]["sequences.egp"], "s"),
        "sequences.canon_s": (tracer.outer_time(
            ("sequences.canonicalize_sign", "sequences.sequences_equal"),
            in_requests), "s"),
        "permanent.direct_calls": (run["name_calls"]["permanent.gperm_direct"], "count"),
        "permanent.direct_s": (run["name_time"]["permanent.gperm_direct"], "s"),
        "permanent.reduced_calls": (run["name_calls"]["permanent.gperm_reduced"], "count"),
        "permanent.reduced_s": (run["name_time"]["permanent.gperm_reduced"], "s"),
        "permanent.cap_refused": (tracer.counters["permanent.cap_refused"], "count"),
        "permanent.lattice_points": (tracer.counters["permanent.lattice_points"],
                                     "count-computed"),
        "permanent.lattice_bytes": (tracer.lattice_bytes_max, "bytes-computed"),
        "pointcount.reconcile_calls": (run["name_calls"]["pointcount.reconcile"], "count"),
        "pointcount.reconcile_s": (run["name_time"]["pointcount.reconcile"], "s"),
        "pointcount.points": (tracer.counters["pointcount.points"], "count-computed"),
        "expressions.eval_calls": (run["name_calls"]["expressions.eval_expr"], "count"),
        "expressions.eval_s": (run["name_time"]["expressions.eval_expr"], "s"),
        "modform.compare_calls": (run["name_calls"]["modform.compare"], "count"),
        "modform.expand_s": (run["name_time"]["modform.eta_expand"], "s"),
        "transforms.calls": (run["layer_calls"]["transforms"], "count"),
        "transforms.s": (run["layer_self"]["transforms"], "s"),
        "catalog.load_s": (setup["layer_self"]["catalog"], "s"),
        "graphs.build_s": (setup["layer_self"]["graphs"], "s"),
        "graphs.calls": (setup["layer_calls"]["graphs"], "count"),
        "trace.coverage": (run["root_time"] / wall, "ratio"),
        "trace.overhead_s": (traced.wall - plain.wall, "s"),
    }
    report = {
        "traced_wall_s": traced.wall, "untraced_wall_s": plain.wall,
        "coverage_within_10pct": values["trace.coverage"][0] >= MIN_COVERAGE,
        "spans": len(tracer.spans),
        "layers": {layer: {"self_s": run["layer_self"][layer],
                           "calls": run["layer_calls"][layer],
                           "busy_s": busy[layer]}
                   for layer in sorted(run["layer_calls"])},
    }
    spans_file = OUT_DIR / f"spans-{name}-seed{seed}.json"
    tracer.write(spans_file, {"workload": name, "digest": workload.digest,
                              "environment": environment(seed)})
    report["spans_file"] = str(spans_file.relative_to(ROOT))
    return workload, tally, report, values


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    src = ROOT / "src"
    sys.path[:0] = [str(src), str(BENCH_DIR)]
    try:
        import egperm
        from workloads import WORKLOADS
    except ImportError as exc:
        print(f"error: cannot import egperm from {src}: {exc}", file=sys.stderr)
        return 2
    if Path(egperm.__file__).resolve().parent != (src / "egperm").resolve():
        print(f"error: egperm was imported from {egperm.__file__}, not {src}",
              file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {WORKLOADS}")

    runner = run_traced if args.trace else run_plain
    workload, tally, report, values = runner(args.workload, args.seed, args.seconds)
    head = {"workload": args.workload, "trace": args.trace,
            "seconds": args.seconds, "environment": environment(args.seed),
            "inputs_digest": workload.digest, "requests": tally.requests,
            "cells_checked": tally.checked, "attempted": tally.attempted,
            "failed": tally.failed,
            "fail_ratio": tally.failed / tally.attempted}
    report = {**head, **report, "failing_cells": tally.failures}
    if args.trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in values.items()}
    correct = tally.correct and report.get("coverage_within_10pct", True)
    if not correct:
        print(f"error: {tally.failed} cells failed; coverage within 10%: "
              f"{report.get('coverage_within_10pct')}",
              file=sys.stderr)
    print(json.dumps(report))
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
