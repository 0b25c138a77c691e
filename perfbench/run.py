"""The totref benchmark: cold-process runs of one workload.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every run of the workload is a fresh interpreter (``worker.py``), as a CLI
user pays it: the process-wide caches of the program start empty each time.
One client runs one call after another in that interpreter (a closed loop).

``--trace 0`` sets up several times, then runs timed workers (at least
two) while the last one's duration says the next ends within ``--seconds``,
and reports the end-to-end metrics as medians over workers.  ``--trace 1``
runs one untraced worker and two traced ones and reports the per-layer
metrics; the two traced workers must give the same counts.  Every operation's output is checked against ``expected.json`` and
against the bytes of the first worker; one that differs or raises counts as
failed.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A worker that
crashes or overruns makes the benchmark exit 1 without that line.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import workloads

HERE = Path(__file__).resolve().parent

SETUP_ONLY_RUNS = 8
MIN_TIMED_RUNS = 2
# every worker must end this long after the benchmark starts
DEADLINE_S = 170.0

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# per-layer metrics; a name ending in one of COUNT_SUFFIXES is an exact
# count that must repeat between two traced runs of one seed
PER_LAYER = {
    **{f"fp.rref.{m}": u for m, u in (("calls", "count"), ("self_s", "s"),
                                      ("cells", "count"))},
    "fp.kernel.calls": "count", "fp.kernel.self_s": "s",
    "fp.extend_independent.calls": "count",
    "fp.extend_independent.self_s": "s",
    "fp.extend_independent.vectors": "count",
    "fp.solve.calls": "count", "fp.rank.calls": "count",
    "zn.howell.calls": "count", "zn.howell.self_s": "s",
    "zn.howell.cells": "count",
    "zn.SpanSolver.reduce.calls": "count",
    "zn.SpanSolver.reduce.self_s": "s",
    "zn.SpanSolver.solve.calls": "count",
    "zn.SpanSolver.solve.self_s": "s",
    "linalg.kernel_gens.calls": "count", "linalg.kernel_gens.self_s": "s",
    "linalg.kernel_gens.total_s": "s",
    "linalg.slice_matrix.calls": "count", "linalg.slice_matrix.self_s": "s",
    "linalg.solve_right.calls": "count", "linalg.solve_right.self_s": "s",
    "linalg.Matrix.arith.calls": "count",
    "linalg.check_exact_at.total_s": "s",
    "homcalc.hom_presentation.calls": "count",
    "homcalc.hom_presentation.distinct": "count",
    "homcalc.hom_presentation.repeat_share": "ratio",
    "homcalc.hom_presentation.self_s": "s",
    "homcalc.hom_presentation.total_s": "s",
    "homcalc.verify_end_ring.self_s": "s",
    "homcalc.hom_maps_from_presentation.self_s": "s",
    "homcalc.brute_force_hom_oracle.self_s": "s",
    "homcalc.noniso_certificate.total_s": "s",
    "homcalc.verify_hom_transpose.total_s": "s",
    "modules.minimal_generator_count.total_s": "s",
    "modules.fitting_ideal.total_s": "s",
    "modules.hilbert_function.total_s": "s",
    "modules.verify_iso_witness.total_s": "s",
    "family.verify_total_reflexivity.total_s": "s",
    "zerodiv.verify_regular_pair.total_s": "s",
    "zerodiv.exact_pair.total_s": "s",
    "report.to_json.calls": "count", "report.to_json.self_s": "s",
    "report.bytes": "bytes", "report.nodes": "count",
    "trace.coverage": "ratio", "trace.overhead_s": "s",
}
COUNT_SUFFIXES = (".calls", ".cells", ".vectors", ".distinct")


class WorkerFailed(Exception):
    pass


def spawn(workload: str, seed: int, mode: str, deadline: float) -> dict:
    """Run one worker; its result with ``setup_s`` timed from outside."""
    start = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), workload, str(seed), mode],
        stdout=subprocess.PIPE, text=True, cwd=HERE.parent)
    timer = threading.Timer(max(deadline - start, 0.0), proc.kill)
    timer.start()
    try:
        first = proc.stdout.readline()
        setup_s = perf_counter() - start
        rest = proc.stdout.read()
        proc.wait()
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
        proc.stdout.close()
    if proc.returncode != 0 or first.strip() != "ready":
        raise WorkerFailed(f"{mode} worker of {workload} exited with "
                           f"code {proc.returncode}")
    result = json.loads(rest.splitlines()[-1]) if mode != "setup" else {}
    result["setup_s"] = setup_s
    return result


def count_failures(runs: list[dict], expected: dict) -> tuple[int, int]:
    """(attempted, failed) over every operation of every run.

    An operation fails when it raised, when its checked values differ from
    the expected ones, or when its output bytes differ from the first run's.
    """
    reference = runs[0]["records"]
    attempted = failed = 0
    for run in runs:
        if len(run["records"]) != len(reference):
            raise WorkerFailed("workers of one seed ran different operations")
        for record, first in zip(run["records"], reference):
            attempted += 1
            if workloads.op_failed(record, expected) or \
                    record["digest"] != first["digest"]:
                failed += 1
    return attempted, failed


def self_check(runs: list[dict], expected: dict) -> tuple[int, int]:
    """Failures counted with one verdict flipped and one refusal fed in."""
    fed = [dict(run, records=[dict(r) for r in run["records"]])
           for run in runs]
    first = fed[0]["records"][0]
    first["summary"] = workloads.flip_verdict(first["summary"])
    last = fed[-1]["records"][-1]
    last.update(error=runs[-1]["refusal"], summary=None, digest=None)
    return count_failures(fed, expected)


def wall(run: dict) -> float:
    return sum(record["seconds"] for record in run["records"])


def measure(args, deadline: float):
    """End-to-end metrics with their sample counts, and the timed runs."""
    setups = [spawn(args.workload, args.seed, "setup", deadline)["setup_s"]
              for _ in range(SETUP_ONLY_RUNS)]
    runs: list[dict] = []
    start = last = perf_counter()
    # start a worker only while the previous one's duration says it ends
    # within --seconds, so a run lasts no longer than asked
    while len(runs) < MIN_TIMED_RUNS or \
            2 * perf_counter() - last - start <= args.seconds:
        last = perf_counter()
        runs.append(spawn(args.workload, args.seed, "timed", deadline))
    setups += [run["setup_s"] for run in runs]
    metrics = {
        "wall_s": (statistics.median(wall(run) for run in runs), len(runs)),
        "setup_s": (statistics.median(setups), len(setups)),
        "peak_rss_mb": (statistics.median(run["rss_mb"] for run in runs),
                        len(runs)),
    }
    return metrics, runs


def latency_lines(runs: list[dict]) -> list[str]:
    """op_p50_ms and op_p90_ms, where ten operations a worker lie beyond p90.

    Each percentile is taken within a worker, then as the median over
    workers, so one slow worker moves it no more than it moves wall_s.
    """
    ops = len(runs[0]["records"])
    if ops < 100:
        return []
    lines = []
    for share in (50, 90):
        value = statistics.median(
            statistics.quantiles([r["seconds"] * 1e3 for r in run["records"]],
                                 n=100, method="inclusive")[share - 1]
            for run in runs)
        lines.append(f"op_p{share}_ms = {value:.6g} ms "
                     f"(n={ops * len(runs)})")
    return lines


def measure_traced(args, deadline: float):
    """Per-layer metrics with their sample counts, and every run made."""
    plain = spawn(args.workload, args.seed, "timed", deadline)
    traced = [spawn(args.workload, args.seed, "traced", deadline)
              for _ in range(2)]
    first, second = (run["layers"] for run in traced)
    repeats = True
    for name in sorted(set(first) | set(second)):
        if name.endswith(COUNT_SUFFIXES) and \
                first.get(name) != second.get(name):
            print(f"count does not repeat: {name} "
                  f"{first.get(name)} != {second.get(name)}")
            repeats = False
    n = len(traced)
    metrics = {}
    for name in PER_LAYER:
        if name.endswith(COUNT_SUFFIXES):
            metrics[name] = (first.get(name, 0), n)
        else:
            metrics[name] = (statistics.median(run["layers"].get(name, 0.0)
                                               for run in traced), n)
    calls = first.get("homcalc.hom_presentation.calls", 0)
    distinct = first.get("homcalc.hom_presentation.distinct", 0)
    metrics["homcalc.hom_presentation.repeat_share"] = \
        (1 - distinct / calls if calls else 0.0, n)
    metrics["report.bytes"] = (traced[0]["report_bytes"], n)
    metrics["report.nodes"] = (traced[0]["report_nodes"], n)
    metrics["trace.coverage"] = (
        statistics.median(run["covered_s"] / wall(run) for run in traced), n)
    metrics["trace.overhead_s"] = (
        statistics.median(wall(run) for run in traced) - wall(plain), n)
    return metrics, [plain] + traced, repeats


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = perf_counter() + DEADLINE_S
    expected = workloads.load_expected(args.workload)
    try:
        if args.trace:
            metrics, runs, repeats = measure_traced(args, deadline)
            units = PER_LAYER
        else:
            metrics, runs = measure(args, deadline)
            repeats = True
            units = END_TO_END
        attempted, failed = count_failures(runs, expected)
        # the self-check needs clean records to flip and replace
        check = self_check(runs, expected) if failed == 0 else None
    except WorkerFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if check not in (None, (attempted, 2)):
        print(f"self-check failed: counted {check[1]} of {check[0]} "
              "failures, expected 2", file=sys.stderr)
        return 1

    print(f"workload {args.workload}, seed {args.seed}, {len(runs)} "
          "worker runs, one client in a closed loop")
    for name, (value, samples) in metrics.items():
        print(f"{name} = {value:.6g} {units[name]} (n={samples})")
    for line in [] if args.trace else latency_lines(runs):
        print(line)
    print(f"fail_share = {failed}/{attempted} = {failed / attempted:.6g} "
          f"(n={attempted})")
    if check is not None:
        print(f"self-check: one flipped verdict and one TooLarge give "
              f"fail_share = 2/{attempted}")
    print(json.dumps({
        "correct": failed == 0 and repeats,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, (value, _samples) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
