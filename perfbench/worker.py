"""One cold run of one workload, in a fresh interpreter.

Usage: python3 perfbench/worker.py WORKLOAD SEED MODE

MODE is ``setup`` (set up, then exit), ``timed`` or ``traced``.  The
worker prints ``ready`` once set-up is done, so the parent can time
interpreter start, imports, ring parsing and ``exact_pair`` from outside.
Then it times each operation, summarizes its output out of the timed
region and prints one JSON line with the records.  A traced worker also
writes its spans under ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def run_op(call):
    """(output, error text, seconds) of one operation."""
    start = perf_counter()
    try:
        output, error = call(), None
    except Exception as exc:  # every refusal or crash is a failed operation
        output, error = None, f"{type(exc).__name__}: {exc}"
    return output, error, perf_counter() - start


def main(workload: str, seed: int, mode: str) -> int:
    tracer = None
    if mode == "traced":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    ops = workloads.WORKLOADS[workload](seed)
    print("ready", flush=True)
    if mode == "setup":
        return 0

    from totref.errors import TooLarge

    records = []
    report_bytes = report_nodes = 0
    for index, (key, call) in enumerate(ops):
        if tracer is not None:
            tracer.op = index
        output, error, seconds = run_op(call)
        record = {"key": key, "seconds": seconds, "error": error,
                  "digest": None, "summary": None}
        if error is None:
            record["digest"], record["summary"], nodes = \
                workloads.summarize(output)
            if isinstance(output, str):
                report_bytes += len(output.encode())
                report_nodes += nodes
        records.append(record)
    if tracer is not None:
        tracer.op = -1

    def refuse():
        raise TooLarge("self-check refusal")

    result = {
        "records": records,
        # an operation that raises, run through the same runner, for the
        # parent's self-check of the failure counter
        "refusal": run_op(refuse)[1],
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "report_bytes": report_bytes,
        "report_nodes": report_nodes,
    }
    if tracer is not None:
        out_dir = ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"spans-{workload}.jsonl")
        result["layers"] = tracer.layer_metrics()
        result["covered_s"] = tracer.covered_seconds()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], int(sys.argv[2]), sys.argv[3]))
