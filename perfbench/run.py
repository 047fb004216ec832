"""End-to-end Semandaq benchmark: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload blanket-small --seed 1 --seconds 50 --trace 0

Runs the seeded input generator (``gen.py``) in its own process, then the
timed process (``workload.py``), then the independent checker
(``checker.py``) over what the timed process dumped.  Prints the
operations attempted and failed per kind, any check that failed, and as
the last line one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (every end-to-end metric with ``--trace 0``, every per-layer
metric with ``--trace 1``).  Exits non-zero without a result when the
program's sources are not next to the benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checker  # noqa: E402
import spec  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "detect_ms": "ms",
    "audit_ms": "ms",
    "explore_ms": "ms",
    "lookup_p50_ms": "ms",
    "lookup_p90_ms": "ms",
    "update_rows_per_s": "1/s",
    "clean_ms": "ms",
    "peak_rss_mib": "MiB",
}
PER_LAYER = {
    "engine.load_csv_ms": "ms",
    "engine.working_store_mib": "MiB",
    "engine.relation_copy_ms": "ms",
    "backends.bulk_load_ms": "ms",
    "backends.execute_ms": "ms",
    "backends.statements": "count",
    "backends.rows_returned": "count",
    "backends.delta_batch_ms": "ms",
    "backends.delta_batches": "count",
    "detection.detect_self_ms": "ms",
    "detection.lookup_self_ms": "ms",
    "detection.rows_per_violation": "ratio",
    "detection.plan_cache_hit_ratio": "ratio",
    "detection.incremental_build_ms": "ms",
    "detection.incremental_self_ms": "ms",
    "sources.read_ms": "ms",
    "sources.rows_fetched": "count",
    "audit.classify_self_ms": "ms",
    "explorer.self_ms": "ms",
    "repair.plan_self_ms": "ms",
    "repair.rounds": "count",
    "repair.rows_fetched": "count",
    "repair.fetch_fraction": "ratio",
    "repair.fallback_shipback": "count",
    "repair.increpair_ms": "ms",
    "repair.increpair_batches": "count",
    "repair.increpair_rounds": "count",
    "repair.increpair_converged_ratio": "ratio",
    "monitor.apply_batch_ms": "ms",
    "system.apply_repair_ms": "ms",
    "system.full_syncs": "count",
    "trace.overhead_ms": "ms",
    "trace.overhead_pct": "%",
    "trace.spans": "count",
}
#: seconds the timed process may take before the run is abandoned
TIMEOUT_S = 165


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true", help="reduced sizes (tests)")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"no program sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    work = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    inputs = os.path.join(work, "inputs")
    os.makedirs(inputs)
    # SQLite's and Python's temporary files stay inside the checkout too
    scratch = os.path.join(work, "tmp")
    os.makedirs(scratch)
    env = dict(os.environ, SQLITE_TMPDIR=scratch, TMPDIR=scratch)
    small = ["--small"] if args.small else []
    try:
        subprocess.run(
            [sys.executable, os.path.join(HERE, "gen.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--out", inputs, *small],
            check=True, stdout=subprocess.DEVNULL, timeout=TIMEOUT_S, env=env,
        )
        result_path = os.path.join(work, "result.json")
        spans_dir = os.path.join(ROOT, ".perfbench_out")
        os.makedirs(spans_dir, exist_ok=True)
        subprocess.run(
            [sys.executable, os.path.join(HERE, "workload.py"), "--workload", args.workload,
             "--inputs", inputs, "--work", work, "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--result", result_path,
             "--spans", os.path.join(spans_dir, f"spans-{args.workload}-{args.seed}.jsonl"),
             *small],
            check=True, timeout=TIMEOUT_S, env=env,
        )
        with open(result_path) as fh:
            result = json.load(fh)
        errors = list(result["errors"])
        for path in result["rounds"]:
            with open(path) as fh:
                errors.extend(f"{os.path.basename(path)}: {e}" for e in checker.verify_round(json.load(fh)))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed = result["attempted"], result["failed"]
    print("operations (attempted/failed): " + ", ".join(
        f"{kind} {attempted[kind]}/{failed.get(kind, 0)}" for kind in sorted(attempted)))
    for error in errors:
        print(f"CHECK FAILED: {error}")
    units = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": not errors,
        "attempted": sum(attempted.values()),
        "failed": sum(failed.values()),
        "metrics": {
            name: {"value": result["metrics"][name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
