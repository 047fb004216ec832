"""The timed process: drives the ``Semandaq`` facade through one workload.

One *round* is the whole pipeline on fresh file-backed SQLite stores
(WAL, ``synchronous=NORMAL``, every other setting at its default):

1. set up ``setups`` times: open, ``load_csv``, ``add_cfds``, cold
   ``detect``, attach the monitor.  Every set-up but the last is cleaned
   (``clean``) and discarded; the cleansed workload cleans the last one
   too, which switches its monitor to incremental repair;
2. the update stream through the monitor of the last set-up, with warm
   ``detect``, ``audit``, the explorer walk and the ``detect_for_tuples``
   lookups spread between the batches.

Rounds repeat until ``--seconds`` have passed, so every run attempts whole
rounds of the same operations.  With ``--trace 1`` the process runs one
traced round and reports the per-layer split instead.

Outputs the checker compares against its own computations (the detection
reports, the applied batches and snapshots of the store) go to one JSON
file per round; checks that relate the program's outputs to each other
(warm detects against the monitor's report, lookups against the full
report, audit category sums, the explorer walk, IncRepair touching only
its own batch) run here, outside the timed calls.
"""

from __future__ import annotations

import argparse
import gc
import glob
import json
import os
import resource
import sqlite3
import sys
import time
import tracemalloc
from collections import Counter, defaultdict
from statistics import median
from typing import Any, Callable, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checker  # noqa: E402
import spec  # noqa: E402
import tracing  # noqa: E402
from repro.datasets import paper_cfds  # noqa: E402
from repro.engine.csvio import load_csv  # noqa: E402
from repro.monitor.updates import Update  # noqa: E402
from repro.system.config import SemandaqConfig  # noqa: E402
from repro.system.semandaq import Semandaq  # noqa: E402

RELATION = "customer"
#: A seed-independent IncRepair probe.  P has a postal code no generated
#: tuple has; Q ties 1:1 with the then-protected P in both the
#: [CNT, ZIP] -> [CITY] and the UK [ZIP] -> [STR] group.  IncRepair
#: (DataMonitor.repair_affected -> IncrementalRepairer.repair_updates)
#: does not converge on Q and leaves a violation, so the Q batch fails
#: every time; the third batch deletes both and restores a clean relation.
PROBE_P = {"NAME": "Probe One", "CNT": "UK", "CITY": "EDI", "ZIP": "ZZ9999",
           "STR": "Probe St", "CC": "44", "AC": "131"}
PROBE_Q = dict(PROBE_P, NAME="Probe Two", CITY="LDN", STR="Other Rd")

#: no round starts that would end past this many seconds (a run must end
#: within three minutes, generator and checker included)
ROUND_BUDGET_S = 120

AUDIT_CATEGORIES = ("verified clean", "probably clean", "arguably clean", "dirty")


class OpFailed(Exception):
    """An operation the rest of the round depends on failed."""


def to_update(u: Dict[str, Any]) -> Update:
    if u["op"] == "insert":
        return Update.insert(u["row"])
    if u["op"] == "delete":
        return Update.delete(u["tid"])
    return Update.modify(u["tid"], u["changes"])


def snapshot(source: str, target: str) -> None:
    """Copy the store with SQLite's backup API (a consistent image)."""
    src = sqlite3.connect(source)
    dst = sqlite3.connect(target)
    try:
        src.backup(dst)
    finally:
        dst.close()
        src.close()


def remove_store(path: str) -> None:
    for name in glob.glob(path + "*"):
        os.remove(name)


class Round:
    """One pass of the pipeline; collects samples, op counts and dumps."""

    def __init__(self, run: "Run", index: int, telemetry: bool):
        self.run = run
        self.w = run.workload
        self.index = index
        self.telemetry = telemetry
        self.system: Optional[Semandaq] = None
        self.store = ""
        self.dump: Dict[str, Any] = {"csv": run.csv}

    # -- bookkeeping --------------------------------------------------------------

    def op(self, kind: str, fn: Callable[..., Any], *args: Any) -> Any:
        """Time one operation; count it attempted, and failed if it raises."""
        self.run.attempted[kind] += 1
        start = time.perf_counter()
        try:
            result = fn(*args)
        except Exception as exc:  # counted and reported; the round stops
            self.run.failed[kind] += 1
            print(f"[{kind}] failed: {exc!r}", file=sys.stderr)
            raise OpFailed(kind) from exc
        return result, time.perf_counter() - start

    def sample(self, metric: str, value: float) -> None:
        self.run.samples[metric].append(value)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.run.errors.append(f"round {self.index}: {message}")

    def snap(self, label: str) -> str:
        path = os.path.join(self.run.work, f"round{self.index}-{label}.db")
        snapshot(self.store, path)
        return path

    # -- stages -------------------------------------------------------------------

    def _open(self, store: str, telemetry: Optional[bool] = None) -> Semandaq:
        system = Semandaq(
            SemandaqConfig(
                backend="sqlite",
                backend_options={"path": store},
                telemetry=self.telemetry if telemetry is None else telemetry,
            )
        )
        system.load_csv(self.run.csv, RELATION, infer_types=False)
        system.add_cfds(paper_cfds())
        system.detect(RELATION)
        system.monitor(RELATION)
        return system

    def setup(self, attempt: int) -> None:
        """One timed set-up; the round's first cold detect is checked."""
        self.close()
        self.store = os.path.join(self.run.work, f"store{self.index}-{attempt}.db")
        self.system, elapsed = self.op("setup", self._open, self.store)
        self.sample("setup_s", elapsed)
        report = self.system.last_report(RELATION)
        self.check(report.tuple_count == self.w.rows, "detect tuple_count")
        if attempt == 0:  # later set-ups load the same CSV
            self.dump["setups"].append(
                {"db": self.snap(f"setup{attempt}"),
                 "detect": sorted(checker.canonical(report.violations))}
            )

    def detect(self):
        """A warm detect; it must agree with the monitor's incremental report."""
        report, elapsed = self.op("detect", self.system.detect, RELATION)
        self.sample("detect_ms", 1000 * elapsed)
        canon = checker.canonical(report.violations)
        monitored = self.system.monitor(RELATION).current_report()
        self.check(canon == checker.canonical(monitored.violations), "detect != monitor report")
        return report, canon

    def audit(self, report) -> None:
        quality, elapsed = self.op("audit", self.system.audit, RELATION)
        self.sample("audit_ms", 1000 * elapsed)
        pie = quality.pie_chart()
        self.check(set(pie) == set(AUDIT_CATEGORIES), f"audit categories {sorted(pie)}")
        self.check(sum(pie.values()) == report.tuple_count, "audit categories sum")
        self.check(
            pie["dirty"] + pie["arguably clean"] == len(report.dirty_tids()),
            "audit dirty + arguably clean != report dirty tuples",
        )

    def _walk(self) -> List[tuple]:
        """The fixed drill-down walk, one per CFD; returns what it saw."""
        explorer = self.system.explorer(RELATION)
        seen = []
        for summary in explorer.list_cfds():
            patterns = explorer.patterns_for(summary.cfd_id)
            pattern = max(patterns, key=lambda p: (p.violating_tuples, -p.pattern_index))
            matches = explorer.lhs_matches(summary.cfd_id, pattern.pattern_index)
            if not matches:
                seen.append((summary, None, None, None, None))
                continue
            match = matches[0]
            values = explorer.rhs_values(summary.cfd_id, pattern.pattern_index, match.lhs_values)
            page = explorer.tuples_page(summary.cfd_id, pattern.pattern_index, match.lhs_values)
            explained = explorer.explain_tuple(page[0][0]) if page else None
            seen.append((summary, match, values, page, explained))
        return seen

    def explore(self, report) -> None:
        by_cfd: Dict[str, set] = defaultdict(set)
        for v in report.violations:
            by_cfd[v.cfd_id].update(v.tids)
        seen, elapsed = self.op("explore", self._walk)
        self.sample("explore_ms", 1000 * elapsed)
        self.check(len(seen) == 4, "explorer lists four CFDs")
        for summary, match, values, page, explained in seen:
            self.check(
                summary.violating_tuples == len(by_cfd[summary.cfd_id]),
                f"explorer {summary.cfd_id} violating tuples",
            )
            if match is None:
                continue
            lhs = list(summary.lhs)
            self.check(
                sum(v.tuple_count for v in values) == match.tuple_count,
                f"explorer {summary.cfd_id} RHS histogram != group size",
            )
            self.check(
                len(page) == min(match.tuple_count, 50)
                and all(tuple(r[a] for a in lhs) == tuple(match.lhs_values) for _, r in page),
                f"explorer {summary.cfd_id} page",
            )
            self.check(
                explained is not None and explained["row"] == page[0][1],
                f"explorer {summary.cfd_id} explain_tuple row",
            )

    def lookup(self, request: List[int], full: Dict[int, set]) -> None:
        result, elapsed = self.op("lookup", self.system.detect_for_tuples, RELATION, request)
        self.sample("lookup_ms", 1000 * elapsed)
        expected = set().union(*(full.get(tid, set()) for tid in request))
        self.check(checker.canonical(result.violations) == expected, f"lookup {request}")

    def batch(self, kind: str, updates: List[Dict[str, Any]]) -> List[int]:
        """Apply one batch; in repair mode, count it failed if violations remain."""
        monitor = self.system.monitor(RELATION)
        repairs_before = len(monitor.repairs())
        tids, elapsed = self.op(
            kind, self.system.apply_updates, RELATION, [to_update(u) for u in updates]
        )
        entry = {"updates": updates, "tids": tids}
        if monitor.cleansed:
            changes = [
                [c.tid, c.attribute, c.new_value]
                for repair in monitor.repairs()[repairs_before:]
                for c in repair.changes
            ]
            self.check(
                {tid for tid, _, _ in changes} <= set(tids),
                f"IncRepair changed tuples outside its {kind} batch",
            )
            entry["repair"] = changes
            if not monitor.current_report().is_clean():
                self.run.failed[kind] += 1
                entry["failed"] = True
        self.dump["batches"].append(entry)
        if kind == "batch" and not entry.get("failed"):
            self.run.stream_rows += len(updates)
            self.run.stream_s += elapsed
        return tids

    def probe(self) -> None:
        [p] = self.batch("probe", [{"op": "insert", "row": PROBE_P}])
        [q] = self.batch("probe", [{"op": "insert", "row": PROBE_Q}])
        self.batch("probe", [{"op": "delete", "tid": p}, {"op": "delete", "tid": q}])

    def clean(self, attempt: int) -> None:
        summary, elapsed = self.op("clean", self.system.clean, RELATION)
        self.sample("clean_ms", 1000 * elapsed)
        self.check(summary["violations_after"] == 0, "clean left violations")
        self.dump["cleans"].append(self.snap(f"clean{attempt}"))

    def stream(self) -> None:
        """The update stream, with the read stages spread between batches.

        Warm detects go to evenly spaced batches; audits and explorer walks
        ride on some of those detects, and the lookups are shared out among
        them.  Spreading every stage over the whole stream keeps its samples
        from sitting in one stretch of machine time.
        """
        w, stream, lookups = self.w, self.run.stream, self.run.lookups
        reads = spaced(w.detect_repeats, len(stream))
        audits = spaced(w.audit_repeats, w.detect_repeats)
        explores = spaced(w.explore_repeats, w.detect_repeats)
        monitor = self.system.monitor(RELATION)
        self.check(monitor.cleansed == w.cleansed_stream, "monitor mode")
        self.dump["batches"] = []
        for number, updates in enumerate(stream):
            self.batch("batch", updates)
            if w.cleansed_stream and number == len(stream) // 2:
                self.probe()
            if number not in reads:
                continue
            read = reads.index(number)
            report, canon = self.detect()
            if read in audits:
                self.audit(report)
            if read in explores:
                self.explore(report)
            full = by_tid(canon)
            for request in lookups[read::len(reads)]:
                self.lookup(request, full)
        self.dump["monitor_report"] = sorted(
            checker.canonical(monitor.current_report().violations)
        )
        self.dump["stream_db"] = self.snap("stream")

    def execute(self) -> None:
        """Set up (cleaning each discarded system), then the stream.

        ``clean_ms`` is always measured on a freshly loaded relation: the
        detection-mode workloads clean every set-up but the kept one, whose
        stream runs through the detection-mode monitor; the cleansed
        workload cleans every set-up, the kept one included, and streams
        through the cleansed monitor.
        """
        self.dump.update(setups=[], cleans=[], stream_start=None)
        for attempt in range(self.run.setups):
            self.setup(attempt)
            kept = attempt == self.run.setups - 1
            if self.w.cleansed_stream or not kept:
                self.clean(attempt)
        if self.w.cleansed_stream:
            self.dump["stream_start"] = self.dump["cleans"][-1]
        if self.run.after_setups is not None:
            self.run.after_setups(self)
        self.stream()

    def close(self) -> None:
        if self.system is not None:
            if self.telemetry:
                self.run.counters.update(self.system.metrics()["counters"])
                self.run.systems += 1
            self.system.close()
            self.system = None
            remove_store(self.store)
            gc.collect()


def spaced(count: int, slots: int) -> List[int]:
    """``count`` evenly spaced indices out of ``range(slots)``."""
    return sorted({int((i + 0.5) * slots / count) for i in range(count)})


def by_tid(violations) -> Dict[int, set]:
    index: Dict[int, set] = defaultdict(set)
    for v in violations:
        for tid in v[5]:
            index[tid].add(v)
    return index


class Run:
    def __init__(self, workload: spec.Workload, inputs: str, work: str):
        self.workload = workload
        self.csv = os.path.join(inputs, "customer.csv")
        with open(os.path.join(inputs, "stream.json")) as fh:
            self.stream = json.load(fh)
        with open(os.path.join(inputs, "lookups.json")) as fh:
            self.lookups = json.load(fh)
        self.work = work
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.attempted: Counter = Counter()
        self.failed: Counter = Counter()
        self.errors: List[str] = []
        self.stream_rows = 0
        self.stream_s = 0.0
        self.dumps: List[str] = []
        #: set-ups per round (the traced run sets up fewer times)
        self.setups = workload.setups
        #: the program's telemetry counters, summed over the closed systems
        self.counters: Counter = Counter()
        self.systems = 0
        #: called with the round between its set-ups and its stream (the
        #: traced run's overhead measurement)
        self.after_setups: Optional[Callable[[Round], None]] = None

    def round(self, telemetry: bool = False) -> Round:
        current = Round(self, len(self.dumps), telemetry)
        try:
            current.execute()
        except OpFailed as exc:
            self.errors.append(f"round {current.index} stopped: {exc} failed")
        finally:
            current.close()
        path = os.path.join(self.work, f"round{current.index}.json")
        with open(path, "w") as fh:
            json.dump(current.dump, fh)
        self.dumps.append(path)
        return current


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * q // 100) - 1)]


def end_to_end(run: Run) -> Dict[str, float]:
    s = run.samples
    return {
        "setup_s": median(s["setup_s"]),
        "detect_ms": median(s["detect_ms"]),
        "audit_ms": median(s["audit_ms"]),
        "explore_ms": median(s["explore_ms"]),
        "lookup_p50_ms": percentile(s["lookup_ms"], 50),
        "lookup_p90_ms": percentile(s["lookup_ms"], 90),
        "update_rows_per_s": run.stream_rows / run.stream_s,
        "clean_ms": median(s["clean_ms"]),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced(run: Run, spans_path: str) -> Dict[str, float]:
    """One traced round, then the per-layer split.

    The tracing overhead is measured inside the round: before the stream,
    warm ``detect`` calls alternate between the traced system and an
    untraced twin (telemetry off, wrappers removed) holding the same rows,
    so drift of the machine's speed cancels out of each pair.  The pairs'
    spans and counters are left out of the per-layer totals.
    """
    # the detection-mode workloads clean a discarded set-up, so the traced
    # round needs two of them to have a clean() in it
    run.setups = 1 if run.workload.cleansed_stream else 2
    tracer = tracing.Tracer()
    pairs: List[tuple] = []

    def overhead_pairs(current: Round) -> None:
        tracer.uninstall()
        twin_store = os.path.join(run.work, "twin.db")
        twin = current._open(twin_store, telemetry=False)
        if run.workload.cleansed_stream:
            twin.clean(RELATION)
        tracer.install()
        kept = len(tracer.spans)
        before = Counter(current.system.metrics()["counters"])
        for pair in range(run.workload.detect_repeats):
            timing = {}
            for on in (False, True) if pair % 2 == 0 else (True, False):
                system = current.system if on else twin
                if not on:
                    tracer.uninstall()
                start = time.perf_counter()
                system.detect(RELATION)
                timing[on] = time.perf_counter() - start
                if not on:
                    tracer.install()
            pairs.append((timing[False], timing[True]))
        del tracer.spans[kept:]
        run.counters.subtract(Counter(current.system.metrics()["counters"]) - before)
        twin.close()
        remove_store(twin_store)

    run.after_setups = overhead_pairs
    tracer.install()
    try:
        run.round(telemetry=True)
    finally:
        tracer.uninstall()
    layers = tracing.layer_metrics(tracer.spans, run.counters, run.systems)
    tracer.write(spans_path)
    # the working store's size: tracemalloc's delta across one CSV load
    gc.collect()
    tracemalloc.start()
    before = tracemalloc.get_traced_memory()[0]
    relation = load_csv(run.csv, RELATION, infer_types=False)
    layers["engine.working_store_mib"] = (
        tracemalloc.get_traced_memory()[0] - before
    ) / 2**20
    tracemalloc.stop()
    del relation
    untraced = median([u for u, _ in pairs])
    overhead = median([t - u for u, t in pairs])
    layers["trace.overhead_ms"] = 1000 * overhead
    layers["trace.overhead_pct"] = 100 * overhead / untraced
    layers["trace.spans"] = len(tracer.spans)
    return layers


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="where the traced run writes its spans")
    parser.add_argument("--result", required=True)
    parser.add_argument("--small", action="store_true", help="reduced sizes (tests)")
    args = parser.parse_args()

    run = Run(spec.get(args.workload, args.small), args.inputs, args.work)
    if args.trace:
        metrics = traced(run, args.spans or os.path.join(args.work, "spans.jsonl"))
    else:
        start = time.perf_counter()
        while True:
            began = time.perf_counter()
            run.round()
            now = time.perf_counter()
            if now - start >= args.seconds or now - start + (now - began) > ROUND_BUDGET_S:
                break
        metrics = end_to_end(run)
    with open(args.result, "w") as fh:
        json.dump(
            {
                "metrics": metrics,
                "attempted": dict(run.attempted),
                "failed": dict(run.failed),
                "errors": run.errors,
                "rounds": run.dumps,
                "samples": {k: len(v) for k, v in run.samples.items()},
            },
            fh,
        )


if __name__ == "__main__":
    main()
