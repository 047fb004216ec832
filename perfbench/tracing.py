"""Layer spans recorded from outside the program.

:class:`Tracer` replaces public functions of each ``repro`` module with
wrappers that record a span (name, start, end, parent) per call, kept in
memory and written out at the end.  A span's *self* time is its duration
minus the durations of its direct children; since everything runs on one
thread, children never overlap.  :func:`layer_metrics` folds the spans and
the program's own telemetry counters into the per-layer metrics.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional


@dataclass
class Span:
    name: str
    parent: Optional["Span"]
    start: float
    end: float = 0.0
    children_s: float = 0.0
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.children_s

    def under(self, prefix: str) -> bool:
        """Whether an ancestor's name starts with ``prefix``."""
        node = self.parent
        while node is not None:
            if node.name.startswith(prefix):
                return True
            node = node.parent
        return False


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self._patched: List[tuple] = []

    def wrap(
        self,
        owner: Any,
        attribute: str,
        name: str,
        on_result: Optional[Callable[[Any], Dict[str, Any]]] = None,
    ) -> None:
        original = getattr(owner, attribute)
        stack, spans = self._stack, self.spans

        def traced(*args: Any, **kwargs: Any) -> Any:
            span = Span(name, stack[-1] if stack else None, time.perf_counter())
            stack.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if span.parent is not None:
                    span.parent.children_s += span.duration
                spans.append(span)
            if on_result is not None:
                span.attrs.update(on_result(result))
            return result

        self._patched.append((owner, attribute, original))
        setattr(owner, attribute, traced)

    def install(self) -> None:
        """Wrap the layer boundaries of every ``repro`` module."""
        from repro.audit.report import DataAuditor
        from repro.backends.sqlite import SqliteBackend
        from repro.detection.detector import ErrorDetector
        from repro.detection.incremental import IncrementalDetector
        from repro.engine.relation import Relation
        from repro.explorer.navigation import DataExplorer
        from repro.monitor.monitor import DataMonitor
        from repro.repair.incremental import IncrementalRepairer
        from repro.repair.repairer import BatchRepairer
        from repro.repair import source as repair_source
        from repro.sources.backend import BackendTupleSource
        from repro.system import semandaq

        rows = lambda result: {"rows": len(result)}  # noqa: E731
        violations = lambda report: {"violations": len(report.violations)}  # noqa: E731
        repair = lambda r: {  # noqa: E731
            "iterations": r.iterations,
            "residual": r.residual_violations,
        }
        system = semandaq.Semandaq
        for method in (
            "load_csv", "add_cfds", "detect", "detect_for_tuples", "audit",
            "explorer", "repair", "apply_repair", "apply_updates", "clean",
        ):
            self.wrap(system, method, f"system.{method}")
        # the facade calls the CSV loader through its own module namespace
        self.wrap(semandaq, "load_csv", "engine.load_csv")
        self.wrap(Relation, "copy", "engine.relation_copy")
        self.wrap(SqliteBackend, "add_relation", "backends.bulk_load")
        self.wrap(SqliteBackend, "execute", "backends.execute", rows)
        self.wrap(SqliteBackend, "apply_delta_batch", "backends.delta_batch")
        self.wrap(ErrorDetector, "detect", "detection.detect", violations)
        self.wrap(ErrorDetector, "detect_for_tuples", "detection.lookup", violations)
        # building the monitor's group state is set-up work; insert, delete
        # and update are the per-update absorption
        self.wrap(IncrementalDetector, "__init__", "detection.incremental_build")
        for method in ("insert", "delete", "update"):
            self.wrap(IncrementalDetector, method, f"detection.incremental.{method}")
        for method in (
            "row_count", "fetch_rows", "value_frequencies", "group_member_counts",
            "covering_member_tids", "majority_values", "pattern_group_freq",
            "applicable_count", "page",
        ):
            self.wrap(BackendTupleSource, method, f"sources.{method}")
        self.wrap(DataAuditor, "audit", "audit.audit")
        self.wrap(DataAuditor, "audit_source", "audit.audit_source")
        for method in (
            "list_cfds", "patterns_for", "lhs_matches", "rhs_values",
            "tuples_page", "explain_tuple",
        ):
            self.wrap(DataExplorer, method, f"explorer.{method}")
        self.wrap(BatchRepairer, "repair", "repair.plan_native", repair)
        self.wrap(BatchRepairer, "repair_with_source", "repair.plan", repair)
        for method in ("load", "begin_round", "column_frequencies"):
            self.wrap(repair_source.BackendRepairSource, method, f"repair.source.{method}")
        self.wrap(IncrementalRepairer, "repair_updates", "repair.increpair", repair)
        self.wrap(DataMonitor, "apply_batch", "monitor.apply_batch")
        self.wrap(DataMonitor, "repair_affected", "monitor.repair_affected")

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patched):
            setattr(owner, attribute, original)
        self._patched.clear()

    def write(self, path: str) -> None:
        """Write the spans as JSON lines: name, start/end (s), parent index."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "name": span.name,
                            "start": span.start,
                            "end": span.end,
                            "parent": index.get(id(span.parent)),
                            **span.attrs,
                        }
                    )
                    + "\n"
                )


def layer_metrics(
    spans: List[Span], counters: Dict[str, Any], systems: int
) -> Dict[str, float]:
    """Per-layer totals over one traced round (times in ms).

    ``counters`` are the program's telemetry counters summed over the
    round's ``systems`` (one per set-up).
    """

    def pick(name: str, where: Callable[[Span], bool] = lambda s: True) -> List[Span]:
        """Spans called ``name``, or under it when ``name`` ends with a dot."""
        if name.endswith("."):
            return [s for s in spans if s.name.startswith(name) and where(s)]
        return [s for s in spans if s.name == name and where(s)]

    def total(name: str, self_only: bool = False, where=lambda s: True) -> float:
        return 1000.0 * sum(
            s.self_time if self_only else s.duration for s in pick(name, where)
        )

    def attr(name: str, key: str, where=lambda s: True) -> int:
        return sum(s.attrs.get(key, 0) for s in pick(name, where))

    def parent_layer(s: Span) -> str:
        return s.parent.layer if s.parent is not None else ""

    detection_rows = attr(
        "backends.execute",
        "rows",
        lambda s: s.parent is not None
        and s.parent.name in ("detection.detect", "detection.lookup"),
    )
    reported = attr("detection.detect", "violations") + attr("detection.lookup", "violations")
    hits = counters.get("plan_cache.hits", 0)
    misses = counters.get("plan_cache.misses", 0)
    increpairs = [s for s in spans if s.name == "repair.increpair"]
    converged = sum(1 for s in increpairs if s.attrs.get("residual", 0) == 0)
    not_increpair = lambda s: not s.under("repair.increpair")  # noqa: E731
    return {
        "engine.load_csv_ms": total("engine.load_csv"),
        "engine.relation_copy_ms": total("engine.relation_copy"),
        "backends.bulk_load_ms": total("backends.bulk_load"),
        "backends.execute_ms": total("backends.execute"),
        "backends.statements": len(pick("backends.execute")),
        "backends.rows_returned": attr("backends.execute", "rows"),
        "backends.delta_batch_ms": total("backends.delta_batch"),
        "backends.delta_batches": len(pick("backends.delta_batch")),
        "detection.detect_self_ms": total("detection.detect", True),
        "detection.lookup_self_ms": total("detection.lookup", True),
        "detection.rows_per_violation": detection_rows / reported if reported else 0.0,
        "detection.plan_cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "detection.incremental_build_ms": total("detection.incremental_build"),
        "detection.incremental_self_ms": total("detection.incremental.", True),
        "sources.read_ms": total("sources.", where=lambda s: parent_layer(s) != "sources"),
        "sources.rows_fetched": attr(
            "backends.execute", "rows", lambda s: parent_layer(s) == "sources"
        ),
        "audit.classify_self_ms": total("audit.", True),
        "explorer.self_ms": total("explorer.", True),
        "repair.plan_self_ms": total("repair.plan", True, not_increpair)
        + total("repair.source.", True, not_increpair),
        "repair.rounds": attr("repair.plan", "iterations", not_increpair),
        "repair.rows_fetched": counters.get("repair.rows_fetched", 0),
        "repair.fetch_fraction": counters.get("repair.fetch_fraction", 0) / 100.0,
        "repair.fallback_shipback": counters.get("repair.fallback_shipback", 0),
        "repair.increpair_ms": total("repair.increpair"),
        "repair.increpair_batches": len(increpairs),
        "repair.increpair_rounds": attr("repair.increpair", "iterations"),
        # vacuously 1.0 on a workload whose stream runs no IncRepair
        "repair.increpair_converged_ratio": converged / len(increpairs) if increpairs else 1.0,
        "monitor.apply_batch_ms": total("monitor.apply_batch"),
        "system.apply_repair_ms": total("system.apply_repair"),
        "system.full_syncs": counters.get("sync.full", 0) / systems,
    }
