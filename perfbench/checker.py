"""Independent checker for the benchmark's outputs.

It knows the paper's CFDs phi1-phi4 in plain terms and computes their
violations with its own group-bys over rows read straight from the SQLite
file (``sqlite3``) or from the input CSV (``csv``).  It imports nothing
from ``repro``, so a fault in the program's detector cannot hide itself.

A violation is the tuple ``(cfd, kind, rhs_attribute, pattern_index,
lhs_values, tids)``:

* ``single``: one tuple whose constant-LHS pattern forces another RHS
  constant (phi4);
* ``multi``: every tuple of one LHS group that the pattern applies to, when
  the group holds more than one RHS value (phi1-phi3).
"""

from __future__ import annotations

import csv
import sqlite3
from collections import defaultdict
from typing import Any, Dict, Iterable, List, Mapping, Sequence, Set, Tuple

ATTRIBUTES = ("NAME", "CNT", "CITY", "ZIP", "STR", "CC", "AC")
TABLE = "customer"

Row = Dict[str, Any]
Violation = Tuple[str, str, str, int, Tuple[Any, ...], Tuple[int, ...]]

#: (cfd, LHS attributes, RHS attribute, applies-to filter) of phi1-phi3
_VARIABLE = (
    ("phi1", ("CNT", "ZIP"), "CITY", lambda row: True),
    ("phi2", ("CNT", "ZIP"), "STR", lambda row: row["CNT"] == "UK"),
    ("phi3", ("CC",), "CNT", lambda row: True),
)
#: phi4's pattern tuples: CC constant -> CNT constant
_CONSTANT = (("44", "UK"), ("01", "US"))


def read_db(path: str) -> Dict[int, Row]:
    """``tid -> row`` of the stored relation, read with ``sqlite3``."""
    conn = sqlite3.connect(f"file:{path}?mode=ro", uri=True)
    try:
        columns = ", ".join(f'"{a}"' for a in ATTRIBUTES)
        cursor = conn.execute(f'SELECT "_tid", {columns} FROM "{TABLE}"')
        return {values[0]: dict(zip(ATTRIBUTES, values[1:])) for values in cursor}
    finally:
        conn.close()


def read_csv(path: str) -> Dict[int, Row]:
    """``tid -> row`` of an input CSV (tids are the row order, from 0)."""
    with open(path, newline="") as fh:
        return {
            tid: {a: (row[a] if row[a] != "" else None) for a in ATTRIBUTES}
            for tid, row in enumerate(csv.DictReader(fh))
        }


def violations(rows: Mapping[int, Row]) -> Set[Violation]:
    """Every violation of phi1-phi4 in ``rows``."""
    for tid, row in rows.items():
        if any(row[a] is None for a in ("CNT", "CITY", "ZIP", "STR", "CC")):
            raise ValueError(f"tuple {tid} has a NULL CFD attribute")
    found: Set[Violation] = set()
    for cfd, lhs, rhs, applies in _VARIABLE:
        groups: Dict[Tuple[Any, ...], List[int]] = defaultdict(list)
        for tid, row in rows.items():
            if applies(row):
                groups[tuple(row[a] for a in lhs)].append(tid)
        for key, tids in groups.items():
            if len({rows[tid][rhs] for tid in tids}) > 1:
                found.add((cfd, "multi", rhs, 0, key, tuple(sorted(tids))))
    for index, (code, country) in enumerate(_CONSTANT):
        for tid, row in rows.items():
            if row["CC"] == code and row["CNT"] != country:
                found.add(("phi4", "single", "CNT", index, (code,), (tid,)))
    return found


def dirty_tids(found: Iterable[Violation]) -> Set[int]:
    return {tid for violation in found for tid in violation[5]}


def canonical(report_violations: Iterable[Any]) -> Set[Violation]:
    """The program's ``Violation`` objects (or their JSON lists) as tuples."""
    out: Set[Violation] = set()
    for v in report_violations:
        if isinstance(v, (list, tuple)):
            cfd, kind, rhs, index, lhs, tids = v
        else:
            cfd, kind, rhs, index = v.cfd_id, v.kind, v.rhs_attribute, v.pattern_index
            lhs, tids = v.lhs_values, v.tids
        out.add((cfd, kind, rhs, int(index), tuple(lhs), tuple(sorted(tids))))
    return out


def replay(start: Mapping[int, Row], batches: Sequence[Mapping[str, Any]]) -> Dict[int, Row]:
    """Apply the applied batches to ``start``, as the store should have.

    Each batch holds its ``updates``, the ``tids`` the program returned
    for them (new tids for inserts) and the ``repair`` cell changes
    IncRepair made afterwards (``[tid, attribute, value]``).  Raises
    ``ValueError`` when a batch is inconsistent: an insert reusing a live
    tid, an update of a missing tuple, or a repair outside the batch.
    """
    rows = {tid: dict(row) for tid, row in start.items()}
    for number, batch in enumerate(batches):
        for update, tid in zip(batch["updates"], batch["tids"]):
            op = update["op"]
            if op == "insert":
                if tid in rows:
                    raise ValueError(f"batch {number}: insert reused live tid {tid}")
                rows[tid] = {a: update["row"].get(a) for a in ATTRIBUTES}
                continue
            if tid != update["tid"] or tid not in rows:
                raise ValueError(f"batch {number}: {op} of missing tuple {update['tid']}")
            if op == "delete":
                del rows[tid]
            else:
                rows[tid].update(update["changes"])
        own = set(batch["tids"])
        for tid, attribute, value in batch.get("repair", ()):
            if tid not in own:
                raise ValueError(f"batch {number}: IncRepair changed tuple {tid} outside it")
            if tid in rows:
                rows[tid][attribute] = value
    return rows


def verify_round(dump: Mapping[str, Any]) -> List[str]:
    """Check one round's dumped outputs; returns what disagreed."""
    errors: List[str] = []
    inputs = read_csv(dump["csv"])
    for number, setup in enumerate(dump["setups"]):
        stored = read_db(setup["db"])
        if stored != inputs:
            errors.append(f"set-up {number}: stored relation differs from the input CSV")
        expected = violations(stored)
        got = canonical(setup["detect"])
        if got != expected:
            errors.append(
                f"set-up {number}: detect reports {len(got - expected)} violations "
                f"the checker does not find and misses {len(expected - got)}"
            )
    for number, path in enumerate(dump["cleans"]):
        left = violations(read_db(path))
        if left:
            errors.append(f"clean {number}: the checker finds {len(left)} violations left")
    if "stream_db" in dump:
        start = inputs if dump["stream_start"] is None else read_db(dump["stream_start"])
        try:
            expected_rows = replay(start, dump["batches"])
        except ValueError as exc:
            errors.append(f"stream: {exc}")
        else:
            stored = read_db(dump["stream_db"])
            if stored != expected_rows:
                differing = sum(1 for t in stored.keys() | expected_rows.keys()
                                if stored.get(t) != expected_rows.get(t))
                errors.append(f"stream: {differing} stored tuples differ from the replay")
            if canonical(dump["monitor_report"]) != violations(stored):
                errors.append("stream: the monitor's report differs from the checker")
    return errors

if __name__ == "__main__":
    import json
    import sys

    found = violations(read_csv(sys.argv[1]))
    print(json.dumps({"violations": len(found), "dirty_tuples": len(dirty_tids(found))}))
