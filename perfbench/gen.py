"""Seeded input generator, run in its own process before the timed one.

Writes one workload's inputs into ``--out``:

* ``customer.csv``: the dirty relation (tids are the row order, from 0);
* ``stream.json``: the update batches (modify / insert / delete);
* ``lookups.json``: the tid sets of the ``detect_for_tuples`` requests;
* ``meta.json``: the make-up of the inputs (``python3 perfbench/checker.py
  DIR/customer.csv`` prints the violation and dirty counts they yield).

The same ``--workload``/``--seed`` always writes the same files.

    python3 perfbench/gen.py --workload blanket-small --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from collections import defaultdict
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import spec  # noqa: E402
from repro.datasets import generate_customers, inject_noise  # noqa: E402
from repro.engine.csvio import dump_csv  # noqa: E402


def make_stream(
    workload: spec.Workload,
    rows: Dict[int, Dict[str, Any]],
    corrupted_tids: set,
    rng: random.Random,
) -> List[List[Dict[str, Any]]]:
    """The seeded update batches.

    Each initial tuple is either deleted, set wrong or renamed (possibly
    several times), never two of these.  For the cleansed stream the dirty
    modifications go to (CNT, ZIP) groups of at least three
    tuples that the noise left alone and no other update touches, so the
    updated tuple is always outvoted by the protected ones and IncRepair
    has a clear majority to restore.
    """
    cities = sorted({row["CITY"] for row in rows.values()})
    groups: Dict[tuple, List[int]] = defaultdict(list)
    for tid, row in rows.items():
        groups[(row["CNT"], row["ZIP"])].append(tid)
    safe_groups = [
        key
        for key, members in sorted(groups.items())
        if not corrupted_tids.intersection(members)
    ]
    n_batches = workload.batches
    if workload.cleansed_stream:
        candidates = [key for key in safe_groups if len(groups[key]) >= 3]
        rng.shuffle(candidates)
        needed = n_batches * workload.dirty_modifies
        if len(candidates) < needed:
            raise SystemExit(f"only {len(candidates)} safe groups, need {needed}")
        dirty_groups = candidates[:needed]
        reserved = {tid for key in dirty_groups for tid in groups[key]}
        dirty_targets = [rng.choice(groups[key]) for key in dirty_groups]
        copy_sources = [tid for key in safe_groups for tid in groups[key]]
    else:
        reserved = set()
        dirty_targets = []
        copy_sources = sorted(rows)
    free = [tid for tid in sorted(rows) if tid not in reserved]
    rng.shuffle(free)
    if not workload.cleansed_stream:
        dirty_targets = [free.pop() for _ in range(n_batches * workload.dirty_modifies)]

    deleted = [free.pop() for _ in range(n_batches * workload.deletes)]
    # a NAME change touches no CFD attribute, so the tuples left over may
    # take several of them
    renamed = sorted(free)

    batches = []
    for b in range(n_batches):
        batch: List[Dict[str, Any]] = []
        for i in range(workload.dirty_modifies):
            tid = dirty_targets[b * workload.dirty_modifies + i]
            wrong = rng.choice([city for city in cities if city != rows[tid]["CITY"]])
            batch.append({"op": "modify", "tid": tid, "changes": {"CITY": wrong}})
        for i, tid in enumerate(rng.sample(renamed, workload.name_modifies)):
            batch.append({"op": "modify", "tid": tid, "changes": {"NAME": f"Renamed {b}-{i}"}})
        for i in range(workload.deletes):
            batch.append({"op": "delete", "tid": deleted[b * workload.deletes + i]})
        for i in range(workload.inserts):
            row = dict(rows[rng.choice(copy_sources)], NAME=f"Inserted {b}-{i}")
            batch.append({"op": "insert", "row": row})
        rng.shuffle(batch)
        batches.append(batch)
    return batches


def make_lookups(
    workload: spec.Workload, rows: Dict[int, Dict[str, Any]], stream, rng: random.Random
) -> List[List[int]]:
    """Request tid sets drawn from the initial tuples the stream never deletes."""
    deleted = {u["tid"] for batch in stream for u in batch if u["op"] == "delete"}
    pool = [tid for tid in sorted(rows) if tid not in deleted]
    return [sorted(rng.sample(pool, workload.lookup_tids)) for _ in range(workload.lookups)]


def make_noise(workload: spec.Workload, clean, seed: int):
    """``inject_noise`` cut down to exactly ``noise_rate`` of the noised cells.

    ``inject_noise`` corrupts each cell with probability ``rate``, so the
    number of corrupted cells, and with it the cost of ``clean()``, would
    follow the seed.  Injecting at twice the rate and keeping a seeded
    sample of the wanted size fixes the number; the other cells get their
    clean values back.
    """
    wanted = round(workload.noise_rate * workload.rows * len(workload.noise_attrs))
    noise = inject_noise(
        clean, rate=2 * workload.noise_rate, seed=seed + 1, attributes=workload.noise_attrs
    )
    cells = sorted(noise.corrupted)
    if len(cells) < wanted:
        raise SystemExit(f"only {len(cells)} corrupted cells, need {wanted}")
    keep = set(random.Random(seed + 4).sample(cells, wanted))
    for tid, attribute in cells:
        if (tid, attribute) not in keep:
            original, _ = noise.corrupted.pop((tid, attribute))
            noise.dirty.update(tid, {attribute: original})
    return noise


def generate(workload: spec.Workload, seed: int, out: str) -> Dict[str, Any]:
    clean = generate_customers(workload.rows, seed=seed)
    noise = make_noise(workload, clean, seed)
    os.makedirs(out, exist_ok=True)
    dump_csv(noise.dirty, os.path.join(out, "customer.csv"))
    rows = dict(noise.dirty.rows())
    stream = make_stream(workload, rows, set(noise.corrupted_tids()), random.Random(seed + 2))
    lookups = make_lookups(workload, rows, stream, random.Random(seed + 3))
    with open(os.path.join(out, "stream.json"), "w") as fh:
        json.dump(stream, fh)
    with open(os.path.join(out, "lookups.json"), "w") as fh:
        json.dump(lookups, fh)
    meta = {
        "workload": workload.name,
        "seed": seed,
        "rows": workload.rows,
        "corrupted_cells": len(noise.corrupted),
        "updates": sum(len(batch) for batch in stream),
        "lookups": len(lookups),
    }
    with open(os.path.join(out, "meta.json"), "w") as fh:
        json.dump(meta, fh)
    return meta


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--small", action="store_true", help="reduced sizes (tests)")
    args = parser.parse_args()
    meta = generate(spec.get(args.workload, args.small), args.seed, args.out)
    print(json.dumps(meta))


if __name__ == "__main__":
    main()
