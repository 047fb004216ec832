"""Workload definitions shared by the generator and the timed process.

Every workload is the paper's ``customer`` relation under its CFDs phi1-phi4
(``repro.datasets.generate_customers`` plus ``inject_noise``).  The table
below fixes everything except the seed, so two runs with the same seed see
the same inputs and every run attempts the same operations per round.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Tuple


@dataclass(frozen=True)
class Workload:
    name: str
    rows: int
    noise_rate: float
    noise_attrs: Tuple[str, ...]
    #: ``True``: clean first, then stream through the cleansed monitor
    #: (IncRepair); ``False``: stream through the detection-mode monitor,
    #: then clean.
    cleansed_stream: bool
    batches: int
    batch_size: int
    #: per batch: CITY cells set to another city (new violations)
    dirty_modifies: int
    #: per batch: rows inserted (copies of an existing address)
    inserts: int
    #: per batch: rows deleted
    deletes: int
    lookups: int
    lookup_tids: int
    setups: int
    detect_repeats: int
    audit_repeats: int
    explore_repeats: int

    def __post_init__(self) -> None:
        # a detection-mode round cleans every set-up but the kept one
        if not self.cleansed_stream and self.setups < 2:
            raise ValueError(f"{self.name}: a detection-mode workload needs two set-ups")

    @property
    def name_modifies(self) -> int:
        """Per batch: NAME cells changed (no CFD attribute, no violation)."""
        return self.batch_size - self.dirty_modifies - self.inserts - self.deletes


WORKLOADS: Dict[str, Workload] = {
    # [CC] -> [CNT] groups cover nearly every tuple; fits in cache.  Time
    # goes to per-member Python work (shipped member rows, audit majority
    # checks, the repair's full-scan fallback).
    "blanket-small": Workload(
        name="blanket-small",
        rows=2_000,
        noise_rate=0.04,
        noise_attrs=("CNT", "CITY", "STR", "CC"),
        cleansed_stream=False,
        batches=80,
        batch_size=50,
        dirty_modifies=5,
        inserts=10,
        deletes=10,
        lookups=300,
        lookup_tids=8,
        setups=4,
        detect_repeats=24,
        audit_repeats=3,
        explore_repeats=8,
    ),
    # The paper's data-monitor step (2): a cleansed relation kept clean by
    # incremental repair.  IncRepair rescans the relation natively every
    # round, which is why the relation is small.
    "monitor-cleansed": Workload(
        name="monitor-cleansed",
        rows=2_000,
        noise_rate=0.02,
        noise_attrs=("CITY", "STR"),
        cleansed_stream=True,
        batches=20,
        batch_size=20,
        dirty_modifies=2,
        inserts=4,
        deletes=4,
        lookups=300,
        lookup_tids=8,
        setups=3,
        detect_repeats=15,
        audit_repeats=9,
        explore_repeats=9,
    ),
}


def reduced(workload: Workload) -> Workload:
    """A small variant of ``workload`` for the benchmark's own tests."""
    return replace(
        workload,
        rows={"blanket-small": 600}.get(workload.name, 400),
        batches=4,
        lookups=12,
        setups=2,
        detect_repeats=2,
        audit_repeats=1,
        explore_repeats=1,
    )


def get(name: str, small: bool = False) -> Workload:
    workload = WORKLOADS[name]
    return reduced(workload) if small else workload
