"""Tests of the benchmark itself (reduced sizes; a few seconds each).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checker  # noqa: E402
import run  # noqa: E402
import spec  # noqa: E402


def bench(*args: str, cwd: str = os.path.dirname(HERE), script: str = os.path.join(HERE, "run.py")):
    return subprocess.run(
        [sys.executable, script, *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def result_of(completed) -> dict:
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(spec.WORKLOADS))
def test_reduced_run_passes_every_check(workload):
    result = result_of(
        bench("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", "0", "--small")
    )
    assert result["correct"] is True
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    # one round; only the IncRepair probe of the cleansed workload fails
    expected_failed = 1 if spec.WORKLOADS[workload].cleansed_stream else 0
    assert result["failed"] == expected_failed


def test_traced_run_reports_every_layer_metric():
    result = result_of(
        bench("--workload", "monitor-cleansed", "--seed", "4", "--seconds", "0",
              "--trace", "1", "--small")
    )
    assert result["correct"] is True
    assert set(result["metrics"]) == set(run.PER_LAYER)
    layers = {name: m["value"] for name, m in result["metrics"].items()}
    assert layers["system.full_syncs"] == 1
    assert layers["backends.statements"] > 0
    assert layers["repair.increpair_batches"] > 0
    assert 0 < layers["repair.increpair_converged_ratio"] < 1


def test_generator_is_seeded(tmp_path):
    def generate(seed, out):
        subprocess.run(
            [sys.executable, os.path.join(HERE, "gen.py"), "--workload", "blanket-small",
             "--seed", str(seed), "--out", str(out), "--small"],
            check=True, capture_output=True,
        )
        return {name: (out / name).read_bytes() for name in ("customer.csv", "stream.json", "lookups.json")}

    first = generate(5, tmp_path / "a")
    assert generate(5, tmp_path / "b") == first
    assert generate(6, tmp_path / "c") != first


@pytest.fixture(scope="module")
def round_dump(tmp_path_factory):
    """One reduced monitor-cleansed round, dumped for the checker."""
    work = tmp_path_factory.mktemp("round")
    inputs = work / "inputs"
    subprocess.run(
        [sys.executable, os.path.join(HERE, "gen.py"), "--workload", "monitor-cleansed",
         "--seed", "7", "--out", str(inputs), "--small"],
        check=True, capture_output=True,
    )
    subprocess.run(
        [sys.executable, os.path.join(HERE, "workload.py"), "--workload", "monitor-cleansed",
         "--inputs", str(inputs), "--work", str(work), "--seconds", "0",
         "--result", str(work / "result.json"), "--small"],
        check=True, capture_output=True,
    )
    result = json.loads((work / "result.json").read_text())
    assert result["errors"] == []
    return json.loads(open(result["rounds"][0]).read())


def test_checker_accepts_the_programs_outputs(round_dump):
    assert round_dump["setups"][0]["detect"], "the reduced input has violations"
    assert checker.verify_round(round_dump) == []


def test_checker_rejects_a_corrupted_detection_report(round_dump):
    missing = copy.deepcopy(round_dump)
    missing["setups"][0]["detect"].pop()
    assert any("detect" in e for e in checker.verify_round(missing))
    widened = copy.deepcopy(round_dump)
    widened["setups"][0]["detect"][0][5].append(10**6)
    assert any("detect" in e for e in checker.verify_round(widened))


def test_checker_rejects_a_corrupted_stream(round_dump):
    outside = copy.deepcopy(round_dump)
    repaired = next(b for b in outside["batches"] if b.get("repair"))
    repaired["repair"][0][0] = 0  # an initial tuple no batch touched
    assert any("outside" in e for e in checker.verify_round(outside))
    lost = copy.deepcopy(round_dump)
    lost["batches"].pop(0)
    assert any("stream" in e for e in checker.verify_round(lost))
    report = copy.deepcopy(round_dump)
    report["monitor_report"] = report["setups"][0]["detect"]
    assert any("monitor" in e for e in checker.verify_round(report))


def test_checker_finds_violations_left_after_clean(round_dump):
    dirty = dict(round_dump, cleans=[round_dump["setups"][0]["db"]])
    assert any("clean" in e for e in checker.verify_round(dirty))


def test_without_program_sources_the_run_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    completed = bench(
        "--workload", "blanket-small", "--seed", "1", "--seconds", "1", "--trace", "0",
        cwd=str(tmp_path), script=str(tmp_path / "perfbench" / "run.py"),
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
