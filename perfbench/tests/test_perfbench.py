"""Self-tests of the end-to-end benchmark (small instances, ~1 minute).

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

SEED = 7
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def declared(section: str) -> dict:
    return {metric["name"]: metric["unit"] for metric in DECLARED[section]}


def small_result(workload: str, trace: int, inject=None) -> dict:
    records = run.measure(workload, SEED, seconds=0, trace=trace,
                          scale="small", inject=inject)
    return run.report(workload, SEED, trace, records)


def emitted(result: dict) -> dict:
    return {name: metric["unit"] for name, metric in result["metrics"].items()}


def test_benchmark_json_matches_the_benchmark():
    assert [w["name"] for w in DECLARED["workloads"]] == list(
        workloads.WORKLOADS)
    assert declared("end_to_end") == run.END_TO_END
    assert DECLARED["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_every_end_to_end_metric_is_emitted_with_its_unit(workload):
    result = small_result(workload, trace=0)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == run.MIN_REPS
    assert emitted(result) == declared("end_to_end")
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_every_per_layer_metric_is_emitted_with_its_unit(workload):
    result = small_result(workload, trace=1)
    assert result["correct"] and result["failed"] == 0
    assert emitted(result) == declared("per_layer")
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["trace.coverage"] >= 0.9
    assert metrics["kernel.access.calls"] > 0
    if workload == "shard-1m":
        assert metrics["runner.shard_service_s"] > 0
        assert metrics["mem.shard.verify_exchange.s"] > 0
    else:
        assert metrics["runner.shard_service_s"] == 0


def test_sim_ledger_matches_a_plain_fleet_run():
    sys.path.insert(0, str(ROOT / "src"))
    from repro.harness.fleet import FleetDriver

    spec = workloads.build("fleet-ksm", SEED, "small").spec
    totals = FleetDriver(spec).run().totals
    metrics = small_result("fleet-ksm", trace=1)["metrics"]
    for name in ("cow_faults", "coa_faults", "merges", "pages_scanned",
                 "clock_ns"):
        assert metrics[f"sim.{name}"]["value"] == totals[name]
    for daemon, ns in totals["daemon_ns"].items():
        assert metrics[f"sim.daemon_ns.{daemon}"]["value"] == ns


def test_knobs_left_in_the_shell_do_not_change_what_runs(monkeypatch):
    monkeypatch.setenv("REPRO_FRAME_STORE", "legacy")
    monkeypatch.setenv("REPRO_SCAN_KERNEL", "scalar")
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    record = run.run_rep("fleet-ksm", SEED, trace=0, scale="small")
    assert not record["problems"]
    manifest = record["manifest"]
    assert manifest["frame_store"] == "columnar"
    assert manifest["scan_kernel"] == "batch"
    assert manifest["sanitize"] is False


def test_corrupted_digest_counts_as_a_failed_run():
    result = small_result("fleet-ksm", trace=0, inject={1: "corrupt-digest"})
    assert result["attempted"] == run.MIN_REPS
    assert result["failed"] == 1
    assert not result["correct"]


def test_forced_pool_degradation_counts_as_a_failed_run():
    record = run.run_rep("shard-1m", SEED, trace=0, scale="small",
                         inject="degrade")
    assert any("ShardPoolDegraded" in problem
               for problem in record["problems"])
    result = small_result("shard-1m", trace=0, inject={0: "degrade"})
    assert result["failed"] == 1
    assert not result["correct"]


def test_refuses_to_run_without_the_simulator(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    completed = subprocess.run(
        ["python3", "perfbench/run.py", "--workload", "fleet-ksm",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert completed.returncode != 0
    assert '"metrics"' not in completed.stdout
