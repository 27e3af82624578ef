"""Sharded fleet execution: topology, pool, determinism, degradation.

The scenario-level ``-j1 == -jN`` contract: a :class:`ScenarioSpec`
with ``shards = N`` describes a NUMA-style topology whose results are
a pure function of the spec — how many worker *processes* execute the
shards (``--shards`` on the CLI, :class:`ShardPoolConfig.workers`)
must never change a payload byte.  This suite pins that contract
across the serial reference executor, the multiprocess shard pool,
crashed/hung/retried workers, the degraded mode, sanitized runs and
the runner task layer; plus the spec validation and ``resolve_jobs``
satellites.
"""

from __future__ import annotations

import json
import os
import pathlib
import time

import pytest

from repro.harness.fleet import FLEET_PRESETS, FleetDriver
from repro.harness.scenario import SystemConfig
from repro.harness.shardfleet import (
    combine_shard_results,
    run_one_shard,
    run_sharded_serial,
)
from repro.harness.spec import FleetSpec, ScenarioSpec, ScheduleSpec
from repro.mem.shard import ShardExchangeError
from repro.params import MS, SECOND
from repro.runner import (
    ProgressPrinter,
    ShardExchangeResolved,
    ShardPoolConfig,
    ShardPoolDegraded,
    ShardRoundCompleted,
    ShardWorkerRetrying,
    TaskSpec,
    canonical_json,
    execute_task,
    resolve_jobs,
    run_sharded,
)
from repro.runner.pool import _PoolBroken
from repro.runner.shardpool import ShardPool


def small_spec(shards: int = 2, engine: str = "ksm",
               seed: int = 1017) -> ScenarioSpec:
    return ScenarioSpec(
        name=f"shardfleet-{engine}-{shards}",
        system=SystemConfig(label=engine.upper(), engine=engine),
        fleet=FleetSpec(vms=4, image_families=2, pages_per_vm=64,
                        max_resident=2, lifetime_ns=SECOND,
                        arrival_interval_ns=125 * MS),
        schedule=ScheduleSpec(settle_ns=SECOND),
        frames=2048 * shards,
        seed=seed,
        shards=shards,
    )


def payload(result) -> str:
    return canonical_json({"samples": result.to_payload()["samples"],
                           "totals": result.totals})


# ---------------------------------------------------------------------------
# Failure-injection shard functions.  Module-level so the fork-started
# workers can pickle them by reference; coordination goes through
# marker files under REPRO_SHARD_FAIL_DIR (set by the tests, inherited
# by the children), because each worker is a separate process.
# ---------------------------------------------------------------------------
def _marker(tag: str) -> pathlib.Path:
    return pathlib.Path(os.environ["REPRO_SHARD_FAIL_DIR"]) / tag


def crash_once_shard_fn(spec, shard, on_round=None):
    if shard == 1 and not _marker("crashed").exists():
        _marker("crashed").touch()
        os._exit(23)  # simulated segfault: no reply, bad exit code
    return run_one_shard(spec, shard, on_round=on_round)


def hang_once_shard_fn(spec, shard, on_round=None):
    if shard == 1 and not _marker("hung").exists():
        _marker("hung").touch()
        time.sleep(3600.0)  # trips the progress watchdog
    return run_one_shard(spec, shard, on_round=on_round)


def always_crash_shard_fn(spec, shard, on_round=None):
    os._exit(23)


def crash_shard_one_fn(spec, shard, on_round=None):
    if shard == 1:
        os._exit(23)
    result = run_one_shard(spec, shard, on_round=on_round)
    result.worker_pid = os.getpid()
    return result


# ---------------------------------------------------------------------------
# Spec validation + worker-count resolution satellites
# ---------------------------------------------------------------------------
class TestSpecValidation:
    def test_shards_must_divide_frames(self):
        with pytest.raises(ValueError, match="divide evenly"):
            ScenarioSpec(name="x", system=SystemConfig.preset("ksm"),
                         fleet=FleetSpec(vms=2, pages_per_vm=16,
                                         max_resident=1),
                         frames=4096, shards=3)

    def test_per_shard_frames_floor(self):
        with pytest.raises(ValueError, match=">= 1024"):
            ScenarioSpec(name="x", system=SystemConfig.preset("ksm"),
                         fleet=FleetSpec(vms=2, pages_per_vm=16,
                                         max_resident=1),
                         frames=2048, shards=4)

    def test_shards_must_be_positive_int(self):
        with pytest.raises(ValueError, match="integer >= 1"):
            ScenarioSpec(name="x", system=SystemConfig.preset("ksm"),
                         shards=0)

    def test_residency_window_checked_per_shard(self):
        # Fits a 1-shard machine (peak 4032 <= 4096) but not each
        # 2048-frame node (per-shard peak 5 * 448 = 2240).
        fleet = FleetSpec(vms=10, pages_per_vm=448, max_resident=9)
        ScenarioSpec(name="x", system=SystemConfig.preset("ksm"),
                     fleet=fleet, frames=4096, shards=1)
        with pytest.raises(ValueError, match="exceed"):
            ScenarioSpec(name="x", system=SystemConfig.preset("ksm"),
                         fleet=fleet, frames=4096, shards=2)

    def test_shard_max_resident_splits_window(self):
        spec = small_spec(shards=2)
        assert spec.shard_max_resident == 1
        assert small_spec(shards=1).shard_max_resident == 2

    def test_round_trips_through_json(self):
        spec = small_spec(shards=2)
        assert ScenarioSpec.from_json(spec.to_json()) == spec
        assert spec.to_dict()["shards"] == 2

    def test_shards_default_to_one(self):
        document = small_spec(shards=2).to_dict()
        del document["shards"]
        assert ScenarioSpec.from_dict(document).shards == 1

    def test_schema_declares_shards(self):
        assert ScenarioSpec.schema()["scenario"]["shards"] == "int"


class TestResolveJobs:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "7")
        assert resolve_jobs(3) == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert resolve_jobs(None) == 5

    def test_default_fallback(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs(None, default=2) == 2

    def test_zero_means_all_cpus(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs(0) == (os.cpu_count() or 1)
        monkeypatch.setenv("REPRO_JOBS", "0")
        assert resolve_jobs(None) == (os.cpu_count() or 1)

    def test_custom_env_var(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARDS", "4")
        monkeypatch.setenv("REPRO_JOBS", "9")
        assert resolve_jobs(None, env_var="REPRO_SHARDS") == 4

    def test_garbage_env_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.raises(ValueError, match="REPRO_JOBS"):
            resolve_jobs(None)

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match=">= 1"):
            resolve_jobs(-2)


# ---------------------------------------------------------------------------
# Determinism: serial reference, pool, and the legacy path
# ---------------------------------------------------------------------------
class TestDeterminism:
    def test_one_shard_is_exactly_the_legacy_driver(self):
        spec = small_spec(shards=1)
        assert payload(run_sharded_serial(spec)) \
            == payload(FleetDriver(spec).run())
        # And the unified entry point takes the same short-circuit.
        assert payload(run_sharded(spec)) \
            == payload(FleetDriver(spec).run())

    def test_pool_is_byte_identical_to_serial(self):
        spec = small_spec(shards=2)
        reference = payload(run_sharded_serial(spec))
        for workers in (2, 4):
            pooled = run_sharded(
                spec, config=ShardPoolConfig(workers=workers))
            assert payload(pooled) == reference, f"workers={workers}"

    def test_sanitized_run_is_transparent(self, monkeypatch):
        spec = small_spec(shards=2, engine="vusion")
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        plain = payload(run_sharded_serial(spec))
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        # combine_shard_results raises on any per-shard FrameSan
        # finding, so completing at all certifies clean node ledgers.
        assert payload(run_sharded_serial(spec)) == plain

    def test_task_payload_ignores_shard_workers(self):
        task = TaskSpec.fleet("smoke-sharded", system="ksm")
        serial = execute_task(task, seed=7, shard_workers=1)
        pooled = execute_task(task, seed=7, shard_workers=2)
        assert canonical_json(serial) == canonical_json(pooled)
        assert serial["totals"]["shards"] == 4

    def test_exchange_telemetry_in_totals(self):
        totals = run_sharded_serial(small_spec(shards=2)).totals
        exchange = totals["exchange"]
        assert exchange["rounds"] == len(
            run_sharded_serial(small_spec(shards=2)).samples)
        assert exchange["exchanged_cids"] >= 0
        assert exchange["resolve_ns"] \
            == totals["daemon_ns"].get("shardx", 0) - sum(
                run_one_shard(small_spec(shards=2), shard)
                .totals["daemon_ns"].get("shardx", 0)
                for shard in range(2))

    def test_incomplete_results_rejected(self):
        spec = small_spec(shards=2)
        only_one = [run_one_shard(spec, 0)]
        with pytest.raises(ShardExchangeError, match="incomplete"):
            combine_shard_results(spec, only_one)


# ---------------------------------------------------------------------------
# Progress events
# ---------------------------------------------------------------------------
class TestProgress:
    def test_pooled_run_streams_shard_events(self):
        spec = small_spec(shards=2)
        events = []
        result = run_sharded(spec, config=ShardPoolConfig(workers=2),
                             on_event=events.append)
        rounds = [e for e in events if isinstance(e, ShardRoundCompleted)]
        resolved = [e for e in events
                    if isinstance(e, ShardExchangeResolved)]
        assert {event.shard for event in rounds} == {0, 1}
        assert len(resolved) == result.totals["exchange"]["rounds"]
        assert [event.round_no for event in resolved] \
            == sorted(event.round_no for event in resolved)
        assert sum(e.intents_applied for e in resolved) \
            == result.totals["exchange"]["merge_intents_applied"]

    def test_printer_is_quiet_unless_verbose(self, capsys):
        event = ShardRoundCompleted(scenario="s", shard=1, round_no=2,
                                    exported_cids=3, booted=4, resident=1)
        ProgressPrinter()(event)
        assert capsys.readouterr().out == ""
        ProgressPrinter(verbose=True)(event)
        assert "shard 1 round 2" in capsys.readouterr().out

    def test_printer_always_reports_failures(self, capsys):
        ProgressPrinter()(ShardWorkerRetrying(
            scenario="s", shards=(1,), reason="crashed", attempt=0))
        assert "retry" in capsys.readouterr().out
        ProgressPrinter()(ShardPoolDegraded(scenario="s", reason="why"))
        assert "degraded" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# Pool failure handling
# ---------------------------------------------------------------------------
needs_fork = pytest.mark.skipif(
    "fork" not in __import__("multiprocessing").get_all_start_methods(),
    reason="failure injection rides on fork-inherited test modules",
)


@needs_fork
class TestPoolFailures:
    def test_crashed_worker_is_retried(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SHARD_FAIL_DIR", str(tmp_path))
        spec = small_spec(shards=2)
        events = []
        result = run_sharded(
            spec,
            config=ShardPoolConfig(workers=2, start_method="fork"),
            on_event=events.append, shard_fn=crash_once_shard_fn)
        retries = [e for e in events if isinstance(e, ShardWorkerRetrying)]
        assert [event.reason for event in retries] == ["crashed"]
        assert retries[0].shards == (1,)
        assert not any(isinstance(e, ShardPoolDegraded) for e in events)
        assert payload(result) == payload(run_sharded_serial(spec))

    def test_hung_worker_trips_watchdog(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SHARD_FAIL_DIR", str(tmp_path))
        spec = small_spec(shards=2)
        events = []
        result = run_sharded(
            spec,
            config=ShardPoolConfig(workers=2, timeout_s=1.0,
                                   retry_backoff_s=0.05,
                                   start_method="fork"),
            on_event=events.append, shard_fn=hang_once_shard_fn)
        retries = [e for e in events if isinstance(e, ShardWorkerRetrying)]
        assert [event.reason for event in retries] == ["timeout"]
        assert payload(result) == payload(run_sharded_serial(spec))

    def test_exhausted_retries_degrade_to_serial(self, monkeypatch):
        spec = small_spec(shards=2)
        events = []
        result = run_sharded(
            spec,
            config=ShardPoolConfig(workers=2, max_retries=0,
                                   start_method="fork"),
            on_event=events.append, shard_fn=always_crash_shard_fn)
        degraded = [e for e in events if isinstance(e, ShardPoolDegraded)]
        assert len(degraded) == 1
        assert "kept failing" in degraded[0].reason
        assert payload(result) == payload(run_sharded_serial(spec))

    def test_degraded_path_reruns_only_unfinished_shards(self, monkeypatch):
        from repro.harness import shardfleet

        spec = small_spec(shards=2)
        inprocess, folded = [], []

        def recording_run(spec, shard, on_round=None):
            inprocess.append(shard)
            return run_one_shard(spec, shard, on_round=on_round)

        def recording_combine(spec, results, on_exchange=None):
            folded.extend(getattr(r, "worker_pid", None) for r in results)
            return combine_shard_results(spec, results,
                                         on_exchange=on_exchange)

        monkeypatch.setattr(shardfleet, "run_one_shard", recording_run)
        monkeypatch.setattr(shardfleet, "combine_shard_results",
                            recording_combine)
        events = []
        result = run_sharded(
            spec,
            config=ShardPoolConfig(workers=2, max_retries=0,
                                   start_method="fork"),
            on_event=events.append, shard_fn=crash_shard_one_fn)
        assert inprocess == [1]
        assert folded[0] not in (None, os.getpid())  # shard 0: pooled
        assert folded[1] is None                      # shard 1: in-process
        degraded = [e for e in events if isinstance(e, ShardPoolDegraded)]
        assert len(degraded) == 1 and "shards [1]" in degraded[0].reason
        assert payload(result) == payload(run_sharded_serial(spec))

    def test_pool_itself_raises_when_budget_exhausted(self):
        pool = ShardPool(small_spec(shards=2),
                         config=ShardPoolConfig(workers=2, max_retries=0,
                                                start_method="fork"),
                         shard_fn=always_crash_shard_fn)
        with pytest.raises(_PoolBroken, match="kept failing"):
            pool.run()


class TestDegradedModes:
    def test_unbuildable_pool_degrades(self):
        spec = small_spec(shards=2)
        events = []
        result = run_sharded(
            spec,
            config=ShardPoolConfig(workers=2, start_method="bogus"),
            on_event=events.append)
        assert any(isinstance(e, ShardPoolDegraded) for e in events)
        assert payload(result) == payload(run_sharded_serial(spec))

    def test_force_serial_skips_the_pool(self):
        spec = small_spec(shards=2)
        result = run_sharded(spec, config=ShardPoolConfig(
            workers=8, force_serial=True))
        assert payload(result) == payload(run_sharded_serial(spec))


# ---------------------------------------------------------------------------
# Preset wiring
# ---------------------------------------------------------------------------
class TestPresets:
    def test_smoke_sharded_preset_declares_topology(self):
        preset = FLEET_PRESETS["smoke-sharded"]
        assert preset.shards == 4
        spec = preset.spec(system="ksm", scale="quick", seed=1)
        assert spec.shards == 4
        assert spec.frames % 4 == 0

    def test_legacy_presets_stay_single_shard(self):
        for name, preset in FLEET_PRESETS.items():
            if name != "smoke-sharded":
                assert preset.shards == 1, name
