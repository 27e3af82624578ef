"""One fault-injection matrix for the process pool's two item kinds.

Task sweeps (:class:`~repro.runner.pool.TaskPool` over ``selftest``
tasks) and scenario shards (:class:`~repro.runner.shardpool.ShardPool`
over a two-shard fleet with an injected ``shard_fn``) run on the same
supervisor, so every fault is checked against both: a crashing worker,
a hang that trips the watchdog, a raised error, an exhausted retry
budget, an unbuildable start method and ``force_serial``.  Whatever the
fault, the surviving result must be byte-identical to a healthy serial
run.  Crashes are real ``os._exit`` calls and hangs real sleeps in
fork-started workers; "fail once" coordination goes through marker
files under ``REPRO_POOL_FAULT_DIR`` because every worker is a
separate process.
"""

from __future__ import annotations

import multiprocessing
import os
import pathlib
import time
from dataclasses import dataclass, field

import pytest

from repro.harness.scenario import SystemConfig
from repro.harness.shardfleet import (
    combine_shard_results,
    run_one_shard,
    run_sharded_serial,
)
from repro.harness.spec import FleetSpec, ScenarioSpec, ScheduleSpec
from repro.params import MS, SECOND
from repro.runner import (
    PoolDegraded,
    RunnerConfig,
    ShardPool,
    ShardPoolConfig,
    ShardPoolDegraded,
    ShardWorkerRetrying,
    TaskRetrying,
    TaskSpec,
    TaskStarted,
    canonical_json,
    run_sharded,
    run_tasks,
)
from repro.runner.pool import Supervisor

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="failure injection rides on fork-inherited test modules",
)

FAULTS = ("crash", "hang", "raise", "exhausted", "unbuildable",
          "force_serial")
KINDS = ("task", "shard")

#: The watchdog budget: far above a healthy item's silence (a selftest
#: task, one round of a tiny shard), far below an injected hang.
TIMEOUT_S = 1.0


@dataclass
class Outcome:
    """What one faulty run left behind, normalized across item kinds."""

    payload: str | None
    retries: list[str] = field(default_factory=list)
    degraded: str | None = None
    failed: str | None = None


# ---------------------------------------------------------------------------
# Task items
# ---------------------------------------------------------------------------
def _tasks(mode: str = "ok", fail_attempts: int = 1) -> list[TaskSpec]:
    return [TaskSpec.selftest("healthy", value=1),
            TaskSpec.selftest("faulty", value=2, mode=mode,
                              fail_attempts=fail_attempts, hang_s=60)]


def _task_payload(results) -> str | None:
    if not all(result.ok for result in results):
        return None
    return canonical_json([result.payload for result in results])


def run_task_fault(fault: str, monkeypatch) -> Outcome:
    config = dict(jobs=2, timeout_s=TIMEOUT_S, max_retries=1,
                  retry_backoff_s=0.02)
    tasks = _tasks()
    if fault in ("crash", "hang", "raise"):
        tasks = _tasks(mode=fault)
    elif fault == "exhausted":
        tasks = _tasks(mode="crash", fail_attempts=99)
    elif fault == "unbuildable":
        config["start_method"] = "bogus"
    elif fault == "force_serial":
        config["force_serial"] = True
    events = []
    results = run_tasks(tasks, config=RunnerConfig(**config),
                        on_event=events.append)
    degraded = [e.reason for e in events if isinstance(e, PoolDegraded)]
    failed = [result.status for result in results if not result.ok]
    return Outcome(
        payload=_task_payload(results),
        retries=[e.reason for e in events if isinstance(e, TaskRetrying)],
        degraded=degraded[0] if degraded else None,
        failed=failed[0] if failed else None,
    )


def task_reference() -> str:
    return _task_payload(run_tasks(_tasks(),
                                   config=RunnerConfig(force_serial=True)))


# ---------------------------------------------------------------------------
# Shard items
# ---------------------------------------------------------------------------
def shard_spec() -> ScenarioSpec:
    return ScenarioSpec(
        name="pool-faults",
        system=SystemConfig(label="KSM", engine="ksm"),
        fleet=FleetSpec(vms=4, image_families=2, pages_per_vm=64,
                        max_resident=2, lifetime_ns=SECOND,
                        arrival_interval_ns=125 * MS),
        schedule=ScheduleSpec(settle_ns=SECOND),
        frames=4096,
        seed=1017,
        shards=2,
    )


def _payload(result) -> str:
    return canonical_json({"samples": result.to_payload()["samples"],
                           "totals": result.totals})


def _marker(tag: str) -> pathlib.Path:
    return pathlib.Path(os.environ["REPRO_POOL_FAULT_DIR"]) / tag


def faulty_shard_fn(spec, shard, on_round=None):
    """Shard 1 fails as ``REPRO_POOL_FAULT`` says: once, or always."""
    fault = os.environ["REPRO_POOL_FAULT"]
    if shard == 1 and (fault == "exhausted" or not _marker(fault).exists()):
        _marker(fault).touch()
        if fault in ("crash", "exhausted"):
            os._exit(23)  # simulated segfault: no reply, bad exit code
        if fault == "hang":
            time.sleep(3600.0)
        if fault == "raise":
            raise RuntimeError("injected shard failure")
    return run_one_shard(spec, shard, on_round=on_round)


def run_shard_fault(fault: str, monkeypatch, tmp_path) -> Outcome:
    monkeypatch.setenv("REPRO_POOL_FAULT_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_POOL_FAULT", fault)
    config = dict(workers=2, timeout_s=TIMEOUT_S, max_retries=1,
                  retry_backoff_s=0.02, start_method="fork")
    if fault == "unbuildable":
        config["start_method"] = "bogus"
    elif fault == "force_serial":
        config["force_serial"] = True
    events = []
    result = run_sharded(shard_spec(), config=ShardPoolConfig(**config),
                         on_event=events.append, shard_fn=faulty_shard_fn)
    degraded = [e.reason for e in events if isinstance(e, ShardPoolDegraded)]
    return Outcome(
        payload=_payload(result),
        retries=[e.reason for e in events
                 if isinstance(e, ShardWorkerRetrying)],
        degraded=degraded[0] if degraded else None,
    )


def shard_reference() -> str:
    return _payload(run_sharded_serial(shard_spec()))


# ---------------------------------------------------------------------------
# The matrix
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("fault", FAULTS)
def test_fault_matrix(fault, kind, monkeypatch, tmp_path):
    if fault == "force_serial":
        def no_spawn(self, ctx):
            raise AssertionError("force_serial started a worker")

        monkeypatch.setattr(Supervisor, "_spawn", no_spawn)
    if kind == "task":
        outcome = run_task_fault(fault, monkeypatch)
        reference = task_reference()
    else:
        outcome = run_shard_fault(fault, monkeypatch, tmp_path)
        reference = shard_reference()

    expected_retries = {"crash": ["crashed"], "hang": ["timeout"],
                        "raise": ["error"], "exhausted": ["crashed"]}
    assert outcome.retries == expected_retries.get(fault, [])
    if fault == "exhausted" and kind == "task":
        # A task out of retries is reported as failed; the sweep goes on.
        assert outcome.failed == "crashed" and outcome.payload is None
        assert outcome.degraded is None
        return
    assert outcome.failed is None
    assert outcome.payload == reference
    if fault == "exhausted":
        # A shard out of retries degrades the scenario, never loses it.
        assert "kept failing" in outcome.degraded
    elif fault == "unbuildable":
        assert "no multiprocessing context" in outcome.degraded
    else:
        assert outcome.degraded is None


# ---------------------------------------------------------------------------
# Long-lived workers: a crash on a worker's second item
# ---------------------------------------------------------------------------
#: Items this process has run (a forked worker starts from the parent's
#: empty list, so a replacement worker counts from zero again).
_ITEMS_RUN: list[int] = []


def crash_on_second_item_shard_fn(spec, shard, on_round=None):
    _marker(f"ran-{shard}-{os.getpid()}-{len(_ITEMS_RUN)}").touch()
    if _ITEMS_RUN:
        os._exit(23)
    _ITEMS_RUN.append(shard)
    return run_one_shard(spec, shard, on_round=on_round)


@pytest.mark.parametrize("kind", KINDS)
def test_crash_on_second_item_reruns_only_that_item(kind, monkeypatch,
                                                    tmp_path):
    if kind == "task":
        events = []
        results = run_tasks(
            _tasks(mode="crash"),
            config=RunnerConfig(jobs=1, max_retries=1, retry_backoff_s=0.02),
            on_event=events.append)
        assert [result.attempts for result in results] == [1, 2]
        assert [result.mode for result in results] == ["pool", "pool"]
        started = [e.index for e in events if isinstance(e, TaskStarted)]
        assert started == [0, 1, 1]
        assert [e.reason for e in events
                if isinstance(e, TaskRetrying)] == ["crashed"]
        assert _task_payload(results) == task_reference()
        return
    monkeypatch.setenv("REPRO_POOL_FAULT_DIR", str(tmp_path))
    spec = shard_spec()
    events = []
    pool = ShardPool(spec, config=ShardPoolConfig(
        workers=1, max_retries=1, retry_backoff_s=0.02,
        start_method="fork"),
        on_event=events.append, shard_fn=crash_on_second_item_shard_fn)
    combined = combine_shard_results(spec, pool.run())
    runs = sorted(path.name.split("-")[1] for path in tmp_path.iterdir())
    assert runs == ["0", "1", "1"]  # shard 0 kept, shard 1 rerun once
    retries = [e for e in events if isinstance(e, ShardWorkerRetrying)]
    assert [(e.shards, e.reason) for e in retries] == [((1,), "crashed")]
    assert _payload(combined) == shard_reference()
