"""Wall-clock scaling gate for sharded scenario execution.

Two measurements, one contract (``--shards N`` never changes a byte):

* **Pool-concurrency gate** — four shards whose service time is
  dominated by an injected, calibrated sleep run through the *real*
  process pool (:class:`~repro.runner.shardpool.ShardPool` on the
  shared supervisor), serial versus four workers.  Like
  ``test_runner_speedup.py`` this measures the pool itself (spawn,
  beacon drain, supervision, recombination) independently of host
  core count, so the ≥3x gate holds on any runner.
* **Real 1M-frame fleet** — the actual paper-scale scenario: a
  ``2^20``-frame machine split into four NUMA-style shards with a
  fleet streaming through it, serial versus ``min(cpus, 4)`` workers.
  Byte-identity between the two is asserted unconditionally; on any
  host with at least two CPUs the *real* wall-clock speedup must reach
  ``0.75 × workers`` (1.5x on two CPUs, 3x on four or more).  A
  single-core host can't physically exhibit it and only records the
  timing.  ``REPRO_FULL=1`` quadruples the fleet.

Results land in ``BENCH_shard_scaling.json`` at the repository root.
"""

from __future__ import annotations

import json
import os
import pathlib
import time

from repro.harness.scenario import PRESETS
from repro.harness.shardfleet import (
    combine_shard_results,
    run_one_shard,
    run_sharded_serial,
)
from repro.harness.spec import FleetSpec, ScenarioSpec, ScheduleSpec
from repro.params import MS, SECOND
from repro.runner import ShardPoolConfig, canonical_json, run_sharded

RESULT_PATH = pathlib.Path(__file__).resolve().parent.parent / (
    "BENCH_shard_scaling.json"
)

SHARDS = 4
WORKERS = 4
#: Injected per-shard service time for the pool-concurrency gate —
#: long enough that worker spawn plus the single-core execution of the
#: real (tiny) shard runs stays a small fraction of one service.
SHARD_SERVICE_S = 2.0
POOL_GATE_MIN_SPEEDUP = 3.0
#: Real-work floor per worker: 1.5x on two workers, 3x on four.
REAL_GATE_SPEEDUP_PER_WORKER = 0.75


def _payload(result) -> str:
    return canonical_json({"samples": result.to_payload()["samples"],
                           "totals": result.totals})


def _merge_results(section: str, data: dict) -> None:
    document = {}
    if RESULT_PATH.exists():
        document = json.loads(RESULT_PATH.read_text())
    document[section] = data
    RESULT_PATH.write_text(json.dumps(document, indent=2, sort_keys=True)
                           + "\n")


# ---------------------------------------------------------------------------
# Pool-concurrency gate (host-independent, like the runner speedup gate)
# ---------------------------------------------------------------------------
def gate_spec() -> ScenarioSpec:
    return ScenarioSpec(
        name="shard-scaling-gate",
        system=PRESETS["ksm"],
        fleet=FleetSpec(vms=4, image_families=2, pages_per_vm=64,
                        max_resident=4, lifetime_ns=SECOND,
                        arrival_interval_ns=125 * MS),
        schedule=ScheduleSpec(settle_ns=SECOND),
        frames=1024 * SHARDS,
        seed=1017,
        shards=SHARDS,
    )


def sleeping_shard_fn(spec, shard, on_round=None):
    """The calibrated service-time injection: a real shard run whose
    wall clock is dominated by a fixed sleep, so serial-vs-pool timing
    measures the pool's concurrency, not the host's core count."""
    time.sleep(SHARD_SERVICE_S)
    return run_one_shard(spec, shard, on_round=on_round)


def test_shard_pool_concurrency_gate():
    spec = gate_spec()
    reference = _payload(run_sharded_serial(spec))

    started = time.perf_counter()
    serial_results = [sleeping_shard_fn(spec, shard)
                      for shard in range(SHARDS)]
    serial_combined = combine_shard_results(spec, serial_results)
    serial_s = time.perf_counter() - started

    started = time.perf_counter()
    pooled = run_sharded(spec, config=ShardPoolConfig(workers=WORKERS),
                         shard_fn=sleeping_shard_fn)
    parallel_s = time.perf_counter() - started

    # Identity first: the injection and the pool both leave results
    # byte-identical to the plain serial reference executor.
    assert _payload(serial_combined) == reference
    assert _payload(pooled) == reference

    speedup = serial_s / parallel_s
    _merge_results("pool_gate", {
        "shards": SHARDS,
        "workers": WORKERS,
        "shard_service_s": SHARD_SERVICE_S,
        "serial_s": round(serial_s, 3),
        "parallel_s": round(parallel_s, 3),
        "speedup": round(speedup, 2),
        "min_speedup": POOL_GATE_MIN_SPEEDUP,
    })
    print(f"\nshard pool: serial {serial_s:.2f}s, {WORKERS} workers "
          f"{parallel_s:.2f}s ({speedup:.1f}x)")
    assert speedup >= POOL_GATE_MIN_SPEEDUP, (
        f"shard pool only {speedup:.2f}x faster than serial "
        f"({parallel_s:.2f}s vs {serial_s:.2f}s)"
    )


# ---------------------------------------------------------------------------
# Real 1M-frame fleet scenario
# ---------------------------------------------------------------------------
def fleet_1m_spec() -> ScenarioSpec:
    vms = 256 if os.environ.get("REPRO_FULL") == "1" else 64
    return ScenarioSpec(
        name="shard-scaling-1m",
        system=PRESETS["ksm"],
        fleet=FleetSpec(vms=vms, image_families=4, pages_per_vm=2048,
                        max_resident=16, lifetime_ns=2 * SECOND,
                        arrival_interval_ns=100 * MS),
        schedule=ScheduleSpec(settle_ns=SECOND),
        frames=1 << 20,
        seed=1017,
        shards=SHARDS,
    )


def test_shard_scaling_1m_frames():
    spec = fleet_1m_spec()
    cpus = os.cpu_count() or 1
    workers = min(cpus, SHARDS)
    min_speedup = REAL_GATE_SPEEDUP_PER_WORKER * workers

    started = time.perf_counter()
    serial = run_sharded_serial(spec)
    serial_s = time.perf_counter() - started

    started = time.perf_counter()
    pooled = run_sharded(spec, config=ShardPoolConfig(workers=workers))
    parallel_s = time.perf_counter() - started

    assert _payload(pooled) == _payload(serial)
    exchange = serial.totals["exchange"]
    assert exchange["rounds"] >= 1

    speedup = serial_s / parallel_s
    gated = workers >= 2
    _merge_results("fleet_1m", {
        "frames": spec.frames,
        "shards": SHARDS,
        "workers": workers,
        "vms": spec.fleet.vms,
        "booted_pages": serial.totals["booted_pages"],
        "exchanged_cids": exchange["exchanged_cids"],
        "merge_intents_applied": exchange["merge_intents_applied"],
        "serial_s": round(serial_s, 3),
        "parallel_s": round(parallel_s, 3),
        "speedup": round(speedup, 2),
        "host_cpus": cpus,
        "real_gate_applied": gated,
        "min_speedup": min_speedup,
    })
    print(f"\n1M-frame fleet: serial {serial_s:.1f}s, {workers} workers "
          f"{parallel_s:.1f}s ({speedup:.2f}x on {cpus} cpu(s))")
    if gated:
        assert speedup >= min_speedup, (
            f"sharded 1M-frame fleet only {speedup:.2f}x faster "
            f"({parallel_s:.1f}s vs {serial_s:.1f}s on {cpus} cpus)"
        )
