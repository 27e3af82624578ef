"""The benchmark's workloads and the knobs every run pins.

Each workload is a :class:`~repro.harness.spec.ScenarioSpec` built from
the benchmark's ``--seed``; the simulator receives only that spec.
``scale="small"`` swaps in a tiny instance of the same shape for the
benchmark's self-tests.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Workload name -> why it is in the benchmark (mirrors BENCHMARK.json).
WORKLOADS = {
    "fleet-ksm": "full consolidation fleet under KSM: RB-tree walks and "
                 "content compares dominate",
    "fleet-vusion": "same fleet and seed under VUsion: re-randomisation "
                    "map/unmap traffic dominates, a third of the tree work",
    "shard-1m": "1M-frame 4-shard KSM fleet on 2 pool workers: pool IPC, "
                "shard exchange and retirement-heavy teardown",
}

#: Environment the simulator would otherwise read its performance knobs
#: from.  Every run sets these explicitly, so a value left in a shell
#: cannot change what is measured; ``None`` means "must be unset".
PINNED_ENV = {
    "REPRO_FRAME_STORE": "columnar",
    "REPRO_SCAN_KERNEL": "batch",
    "REPRO_SANITIZE": "0",
    "REPRO_SHARDS": None,
    "REPRO_FULL": None,
}

#: String hashing seed of every repetition's interpreter (set when the
#: interpreter starts, so run.py passes it in the environment): fixes
#: set and dict iteration order of strings, one source of run-to-run
#: host-time noise.
HASH_SEED = "0"

#: Shard-pool worker processes for ``shard-1m``.
SHARD_WORKERS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    spec: object          #: the ScenarioSpec
    sharded: bool
    system: str


def build(name: str, seed: int, scale: str = "full") -> Workload:
    """The workload's spec for ``seed`` (``scale`` is full or small)."""
    from repro.harness.fleet import FLEET_PRESETS
    from repro.harness.scenario import PRESETS
    from repro.harness.spec import FleetSpec, ScenarioSpec, ScheduleSpec
    from repro.params import MS, SECOND

    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r} "
                         f"(known: {', '.join(WORKLOADS)})")
    if scale not in ("full", "small"):
        raise ValueError(f"unknown scale {scale!r} (full or small)")
    if name in ("fleet-ksm", "fleet-vusion"):
        system = name.split("-", 1)[1]
        preset = "consolidation" if scale == "full" else "smoke"
        spec = FLEET_PRESETS[preset].spec(
            system=system, scale="full" if scale == "full" else "quick",
            seed=seed)
        return Workload(name, spec, sharded=False, system=system)
    # shard-1m: the 1M-frame fleet of benchmarks/test_shard_scaling.py
    # (its default, non-REPRO_FULL size), seeded by the benchmark.
    if scale == "full":
        fleet = FleetSpec(vms=64, image_families=4, pages_per_vm=2048,
                          max_resident=16, lifetime_ns=2 * SECOND,
                          arrival_interval_ns=100 * MS)
        frames = 1 << 20
    else:
        fleet = FleetSpec(vms=8, image_families=2, pages_per_vm=256,
                          max_resident=4, lifetime_ns=2 * SECOND,
                          arrival_interval_ns=100 * MS)
        frames = 1 << 14
    spec = ScenarioSpec(
        name=f"perfbench-{name}",
        system=PRESETS["ksm"],
        fleet=fleet,
        schedule=ScheduleSpec(settle_ns=SECOND),
        frames=frames,
        seed=seed,
        shards=4,
    )
    return Workload(name, spec, sharded=True, system="ksm")
