"""The fingerprint cache must be invisible to the simulation.

Same seed, same workload ⇒ byte-identical trace event stream, clock,
fusion statistics and memory accounting whether the fingerprint engine
is on or off.  This is the binding contract that lets the optimisation
exist at all: it may remove *Python* work (hashing, tree re-walks) but
never a simulated charge or a behavioural branch — otherwise every
figure in the reproduction would silently depend on a cache flag.
"""

from __future__ import annotations

import dataclasses
import functools
import random

import pytest

from repro.core.vusion import Vusion
from repro.fusion.cow_ksm import CopyOnAccessKsm
from repro.fusion.ksm import Ksm
from repro.fusion.memory_combining import MemoryCombining
from repro.fusion.wpf import WindowsPageFusion
from repro.harness import scenario
from repro.harness.fleet import FLEET_PRESETS, run_fleet
from repro.kernel.kernel import Kernel
from repro.mem.content import tagged_content
from repro.mem.fingerprint import FingerprintStats
from repro.params import (
    FusionConfig,
    MachineSpec,
    MS,
    PAGE_SIZE,
    SECOND,
    VusionConfig,
    WpfConfig,
)

from tests.test_payload_digests import sha256_json

FAST = FusionConfig(pages_per_scan=64, scan_interval=20 * MS)

ENGINES = {
    "ksm": lambda: Ksm(FAST),
    "coa-ksm": lambda: CopyOnAccessKsm(FAST),
    "wpf": lambda: WindowsPageFusion(WpfConfig(pass_interval=100 * MS)),
    "vusion": lambda: Vusion(
        VusionConfig(random_pool_frames=128, min_idle_ns=50 * MS), FAST
    ),
    "vusion-no-rerand": lambda: Vusion(
        VusionConfig(
            random_pool_frames=128,
            min_idle_ns=50 * MS,
            rerandomize_each_scan=False,
        ),
        FAST,
    ),
    "memory-combining": lambda: MemoryCombining(FAST, swap_after_ns=100 * MS),
}


def run_workload(engine_name: str, fingerprint_enabled: bool) -> dict:
    """Run a seeded mixed workload; return every observable output."""
    spec = MachineSpec(
        total_frames=2048, seed=1017, fingerprint_enabled=fingerprint_enabled
    )
    kernel = Kernel(spec)
    kernel.tracepoints.record(capacity=200_000)
    engine = ENGINES[engine_name]()
    kernel.attach_fusion(engine)

    rng = random.Random(42)
    processes = [kernel.create_process(f"p{i}") for i in range(3)]
    vmas = [p.mmap(12, mergeable=True) for p in processes]
    for process, vma in zip(processes, vmas):
        for index in range(12):
            process.write(
                vma.start + index * PAGE_SIZE, tagged_content("det", index % 5)
            )
    kernel.idle(300 * MS)  # let merges happen
    for _ in range(40):
        proc_index = rng.randrange(3)
        page_index = rng.randrange(12)
        vaddr = vmas[proc_index].start + page_index * PAGE_SIZE
        op = rng.random()
        if op < 0.4:
            processes[proc_index].write(
                vaddr, tagged_content("det2", rng.randrange(6))
            )
        elif op < 0.8:
            processes[proc_index].read(vaddr)
        else:
            kernel.idle(rng.randrange(1, 4) * 25 * MS)
    kernel.idle(SECOND)

    stats = dataclasses.asdict(engine.stats)
    kstats = dataclasses.asdict(kernel.stats)
    return {
        "clock": kernel.clock.now,
        "trace": [
            (e.t_ns, e.name, tuple(sorted(e.fields.items())))
            for e in kernel.tracepoints.events()
        ],
        "fusion_stats": stats,
        "kernel_stats": kstats,
        "frames_in_use": kernel.frames_in_use(),
        "saved_frames": engine.saved_frames(),
    }


@pytest.mark.parametrize("engine_name", sorted(ENGINES))
def test_trace_and_stats_identical_with_cache_on_and_off(engine_name):
    on = run_workload(engine_name, fingerprint_enabled=True)
    off = run_workload(engine_name, fingerprint_enabled=False)
    assert on["clock"] == off["clock"]
    assert on["trace"] == off["trace"]
    assert on["fusion_stats"] == off["fusion_stats"]
    assert on["kernel_stats"] == off["kernel_stats"]
    assert on["frames_in_use"] == off["frames_in_use"]
    assert on["saved_frames"] == off["saved_frames"]


def test_same_seed_same_run_is_reproducible():
    """Sanity: two identical cache-on runs are themselves identical."""
    first = run_workload("vusion", fingerprint_enabled=True)
    second = run_workload("vusion", fingerprint_enabled=True)
    assert first == second


def test_digest_cache_counters_stay_out_of_fusion_stats():
    """Digest-cache bookkeeping must not leak into deterministic
    statistics: its counters live on the fingerprint cache only."""
    result = run_workload("ksm", fingerprint_enabled=True)
    cache_counters = set(FingerprintStats().as_dict())
    assert cache_counters.isdisjoint(result["fusion_stats"])
    assert cache_counters.isdisjoint(result["kernel_stats"])
    for key in result["fusion_stats"]:
        assert "digest" not in key and "fingerprint" not in key


def fleet_payload_digest(preset: str, system: str) -> str:
    result = run_fleet(FLEET_PRESETS[preset].spec(system=system))
    return sha256_json(result.to_payload())


@pytest.mark.parametrize(
    "preset,system",
    [(preset, system) for preset in ("smoke", "churn")
     for system in ("ksm", "vusion")],
)
def test_fingerprint_knob_is_payload_neutral(preset, system, monkeypatch):
    """A whole fleet preset's payload is a pure function of its spec and
    seed: switching the digest cache off must not move one byte."""
    on = fleet_payload_digest(preset, system)
    monkeypatch.setattr(
        scenario, "MachineSpec",
        functools.partial(MachineSpec, fingerprint_enabled=False),
    )
    off = fleet_payload_digest(preset, system)
    assert on == off, f"{preset}/{system}: cache on {on} != cache off {off}"
