"""Micro-benchmark gates for the columnar frame store.

Three properties of the memory stack are asserted as ratios (wall
numbers are host-dependent and only reported):

* **digest-all-frames**: hashing every frame of a duplicate-heavy
  machine must be at least 5x faster with the fingerprint cache on,
  because the arena computes one digest per *unique* payload while
  ``fingerprint_enabled=False`` runs one blake2b per frame;
* **O(1) accounting**: the per-sample cost of ``frames_in_use`` +
  ``type_histogram`` must be flat in machine size (counters, not
  recounts) — a 16x larger machine may not cost more than a small
  constant factor per sample;
* **mapped_frames cache**: steady-state sorted-view iteration must beat
  re-sorting the rmap keys on every call, which is what sample-heavy
  monitoring loops used to pay.

Results land in ``BENCH_physmem_ops.json`` at the repository root so CI
history can track the ratios over time; the file's ``history`` block
(rows of gates whose baseline no longer exists) is carried over.
"""

from __future__ import annotations

import json
import pathlib
import time

import pytest

from repro.mem.content import tagged_content
from repro.mem.physmem import FrameType, PhysicalMemory

RESULT_PATH = pathlib.Path(__file__).resolve().parent.parent / (
    "BENCH_physmem_ops.json"
)

FRAMES = 16384
UNIQUE_CONTENTS = 64  # duplicate-heavy, as VM fleets are (Fig. 10)
REPEATS = 5
MIN_DIGEST_SPEEDUP = 5.0
MAX_SAMPLE_GROWTH = 3.0  # 16x frames may cost at most 3x per sample
MIN_MAPPED_SPEEDUP = 2.0


def populate(fingerprint_enabled: bool, frames: int = FRAMES) -> PhysicalMemory:
    physmem = PhysicalMemory(frames, fingerprint_enabled=fingerprint_enabled)
    for pfn in range(frames):
        physmem.write(pfn, tagged_content("bench", pfn % UNIQUE_CONTENTS))
    return physmem


def best_of(repeats: int, run) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.fixture(scope="module")
def report():
    data = {
        "frames": FRAMES,
        "unique_contents": UNIQUE_CONTENTS,
        "gates": {},
    }
    yield data
    if RESULT_PATH.exists():
        history = json.loads(RESULT_PATH.read_text()).get("history")
        if history:
            data["history"] = history
    RESULT_PATH.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    print(f"\nwrote {RESULT_PATH}")


def test_digest_all_frames_speedup(report):
    """Cold full-machine digest sweep: once per unique vs once per frame."""
    pfns = list(range(FRAMES))
    times = {}
    results = {}
    for name, enabled in (("uncached", False), ("cached", True)):
        best = float("inf")
        for _ in range(REPEATS):
            physmem = populate(enabled)  # fresh machine: cold digests
            start = time.perf_counter()
            results[name] = physmem.digests_many(pfns)
            best = min(best, time.perf_counter() - start)
        times[name] = best
    assert results["uncached"] == results["cached"]
    speedup = times["uncached"] / times["cached"]
    report["gates"]["digest_all_frames"] = {
        "uncached_s": times["uncached"],
        "cached_s": times["cached"],
        "speedup": speedup,
    }
    print(
        f"\ndigest-all-frames: uncached {times['uncached'] * 1e3:.1f} ms, "
        f"cached {times['cached'] * 1e3:.1f} ms ({speedup:.1f}x)"
    )
    assert speedup >= MIN_DIGEST_SPEEDUP, (
        f"digest sweep only {speedup:.2f}x faster with the arena cache "
        f"(need {MIN_DIGEST_SPEEDUP}x)"
    )


def sample_cost(frames: int) -> float:
    """Per-sample accounting cost on a machine with busy frame types."""
    physmem = PhysicalMemory(frames)
    types = [t for t in FrameType if t is not FrameType.FREE]
    for pfn in range(0, frames, 2):
        physmem.set_frame_type(pfn, types[pfn % len(types)])
    rounds = 2000

    def run():
        for _ in range(rounds):
            physmem.frames_in_use()
            physmem.type_histogram()

    return best_of(REPEATS, run) / rounds


def test_accounting_cost_is_flat_in_machine_size(report):
    """Counter-backed sampling: 4k-frame and 64k-frame machines cost
    the same per sample (the old recount scaled linearly)."""
    small, large = 4096, 65536
    cost_small = sample_cost(small)
    cost_large = sample_cost(large)
    growth = cost_large / cost_small
    report["gates"]["accounting_sample"] = {
        "frames_small": small,
        "frames_large": large,
        "cost_small_us": cost_small * 1e6,
        "cost_large_us": cost_large * 1e6,
        "growth": growth,
    }
    print(
        f"\naccounting sample: {cost_small * 1e6:.2f} us @ {small} frames, "
        f"{cost_large * 1e6:.2f} us @ {large} frames ({growth:.2f}x)"
    )
    assert growth <= MAX_SAMPLE_GROWTH, (
        f"per-sample accounting cost grew {growth:.2f}x on a 16x machine "
        f"(need <= {MAX_SAMPLE_GROWTH}x: counters, not recounts)"
    )


def test_mapped_frames_cache_beats_resort(report):
    """Steady-state mapped_frames() vs re-sorting the rmap every call."""
    physmem = PhysicalMemory(FRAMES)
    for pfn in range(0, FRAMES, 2):
        physmem.rmap_add(pfn, 1, pfn * 4096)
    rounds = 200

    def cached():
        for _ in range(rounds):
            for _pfn in physmem.mapped_frames():
                pass

    def resort():
        # What every call used to pay: sort the live rmap keys.
        for _ in range(rounds):
            for _pfn in sorted(physmem._rmap):
                pass

    cached_s = best_of(REPEATS, cached)
    resort_s = best_of(REPEATS, resort)
    assert list(physmem.mapped_frames()) == sorted(physmem._rmap)
    speedup = resort_s / cached_s
    report["gates"]["mapped_frames_cache"] = {
        "cached_s": cached_s,
        "resort_s": resort_s,
        "speedup": speedup,
    }
    print(
        f"\nmapped_frames: cached {cached_s * 1e3:.1f} ms, resort "
        f"{resort_s * 1e3:.1f} ms per {rounds} sweeps ({speedup:.1f}x)"
    )
    assert speedup >= MIN_MAPPED_SPEEDUP, (
        f"cached mapped_frames only {speedup:.2f}x resort "
        f"(need {MIN_MAPPED_SPEEDUP}x)"
    )
