"""Differential testing of the frame-fingerprint cache (hypothesis).

The fingerprint engine is an optimisation layered under every fusion
engine, so its correctness contract is differential: for any
interleaving of writes, Rowhammer bit flips, merges, unmerges and scan
activity, a cached digest must always equal the digest of the frame's
*current* content, and the per-frame generation counters must be exact
— no stale hits (a mutated frame still reporting its old digest or
generation) and no spurious bumps (an untouched frame's generation
advancing).

Two layers are exercised:

* raw :class:`~repro.mem.physmem.PhysicalMemory` operation sequences,
  with the expected generations tracked independently by the test;
* full kernels running each fusion engine, where merges/unmerges/
  rerandomisation move pages between frames behind the workload's
  back.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.vusion import Vusion
from repro.fusion.cow_ksm import CopyOnAccessKsm
from repro.fusion.ksm import Ksm
from repro.fusion.memory_combining import MemoryCombining
from repro.fusion.wpf import WindowsPageFusion
from repro.kernel.kernel import Kernel
from repro.mem.content import content_digest, tagged_content
from repro.mem.physmem import PhysicalMemory
from repro.params import (
    FusionConfig,
    MS,
    PAGE_SIZE,
    SECOND,
    VusionConfig,
    WpfConfig,
)

from tests.conftest import small_spec

# ----------------------------------------------------------------------
# Layer 1: raw physical-memory operation sequences
# ----------------------------------------------------------------------

RAW_FRAMES = 24

raw_op = st.one_of(
    st.tuples(
        st.just("write"),
        st.integers(0, RAW_FRAMES - 1),
        st.integers(0, 15),  # content tag
    ),
    st.tuples(
        st.just("copy"),
        st.integers(0, RAW_FRAMES - 1),
        st.integers(0, RAW_FRAMES - 1),
    ),
    st.tuples(
        st.just("corrupt"),
        st.integers(0, RAW_FRAMES - 1),
        st.integers(0, PAGE_SIZE - 1),
    ),
    st.tuples(
        st.just("digest"),
        st.integers(0, RAW_FRAMES - 1),
        st.just(0),
    ),
)


def assert_cache_fresh(physmem: PhysicalMemory) -> None:
    """Every cached digest matches a fresh hash of the frame's content."""
    fingerprints = physmem.fingerprints
    for pfn in fingerprints.cached_frames():
        cached = fingerprints.peek(pfn)
        # peek_content: freed frames keep their (still-exact) cached
        # digests, and this check must not trip FrameSan's UAF detector.
        fresh = content_digest(physmem.peek_content(pfn))
        assert cached == fresh, (
            f"stale digest for pfn {pfn}: cached {cached:#x}, fresh {fresh:#x}"
        )


#: The one store, kept as a parameter so the test ids name what they
#: exercise (``physmem.store_kind``).
STORES = ["columnar"]

@pytest.mark.parametrize("store", STORES)
@settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(ops=st.lists(raw_op, min_size=1, max_size=120))
def test_raw_operation_sequences(store, ops):
    """Digest cache and generations stay exact under arbitrary ops."""
    physmem = PhysicalMemory(RAW_FRAMES)
    assert physmem.store_kind == store
    expected_generations = [0] * RAW_FRAMES

    for action, a, b in ops:
        if action == "write":
            physmem.write(a, tagged_content("raw", b))
            expected_generations[a] += 1
        elif action == "copy":
            physmem.copy(a, b)
            expected_generations[b] += 1
        elif action == "corrupt":
            version_before = physmem.version(a)
            physmem.corrupt_bit(a, b, b % 8)
            expected_generations[a] += 1
            # Rowhammer must invalidate the digest but never the
            # charge-recharge version (one-way discharge model).
            assert physmem.version(a) == version_before
            # The flip moved the frame to the flipped payload's content
            # id; a digest is only present if that exact payload was
            # digested before — never stale.
            peeked = physmem.fingerprints.peek(a)
            assert peeked is None or peeked == content_digest(
                physmem.peek_content(a)
            )
        else:  # digest
            assert physmem.digest(a) == content_digest(physmem.read(a))

        assert_cache_fresh(physmem)
        for pfn in range(RAW_FRAMES):
            assert physmem.generation(pfn) == expected_generations[pfn]

    assert physmem.fingerprints.stats.mutations == sum(expected_generations)
    # A second digest of every frame is a cache hit and still fresh.
    for pfn in range(RAW_FRAMES):
        first = physmem.digest(pfn)
        assert physmem.digest(pfn) == first == content_digest(physmem.read(pfn))


@pytest.mark.parametrize("store", STORES)
@settings(max_examples=25, deadline=None)
@given(ops=st.lists(raw_op, min_size=1, max_size=60))
def test_disabled_cache_is_pure_recomputation(store, ops):
    """With fingerprints disabled nothing is cached, digests stay right."""
    physmem = PhysicalMemory(RAW_FRAMES, fingerprint_enabled=False)
    assert physmem.store_kind == store
    for action, a, b in ops:
        if action == "write":
            physmem.write(a, tagged_content("raw", b))
        elif action == "copy":
            physmem.copy(a, b)
        elif action == "corrupt":
            physmem.corrupt_bit(a, b, b % 8)
        else:
            assert physmem.digest(a) == content_digest(physmem.read(a))
        assert not physmem.fingerprints.cached_frames()
    assert physmem.fingerprints.stats.digest_hits == 0


# ----------------------------------------------------------------------
# Layer 2: full kernels under every fusion engine
# ----------------------------------------------------------------------

ENGINES = {
    "ksm": lambda: Ksm(FusionConfig(pages_per_scan=64, scan_interval=20 * MS)),
    "coa-ksm": lambda: CopyOnAccessKsm(
        FusionConfig(pages_per_scan=64, scan_interval=20 * MS)
    ),
    "wpf": lambda: WindowsPageFusion(WpfConfig(pass_interval=100 * MS)),
    "vusion": lambda: Vusion(
        VusionConfig(random_pool_frames=128, min_idle_ns=50 * MS),
        FusionConfig(pages_per_scan=64, scan_interval=20 * MS),
    ),
    "memory-combining": lambda: MemoryCombining(
        FusionConfig(pages_per_scan=64, scan_interval=20 * MS),
        swap_after_ns=100 * MS,
    ),
}

NUM_PROCS = 2
PAGES_PER_PROC = 10

engine_op = st.tuples(
    st.sampled_from(["write", "write_dup", "read", "flip", "idle"]),
    st.integers(0, NUM_PROCS - 1),
    st.integers(0, PAGES_PER_PROC - 1),
    st.integers(0, 7),
)


def frame_of(process, vaddr: int) -> int | None:
    walk = process.address_space.page_table.walk(vaddr)
    if walk is None:
        return None
    return walk.frame_for(vaddr)


def check_generation_exactness(physmem, contents_before, gens_before) -> None:
    """Every frame whose content changed has an advanced generation."""
    changed = {
        pfn
        for pfn in range(physmem.num_frames)
        # peek_content: this sweep inspects *every* frame, including
        # legitimately freed ones, and must not trip FrameSan's UAF check.
        if physmem.peek_content(pfn) != contents_before[pfn]
    }
    advanced = {
        pfn
        for pfn in range(physmem.num_frames)
        if physmem.generation(pfn) != gens_before[pfn]
    }
    assert changed <= advanced, f"stale generations: missed {changed - advanced}"


@pytest.mark.parametrize("engine_name", sorted(ENGINES))
@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(ops=st.lists(engine_op, min_size=1, max_size=40))
def test_engine_interleavings_keep_digests_fresh(engine_name, ops):
    """Under live fusion, every cached digest always matches the frame."""
    kernel = Kernel(small_spec(frames=1024))
    kernel.attach_fusion(ENGINES[engine_name]())
    physmem = kernel.physmem
    processes = [kernel.create_process(f"p{i}") for i in range(NUM_PROCS)]
    vmas = [p.mmap(PAGES_PER_PROC, mergeable=True) for p in processes]
    # Duplicate-heavy seed so merges actually happen.
    for process, vma in zip(processes, vmas):
        for index in range(PAGES_PER_PROC):
            process.write(
                vma.start + index * PAGE_SIZE, tagged_content("seed", index % 4)
            )

    for action, proc_index, page_index, salt in ops:
        process = processes[proc_index]
        vaddr = vmas[proc_index].start + page_index * PAGE_SIZE
        contents_before = physmem.contents_snapshot()
        gens_before = [physmem.generation(pfn) for pfn in range(physmem.num_frames)]
        if action == "write":
            process.write(vaddr, tagged_content("w", proc_index, page_index, salt))
        elif action == "write_dup":
            process.write(vaddr, tagged_content("dup", salt))
        elif action == "read":
            process.read(vaddr)
        elif action == "flip":
            pfn = frame_of(process, vaddr)
            if pfn is not None:
                physmem.corrupt_bit(pfn, salt * 17 % PAGE_SIZE, salt % 8)
        else:  # idle: scan daemons run, merging/unmerging/rerandomising
            kernel.idle(30 * MS * (salt + 1))

        assert_cache_fresh(physmem)
        check_generation_exactness(physmem, contents_before, gens_before)

    # Settle all daemons, then one last full-freshness sweep including
    # an explicit digest of every mapped frame (forces cache fills).
    contents_before = physmem.contents_snapshot()
    gens_before = [physmem.generation(pfn) for pfn in range(physmem.num_frames)]
    kernel.idle(SECOND)
    assert_cache_fresh(physmem)
    check_generation_exactness(physmem, contents_before, gens_before)
    for pfn in physmem.mapped_frames():
        assert physmem.digest(pfn) == content_digest(physmem.read(pfn))
    assert_cache_fresh(physmem)
