"""Regression tests for the O(1) accounting counters.

``frames_in_use`` / ``type_histogram`` / buddy ``free_frames`` used to
be full recounts over every frame; they are now incrementally
maintained counters.  These tests drive randomized alloc/free/retype
traffic and assert counter == recount at every step, plus the cached
``mapped_frames`` view against a model of the rmap key set.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, strategies as st

from repro.kernel.kernel import Kernel
from repro.mem.buddy import BuddyAllocator
from repro.mem.content import tagged_content
from repro.mem.physmem import FrameType, PhysicalMemory
from repro.params import PAGE_SIZE, SECOND

from tests.conftest import small_spec

FRAMES = 64
TYPES = list(FrameType)


def recount(physmem: PhysicalMemory) -> tuple[int, dict[FrameType, int]]:
    """The slow ground truth the counters replaced."""
    histogram = {frame_type: 0 for frame_type in FrameType}
    for pfn in range(physmem.num_frames):
        histogram[physmem.frame_type(pfn)] += 1
    in_use = physmem.num_frames - histogram[FrameType.FREE]
    return in_use, histogram


type_op = st.tuples(
    st.integers(0, FRAMES - 1),
    st.sampled_from(TYPES),
)


#: The one store, kept as a parameter so the test id names what it
#: exercises (``physmem.store_kind``).
STORES = ["columnar"]


@pytest.mark.parametrize("store", STORES)
@given(ops=st.lists(type_op, min_size=1, max_size=300))
def test_counters_match_recount_under_random_retype(store, ops):
    """frames_in_use/type_histogram (counter-backed) equal a full
    recount at every step."""
    physmem = PhysicalMemory(FRAMES)
    assert physmem.store_kind == store
    for pfn, frame_type in ops:
        physmem.set_frame_type(pfn, frame_type)
        in_use, histogram = recount(physmem)
        assert physmem.frames_in_use() == in_use
        assert physmem.type_histogram() == histogram

    # The histogram preserves FrameType declaration order (Table 3
    # rendering depends on it).
    assert list(physmem.type_histogram()) == TYPES


rmap_op = st.tuples(
    st.sampled_from(["add", "remove"]),
    st.integers(0, FRAMES - 1),
    st.integers(1, 3),        # pid
    st.integers(0, 3),        # page index
)


@given(ops=st.lists(rmap_op, min_size=1, max_size=300))
def test_mapped_frames_cache_tracks_rmap_key_set(ops):
    """The sorted mapped-pfn view stays exact under random rmap churn,
    and is only rebuilt when a pfn gains its first / loses its last
    mapping."""
    physmem = PhysicalMemory(FRAMES)
    model: dict[int, set[tuple[int, int]]] = {}
    for action, pfn, pid, index in ops:
        vaddr = index * PAGE_SIZE
        entries = model.setdefault(pfn, set())
        key_set_before = set(model_keys(model))
        cached_before = physmem._mapped_cache
        if action == "add":
            if (pid, vaddr) in entries:
                continue  # rmap_add of a duplicate entry is a no-op set add
            physmem.rmap_add(pfn, pid, vaddr)
            entries.add((pid, vaddr))
        else:
            if (pid, vaddr) not in entries:
                continue  # removing a missing entry raises; not under test
            physmem.rmap_remove(pfn, pid, vaddr)
            entries.remove((pid, vaddr))

        assert list(physmem.mapped_frames()) == sorted(model_keys(model))
        assert physmem.rmap(pfn) == frozenset(model.get(pfn) or ())
        if set(model_keys(model)) == key_set_before and cached_before is not None:
            # Key set unchanged: the cached tuple must have survived.
            assert physmem._mapped_cache is cached_before


def model_keys(model: dict[int, set]) -> list[int]:
    return [pfn for pfn, entries in model.items() if entries]


buddy_op = st.tuples(
    st.sampled_from(["alloc", "free"]),
    st.integers(0, 3),  # order
)


@given(ops=st.lists(buddy_op, min_size=1, max_size=200))
def test_buddy_free_frames_counter_matches_outstanding(ops):
    """free_frames() == total - outstanding allocation mass, always."""
    total = 256
    buddy = BuddyAllocator(0, total)
    outstanding: list[tuple[int, int]] = []  # (pfn, order)
    for action, order in ops:
        if action == "alloc":
            try:
                pfn = buddy.alloc(order)
            except Exception:
                continue  # out of memory at this order: fine
            outstanding.append((pfn, order))
        elif outstanding:
            pfn, order = outstanding.pop()
            buddy.free(pfn, order)
        allocated = sum(1 << order for _pfn, order in outstanding)
        assert buddy.free_frames() == total - allocated


def test_kernel_traffic_keeps_counters_exact():
    """End-to-end: processes mapping/unmapping under a live kernel leave
    the counters equal to a recount (and to the buddy's view)."""
    kernel = Kernel(small_spec(frames=2048))
    physmem = kernel.physmem
    processes = [kernel.create_process(f"p{i}") for i in range(3)]
    vmas = [p.mmap(32, mergeable=True) for p in processes]
    for process, vma in zip(processes, vmas):
        for index in range(32):
            process.write(
                vma.start + index * PAGE_SIZE,
                tagged_content("acct", index % 5),
            )
    kernel.idle(SECOND)
    kernel.munmap(processes[0], vmas[0])
    kernel.idle(SECOND)

    in_use, histogram = recount(physmem)
    assert physmem.frames_in_use() == in_use
    assert physmem.type_histogram() == histogram
    assert kernel.frames_in_use() == in_use
    # Every mapped frame is accounted as in use, none as FREE.
    mapped = list(physmem.mapped_frames())
    assert mapped == sorted(mapped)
    types = Counter(physmem.frame_type(pfn) for pfn in mapped)
    assert types[FrameType.FREE] == 0
