"""Edge cases of the kernel: huge CoW, hammer API, fault-loop guards."""

from __future__ import annotations

import pytest

from repro.errors import (
    FusionError,
    MappingError,
    ProtectionFault,
    SegmentationFault,
)
from repro.kernel.access import AccessKind
from repro.kernel.kernel import Kernel, ZERO_FRAME
from repro.mem.content import tagged_content
from repro.mem.physmem import FrameType
from repro.mmu.pte import PteFlags
from repro.params import MachineSpec, PAGE_SIZE, PAGES_PER_HUGE_PAGE

from tests.conftest import small_spec


class TestHammerApi:
    def test_hammer_reads_and_flips(self):
        kernel = Kernel(small_spec(frames=16384), thp_fault_enabled=True)
        kernel.rowhammer.row_vulnerability = 1.0
        proc = kernel.create_process("p")
        vma = proc.mmap(PAGES_PER_HUGE_PAGE)
        proc.write(vma.start, b"head")
        flips = proc.hammer(vma.start, vma.start + 32 * PAGE_SIZE)
        assert flips
        head = proc.address_space.page_table.walk(vma.start).pte.pfn
        assert all(head + 16 <= f.pfn <= head + 17 for f in flips)

    def test_hammer_unmapped_raises(self):
        kernel = Kernel(small_spec())
        proc = kernel.create_process("p")
        with pytest.raises(SegmentationFault):
            proc.hammer(0xDEAD000, 0xBEEF000)

    def test_hammer_counts_rounds(self):
        kernel = Kernel(small_spec())
        proc = kernel.create_process("p")
        vma = proc.mmap(2)
        proc.write(vma.start, b"a")
        proc.write(vma.start + PAGE_SIZE, b"b")
        t0 = kernel.clock.now
        proc.hammer(vma.start, vma.start + PAGE_SIZE, rounds=5)
        assert kernel.clock.now - t0 >= 5 * kernel.costs.hammer_round


class TestHugeCow:
    def test_shared_huge_page_copies_on_write(self):
        """A COW huge mapping with shared subframes is copied whole."""
        kernel = Kernel(small_spec(frames=16384), thp_fault_enabled=True)
        proc = kernel.create_process("p")
        vma = proc.mmap(PAGES_PER_HUGE_PAGE)
        proc.write(vma.start, b"orig")
        walk = proc.address_space.page_table.walk(vma.start)
        head = walk.pte.pfn
        # Simulate sharing: extra refs + COW, clear writable.
        for index in range(PAGES_PER_HUGE_PAGE):
            kernel.physmem.get_ref(head + index)
        walk.pte.clear(PteFlags.WRITABLE)
        walk.pte.set(PteFlags.COW)
        proc.tlb.flush()
        result = proc.write(vma.start, b"new")
        assert "cow" in result.fault_kinds
        new_walk = proc.address_space.page_table.walk(vma.start)
        assert new_walk.pte.pfn != head
        assert new_walk.huge
        assert proc.read(vma.start).content == b"new"
        for index in range(PAGES_PER_HUGE_PAGE):
            kernel.physmem.put_ref(head + index)

    def test_exclusive_cow_huge_just_remaps(self):
        kernel = Kernel(small_spec(frames=16384), thp_fault_enabled=True)
        proc = kernel.create_process("p")
        vma = proc.mmap(PAGES_PER_HUGE_PAGE)
        proc.write(vma.start, b"orig")
        walk = proc.address_space.page_table.walk(vma.start)
        head = walk.pte.pfn
        walk.pte.clear(PteFlags.WRITABLE)
        walk.pte.set(PteFlags.COW)
        proc.tlb.flush()
        proc.write(vma.start, b"new")
        after = proc.address_space.page_table.walk(vma.start)
        assert after.pte.pfn == head  # refcount 1: no copy needed
        assert after.pte.writable


class TestFaultPathGuards:
    def test_reserved_without_engine_is_protection_fault(self):
        kernel = Kernel(small_spec())
        proc = kernel.create_process("p")
        vma = proc.mmap(1)
        proc.write(vma.start, b"x")
        walk = proc.address_space.page_table.walk(vma.start)
        walk.pte.set(PteFlags.RESERVED)
        proc.tlb.flush()
        with pytest.raises(ProtectionFault):
            proc.read(vma.start)

    def test_zero_frame_never_writable(self):
        kernel = Kernel(small_spec())
        procs = [kernel.create_process(f"p{i}") for i in range(4)]
        for proc in procs:
            vma = proc.mmap(2)
            proc.read(vma.start)
            proc.read(vma.start + PAGE_SIZE)
            proc.write(vma.start, b"private")
        assert kernel.physmem.read(ZERO_FRAME) == b""

    def test_rewrite_keeps_content(self):
        kernel = Kernel(small_spec())
        proc = kernel.create_process("p")
        vma = proc.mmap(1)
        proc.write(vma.start, b"keep me")
        proc.rewrite(vma.start)
        assert proc.read(vma.start).content == b"keep me"

    def test_access_kind_values(self):
        assert AccessKind.READ.value == "read"
        assert AccessKind.WRITE.value == "write"
        assert AccessKind.FETCH.value == "fetch"


def _remap_fixture(target: str):
    """A kernel with page 0 of a 2-page VMA privately mapped and
    cached in the TLB, plus the frame it will be moved to: a fresh
    frame, or page 1's frame (shared after the move)."""
    kernel = Kernel(small_spec())
    proc = kernel.create_process("p")
    vma = proc.mmap(2)
    proc.write(vma.start, b"old")
    proc.write(vma.start + PAGE_SIZE, b"other")
    if target == "fresh":
        new_pfn = kernel.alloc_frame(FrameType.ANON)
    else:
        new_pfn = proc.address_space.page_table.walk(
            vma.start + PAGE_SIZE).pfn
    proc.read(vma.start)
    return kernel, proc, vma.start, new_pfn


class TestRemapPage:
    FLAGS = PteFlags.USER | PteFlags.FUSED | PteFlags.RESERVED

    @pytest.mark.parametrize("target", ["fresh", "mapped"])
    def test_remap_page_equals_unmap_then_map(self, target):
        observed = []
        for one_walk in (False, True):
            kernel, proc, vaddr, new_pfn = _remap_fixture(target)
            page_table = proc.address_space.page_table
            old_pfn = page_table.walk(vaddr).pfn
            assert proc.tlb.lookup(vaddr >> 12, False)
            version, clock = page_table.version, kernel.clock.now
            if one_walk:
                returned = kernel.remap_page(proc, vaddr, new_pfn, self.FLAGS)
            else:
                pfn, refcount, _pte = kernel.unmap_page(proc, vaddr)
                kernel.map_page(proc, vaddr, new_pfn, self.FLAGS)
                returned = (pfn, refcount)
            pte = page_table.walk(vaddr).pte
            observed.append({
                "returned": returned,
                "pte": (pte.pfn, pte.flags),
                "rmap": (kernel.physmem.rmap(old_pfn),
                         kernel.physmem.rmap(new_pfn)),
                "refcounts": (kernel.physmem.refcount(old_pfn),
                              kernel.physmem.refcount(new_pfn)),
                "version_delta": page_table.version - version,
                "clock_delta": kernel.clock.now - clock,
                "tlb_hit": proc.tlb.lookup(vaddr >> 12, False),
            })
        split, one_walk = observed
        assert one_walk == split
        assert one_walk["pte"] == (new_pfn, self.FLAGS | PteFlags.PRESENT)
        assert one_walk["version_delta"] == 2
        assert one_walk["clock_delta"] == 2 * kernel.costs.pte_update
        assert not one_walk["tlb_hit"]

    def test_remap_unmapped_address_raises(self):
        kernel, proc, vaddr, new_pfn = _remap_fixture("fresh")
        with pytest.raises(MappingError):
            kernel.remap_page(proc, vaddr + 64 * PAGE_SIZE, new_pfn, self.FLAGS)
        assert kernel.physmem.refcount(new_pfn) == 0

    def test_remap_huge_leaf_raises(self):
        kernel = Kernel(small_spec(frames=16384), thp_fault_enabled=True)
        proc = kernel.create_process("p")
        vma = proc.mmap(PAGES_PER_HUGE_PAGE)
        proc.write(vma.start, b"head")
        page_table = proc.address_space.page_table
        assert page_table.walk(vma.start).huge
        new_pfn = kernel.alloc_frame(FrameType.ANON)
        with pytest.raises(MappingError):
            kernel.remap_page(proc, vma.start, new_pfn, self.FLAGS)
        assert page_table.walk(vma.start).huge
        assert kernel.physmem.refcount(new_pfn) == 0


class TestFileInvalidation:
    def test_invalidate_skips_absent_pages(self):
        kernel = Kernel(small_spec())
        proc = kernel.create_process("p")
        proc.file_store.register_file("f", 8)
        vma = proc.mmap(8, file_key="f")
        proc.read(vma.start)  # only page 0 resident
        dropped = kernel.invalidate_file_pages(proc, vma)
        assert dropped == 1

    def test_refault_uses_new_generation(self):
        kernel = Kernel(small_spec())
        proc = kernel.create_process("p")
        proc.file_store.register_file("f", 1)
        vma = proc.mmap(1, file_key="f")
        first = proc.read(vma.start).content
        proc.file_store.rewrite_file("f")
        # Still cached: old content until invalidated.
        assert proc.read(vma.start).content == first
        kernel.invalidate_file_pages(proc, vma)
        assert proc.read(vma.start).content != first


class TestFrameAccounting:
    def test_alloc_free_roundtrip_accounting(self):
        kernel = Kernel(small_spec())
        from repro.mem.physmem import FrameType

        used_before = kernel.frames_in_use()
        pfn = kernel.alloc_frame(FrameType.ANON)
        assert kernel.frames_in_use() == used_before + 1
        kernel.free_frame(pfn)
        assert kernel.frames_in_use() == used_before

    def test_order9_alloc_accounting(self):
        kernel = Kernel(small_spec(frames=16384))
        from repro.mem.physmem import FrameType

        used_before = kernel.frames_in_use()
        head = kernel.alloc_frame(FrameType.ANON, order=9)
        assert kernel.frames_in_use() == used_before + 512
        kernel.free_frame(head, order=9)
        assert kernel.frames_in_use() == used_before
