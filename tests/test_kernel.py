"""Integration tests for the kernel: demand paging, CoW, THP, timing."""

from __future__ import annotations

import pytest

from repro.errors import ProtectionFault, SegmentationFault
from repro.kernel.kernel import Kernel, ZERO_FRAME
from repro.mem.content import tagged_content
from repro.mem.physmem import FrameType
from repro.mmu.pte import PteFlags
from repro.params import MachineSpec, PAGE_SIZE, PAGES_PER_HUGE_PAGE, SECOND

from tests.conftest import small_spec


class TestDemandPaging:
    def test_read_of_untouched_anon_is_zero(self, kernel):
        proc = kernel.create_process("p")
        vma = proc.mmap(4)
        result = proc.read(vma.start)
        assert result.content == b""
        assert "demand" in result.fault_kinds
        # Read faults map the shared zero frame.
        walk = proc.address_space.page_table.walk(vma.start)
        assert walk.pfn == ZERO_FRAME
        assert not walk.pte.writable

    def test_write_allocates_private_frame(self, kernel):
        proc = kernel.create_process("p")
        vma = proc.mmap(4)
        proc.write(vma.start, b"data")
        walk = proc.address_space.page_table.walk(vma.start)
        assert walk.pfn != ZERO_FRAME
        assert walk.pte.writable
        assert kernel.physmem.frame_type(walk.pfn) is FrameType.ANON
        assert proc.read(vma.start).content == b"data"

    def test_write_after_zero_read_cows(self, kernel):
        proc = kernel.create_process("p")
        vma = proc.mmap(1)
        proc.read(vma.start)
        result = proc.write(vma.start, b"x")
        assert "cow" in result.fault_kinds
        assert proc.read(vma.start).content == b"x"
        # The zero frame itself must never be dirtied.
        assert kernel.physmem.read(ZERO_FRAME) == b""

    def test_unmapped_address_segfaults(self, kernel):
        proc = kernel.create_process("p")
        with pytest.raises(SegmentationFault):
            proc.read(0x999_0000)

    def test_second_access_no_fault(self, kernel):
        proc = kernel.create_process("p")
        vma = proc.mmap(1)
        proc.write(vma.start, b"a")
        result = proc.read(vma.start)
        assert result.fault_kinds == ()

    def test_file_backed_pages_deterministic(self, kernel):
        proc = kernel.create_process("p")
        proc.file_store.register_file("etc", 4)
        vma = proc.mmap(4, file_key="etc")
        first = proc.read(vma.start + PAGE_SIZE).content
        assert first == proc.file_store.page_content("etc", 1)
        walk = proc.address_space.page_table.walk(vma.start + PAGE_SIZE)
        assert kernel.physmem.frame_type(walk.pfn) is FrameType.PAGE_CACHE

    def test_file_page_write_cows(self, kernel):
        proc = kernel.create_process("p")
        proc.file_store.register_file("etc", 1)
        vma = proc.mmap(1, file_key="etc")
        proc.read(vma.start)
        result = proc.write(vma.start, b"private")
        assert "cow" in result.fault_kinds
        assert proc.read(vma.start).content == b"private"


class TestTiming:
    def test_fault_much_slower_than_hit(self, kernel):
        proc = kernel.create_process("p")
        vma = proc.mmap(2)
        cold = proc.write(vma.start, b"a").latency
        warm = proc.time_read(vma.start)
        assert cold > 5 * warm

    def test_tlb_hit_faster_than_walk(self, kernel):
        proc = kernel.create_process("p")
        vma = proc.mmap(1)
        proc.write(vma.start, b"a")
        proc.read(vma.start)
        hit = proc.read(vma.start)
        assert hit.tlb_hit
        proc.tlb.flush()
        miss = proc.read(vma.start)
        assert not miss.tlb_hit
        assert miss.latency > hit.latency

    def test_llc_hit_faster_than_dram(self, kernel):
        proc = kernel.create_process("p")
        vma = proc.mmap(1)
        proc.write(vma.start, b"a")
        proc.read(vma.start)
        fast = proc.read(vma.start)
        assert fast.llc_hit
        kernel.llc.flush_frame(
            proc.address_space.page_table.walk(vma.start).pfn
        )
        slow = proc.read(vma.start)
        assert not slow.llc_hit
        assert slow.latency > fast.latency

    def test_clock_monotonic(self, kernel):
        proc = kernel.create_process("p")
        vma = proc.mmap(8)
        t0 = kernel.clock.now
        for index in range(8):
            proc.write(vma.start + index * PAGE_SIZE, b"x")
        assert kernel.clock.now > t0


class TestMunmap:
    def test_frames_released(self, kernel):
        proc = kernel.create_process("p")
        vma = proc.mmap(16)
        for index in range(16):
            proc.write(vma.start + index * PAGE_SIZE, tagged_content("m", index))
        used_before = kernel.frames_in_use()
        proc.munmap(vma)
        assert kernel.frames_in_use() == used_before - 16
        with pytest.raises(SegmentationFault):
            proc.read(vma.start)

    def test_zero_frame_survives_munmap(self, kernel):
        proc = kernel.create_process("p")
        vma = proc.mmap(4)
        for index in range(4):
            proc.read(vma.start + index * PAGE_SIZE)
        proc.munmap(vma)
        assert kernel.physmem.refcount(ZERO_FRAME) == 1  # the boot pin

    def test_shared_file_content_refetched(self, kernel):
        proc = kernel.create_process("p")
        proc.file_store.register_file("f", 2)
        vma = proc.mmap(2, file_key="f")
        first = proc.read(vma.start).content
        kernel.invalidate_file_pages(proc, vma)
        proc.file_store.rewrite_file("f")
        second = proc.read(vma.start).content
        assert first != second


class TestThpFault:
    def test_huge_allocation_on_write(self, kernel_thp):
        proc = kernel_thp.create_process("p")
        vma = proc.mmap(PAGES_PER_HUGE_PAGE)
        result = proc.write(vma.start, b"x")
        assert "demand" in result.fault_kinds
        walk = proc.address_space.page_table.walk(vma.start)
        assert walk.huge
        assert walk.levels_walked == 3
        assert kernel_thp.stats.thp_fault_allocs == 1
        # All 512 subframes are refcounted and rmapped.
        head = walk.pfn
        assert head % PAGES_PER_HUGE_PAGE == 0
        assert kernel_thp.physmem.refcount(head + 100) == 1

    def test_subpage_contents_independent(self, kernel_thp):
        proc = kernel_thp.create_process("p")
        vma = proc.mmap(PAGES_PER_HUGE_PAGE)
        proc.write(vma.start, b"first")
        proc.write(vma.start + 7 * PAGE_SIZE, b"seventh")
        assert proc.read(vma.start).content == b"first"
        assert proc.read(vma.start + 7 * PAGE_SIZE).content == b"seventh"

    def test_split_preserves_contents(self, kernel_thp):
        proc = kernel_thp.create_process("p")
        vma = proc.mmap(PAGES_PER_HUGE_PAGE)
        proc.write(vma.start, b"x")
        proc.write(vma.start + 5 * PAGE_SIZE, b"five")
        kernel_thp.split_huge_mapping(proc, vma.start)
        walk = proc.address_space.page_table.walk(vma.start + 5 * PAGE_SIZE)
        assert not walk.huge
        assert proc.read(vma.start + 5 * PAGE_SIZE).content == b"five"

    def test_munmap_huge_returns_all_frames(self, kernel_thp):
        proc = kernel_thp.create_process("p")
        vma = proc.mmap(PAGES_PER_HUGE_PAGE)
        proc.write(vma.start, b"x")
        used = kernel_thp.frames_in_use()
        proc.munmap(vma)
        assert kernel_thp.frames_in_use() == used - PAGES_PER_HUGE_PAGE

    def test_small_vma_never_huge(self, kernel_thp):
        proc = kernel_thp.create_process("p")
        vma = proc.mmap(8)
        proc.write(vma.start, b"x")
        walk = proc.address_space.page_table.walk(vma.start)
        assert not walk.huge


class TestProtection:
    def test_write_to_readonly_nonCow_raises(self, kernel):
        proc = kernel.create_process("p")
        vma = proc.mmap(1)
        proc.write(vma.start, b"a")
        walk = proc.address_space.page_table.walk(vma.start)
        walk.pte.clear(PteFlags.WRITABLE)
        walk.pte.clear(PteFlags.COW)
        proc.tlb.flush()
        with pytest.raises(ProtectionFault):
            proc.write(vma.start, b"b")


class TestDaemonsAndIdle:
    def test_idle_runs_daemons(self, kernel):
        runs = []
        kernel.register_daemon("t", SECOND, lambda: runs.append(kernel.clock.now))
        kernel.idle(5 * SECOND)
        assert len(runs) == 5

    def test_access_triggers_due_daemon(self, kernel):
        runs = []
        kernel.register_daemon("t", SECOND, lambda: runs.append(1))
        kernel.clock.advance(3 * SECOND)
        proc = kernel.create_process("p")
        vma = proc.mmap(1)
        proc.read(vma.start)
        assert runs  # ran at least once when the access arrived


class TestRefcountInvariant:
    def test_refcounts_match_rmap(self, kernel):
        """Every mapped frame's refcount equals its rmap entry count
        (+1 for the pinned zero frame)."""
        procs = [kernel.create_process(f"p{i}") for i in range(3)]
        for proc in procs:
            vma = proc.mmap(8)
            for index in range(0, 8, 2):
                proc.write(vma.start + index * PAGE_SIZE, tagged_content("rc", index))
            for index in range(1, 8, 2):
                proc.read(vma.start + index * PAGE_SIZE)
        for pfn in kernel.physmem.mapped_frames():
            expected = len(kernel.physmem.rmap(pfn))
            if pfn == ZERO_FRAME:
                expected += 1
            assert kernel.physmem.refcount(pfn) == expected
