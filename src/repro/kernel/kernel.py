"""The kernel façade: machine state, memory operations and fault handling.

Every architectural access from every process funnels through
:meth:`Kernel.access`, which resolves faults (demand paging,
copy-on-write, VUsion's reserved-bit copy-on-access), models the TLB
and LLC, and charges simulated time.  Fusion engines and khugepaged
plug in as periodic daemons plus fault hooks — mirroring how KSM and
VUsion live inside Linux.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.cache.llc import LastLevelCache
from repro.cache.timing import AccessTimer
from repro.check.sanitizer import FrameSan
from repro.dram.geometry import DramMapper
from repro.dram.rowhammer import FlipTemplate, RowhammerEngine
from repro.errors import (
    FusionError,
    MappingError,
    OutOfMemoryError,
    ProtectionFault,
    SegmentationFault,
)
from repro.kernel.access import AccessKind, AccessResult, KernelStats
from repro.kernel.clock import Clock
from repro.kernel.daemons import Daemon, DaemonScheduler
from repro.kernel.idle import IdlePageTracker
from repro.kernel.process import Process
from repro.kernel.tracing import Tracepoints
from repro.mem.buddy import BuddyAllocator
from repro.mem.content import ZERO_PAGE, PageContent
from repro.mem.physmem import FrameType, PhysicalMemory
from repro.mmu.address_space import Vma
from repro.mmu.page_table import TranslationResult
from repro.mmu.pte import PageTableEntry, PteFlags
from repro.params import (
    HUGE_PAGE_SIZE,
    MachineSpec,
    PAGE_SIZE,
    PAGES_PER_HUGE_PAGE,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.fusion.base import FusionEngine

#: Frames reserved at the bottom of memory for the kernel image and the
#: shared zero page.
RESERVED_FRAMES = 16

#: The shared all-zero frame mapped on anonymous read faults.
ZERO_FRAME = 0


class Kernel:
    """One simulated machine: physical memory, MMU services and daemons."""

    def __init__(
        self,
        spec: MachineSpec | None = None,
        thp_fault_enabled: bool = False,
        sanitize: bool | None = None,
    ) -> None:
        self.spec = spec or MachineSpec()
        self.costs = self.spec.costs
        self.clock = Clock()
        self.physmem = PhysicalMemory(
            self.spec.total_frames,
            fingerprint_enabled=self.spec.fingerprint_enabled,
        )
        self.buddy = BuddyAllocator(RESERVED_FRAMES, self.spec.total_frames - RESERVED_FRAMES)
        #: FrameSan (None unless ``REPRO_SANITIZE=1`` or ``sanitize=True``):
        #: shadow-poisons freed frames and faults on UAF/double-free/CoW
        #: violations.  Shadow-state only, so simulation results are
        #: byte-identical with it on or off.
        self.sanitizer = FrameSan.from_env(
            self.physmem, clock=self.clock, zero_frame=ZERO_FRAME,
            reserved_frames=RESERVED_FRAMES, force=sanitize,
        )
        self.physmem.sanitizer = self.sanitizer
        self.buddy.sanitizer = self.sanitizer
        self.llc = LastLevelCache(self.spec.cache)
        self.dram = DramMapper(self.spec.dram, self.spec.total_frames)
        self.timer = AccessTimer(self.costs, self.llc, self.dram)
        self.rowhammer = RowhammerEngine(self.physmem, self.dram, self.spec.seed)
        self.idle_tracker = IdlePageTracker()
        self.scheduler = DaemonScheduler()
        self.stats = KernelStats()
        self.thp_fault_enabled = thp_fault_enabled
        self.fusion: "FusionEngine | None" = None
        #: Optional trace of fault-handler operations (SB symmetry tests).
        self.fault_trace: list[tuple] | None = None
        #: Structured tracepoints (merges, faults, collapses); off by
        #: default — call ``tracepoints.record()`` to capture.
        self.tracepoints = Tracepoints()
        self._processes: dict[int, Process] = {}
        self._next_pid = 1
        for pfn in range(RESERVED_FRAMES):
            self.physmem.set_frame_type(pfn, FrameType.KERNEL)
        # Pin the zero frame forever.
        self.physmem.write(ZERO_FRAME, ZERO_PAGE)
        self.physmem.get_ref(ZERO_FRAME)

    # ------------------------------------------------------------------
    # Processes and daemons
    # ------------------------------------------------------------------
    def create_process(self, name: str) -> Process:
        process = Process(self._next_pid, name, self)
        self._processes[process.pid] = process
        self._next_pid += 1
        return process

    def process(self, pid: int) -> Process:
        return self._processes[pid]

    def find_process(self, pid: int) -> Process | None:
        return self._processes.get(pid)

    @property
    def processes(self) -> tuple[Process, ...]:
        return tuple(self._processes.values())

    def destroy_process(self, process: Process) -> None:
        """Tear a process down completely (VM retirement).

        Every VMA is unmapped through the regular :meth:`munmap` path —
        fused frames go through ``on_fused_ref_drop``, huge pages are
        released as a block — so retirement frees exactly the frames the
        process still owned.  Scan cursors and the metrics layer already
        tolerate dead processes (``process.alive``), so a fusion pass in
        flight simply skips the retired VM on its next step.
        """
        for vma in list(process.address_space.vmas):
            self.munmap(process, vma)
        process.alive = False
        self._processes.pop(process.pid, None)

    def register_daemon(self, name: str, period: int, callback) -> Daemon:
        def timed_tick() -> None:
            start = self.clock.now
            callback()
            self.stats.daemon_ns[name] = (
                self.stats.daemon_ns.get(name, 0) + self.clock.now - start
            )

        return self.scheduler.register(
            Daemon(name, period, timed_tick), self.clock.now
        )

    def run_due_daemons(self) -> None:
        self.scheduler.run_due(self.clock.now)

    def charge_service(self, name: str, ns: int) -> None:
        """Book ``ns`` of simulated service to a daemon account without
        advancing the clock.

        For work that happens off the node's critical path — the shard
        exchange ships its content-id tables over the interconnect
        while guests keep running — the cost is real (it shows up in
        ``daemon_ns`` and every ``scan_ns`` rollup) but it does not
        stall the local timeline.
        """
        if ns < 0:
            raise ValueError("service charge must be >= 0")
        if ns:
            self.stats.daemon_ns[name] = (
                self.stats.daemon_ns.get(name, 0) + ns
            )

    def idle(self, duration: int) -> None:
        """Let simulated time pass, running daemons as they come due."""
        deadline = self.clock.now + duration
        while True:
            next_due = self.scheduler.next_deadline()
            if next_due is None or next_due > deadline:
                break
            self.clock.advance_to(next_due)
            self.scheduler.run_due(self.clock.now)
        self.clock.advance_to(deadline)

    def attach_fusion(self, engine: "FusionEngine") -> "FusionEngine":
        if self.fusion is not None:
            raise FusionError("a fusion engine is already attached")
        self.fusion = engine
        engine.attach(self)
        return engine

    # ------------------------------------------------------------------
    # Tracing (used by the SB symmetry tests)
    # ------------------------------------------------------------------
    def trace(self, *event: object) -> None:
        if self.fault_trace is not None:
            self.fault_trace.append(tuple(event))

    def emit(self, name: str, **fields) -> None:
        """Emit a structured tracepoint (no-op unless tracing is on)."""
        if self.tracepoints.active:
            self.tracepoints.emit(self.clock.now, name, **fields)

    # ------------------------------------------------------------------
    # Frame management
    # ------------------------------------------------------------------
    def alloc_frame(
        self, frame_type: FrameType, order: int = 0, zero: bool = False
    ) -> int:
        """Allocate ``2**order`` frames from the buddy allocator."""
        head = self.buddy.alloc(order)
        self.clock.advance(self.costs.buddy_alloc)
        for pfn in range(head, head + (1 << order)):
            self.physmem.set_frame_type(pfn, frame_type)
            if zero:
                self.physmem.write(pfn, ZERO_PAGE)
        self.stats.frames_allocated += 1 << order
        return head

    def free_frame(self, pfn: int, order: int = 0) -> None:
        """Return frames to their owner (fusion pool or buddy)."""
        if order == 0 and self.fusion is not None and self.fusion.release_frame(pfn):
            self.physmem.set_frame_type(pfn, FrameType.FREE)
            self.stats.frames_freed += 1
            return
        self.buddy.free(pfn, order)
        self.clock.advance(self.costs.buddy_free)
        for frame in range(pfn, pfn + (1 << order)):
            self.physmem.set_frame_type(frame, FrameType.FREE)
        self.stats.frames_freed += 1 << order

    def frames_in_use(self) -> int:
        return self.physmem.frames_in_use()

    # ------------------------------------------------------------------
    # Mapping helpers (rmap and refcounts stay consistent)
    # ------------------------------------------------------------------
    def map_page(self, process: Process, vaddr: int, pfn: int, flags: int):
        base = vaddr & ~(PAGE_SIZE - 1)
        pte = process.address_space.page_table.map_page(base, pfn, flags)
        self.physmem.rmap_add(pfn, process.pid, base)
        self.physmem.get_ref(pfn)
        self.clock.advance(self.costs.pte_update)
        return pte

    def unmap_page(self, process: Process, vaddr: int):
        """Unmap a 4 KiB page; returns ``(pfn, refcount_after, pte)``."""
        base = vaddr & ~(PAGE_SIZE - 1)
        pte = process.address_space.page_table.unmap(base)
        if pte.huge:
            raise MappingError(f"unmap_page hit a huge page at {vaddr:#x}")
        self.physmem.rmap_remove(pte.pfn, process.pid, base)
        refcount = self.physmem.put_ref(pte.pfn)
        process.tlb.invalidate_page(base >> 12)
        self.clock.advance(self.costs.pte_update)
        return pte.pfn, refcount, pte

    def remap_page(
        self, process: Process, vaddr: int, pfn: int, flags: int
    ) -> tuple[int, int]:
        """Move a 4 KiB mapping to ``pfn``; returns ``(old_pfn, refcount)``.

        Equivalent to :meth:`unmap_page` then :meth:`map_page` (rmap,
        refcounts, TLB, two ``pte_update`` charges, page-table version
        +2) with a single page-table walk.  The caller releases the old
        frame, as after :meth:`unmap_page`.
        """
        base = vaddr & ~(PAGE_SIZE - 1)
        old_pfn = process.address_space.page_table.remap(base, pfn, flags).pfn
        physmem = self.physmem
        pid = process.pid
        physmem.rmap_remove(old_pfn, pid, base)
        refcount = physmem.put_ref(old_pfn)
        process.tlb.invalidate_page(base >> 12)
        physmem.rmap_add(pfn, pid, base)
        physmem.get_ref(pfn)
        self.clock.advance(2 * self.costs.pte_update)
        return old_pfn, refcount

    def map_huge(self, process: Process, vaddr: int, head_pfn: int, flags: int):
        pte = process.address_space.page_table.map_huge(vaddr, head_pfn, flags)
        for index in range(PAGES_PER_HUGE_PAGE):
            self.physmem.rmap_add(head_pfn + index, process.pid, vaddr + index * PAGE_SIZE)
            self.physmem.get_ref(head_pfn + index)
        self.clock.advance(self.costs.pte_update)
        return pte

    def unmap_huge(self, process: Process, vaddr: int) -> int:
        """Unmap a huge leaf; returns the head pfn (refcounts dropped)."""
        base = vaddr & ~(HUGE_PAGE_SIZE - 1)
        pte = process.address_space.page_table.unmap(base)
        if not pte.huge:
            raise MappingError(f"unmap_huge hit a 4 KiB page at {vaddr:#x}")
        for index in range(PAGES_PER_HUGE_PAGE):
            self.physmem.rmap_remove(pte.pfn + index, process.pid, base + index * PAGE_SIZE)
            self.physmem.put_ref(pte.pfn + index)
        process.tlb.invalidate_page(base >> 12)
        self.clock.advance(self.costs.pte_update)
        return pte.pfn

    def invalidate_tlbs_for_frame(self, pfn: int) -> None:
        """TLB shootdown: flush every mapping of ``pfn`` everywhere."""
        for pid, vaddr in self.physmem.rmap(pfn):
            owner = self._processes.get(pid)
            if owner is not None:
                owner.tlb.invalidate_page(vaddr >> 12)
        self.clock.advance(self.costs.tlb_shootdown)

    def release_after_unmap(self, pfn: int, refcount: int, pte) -> None:
        """Free or hand back a frame whose mapping was just removed."""
        if pte.fused and self.fusion is not None:
            self.fusion.on_fused_ref_drop(pfn)
        elif refcount == 0:
            self.free_frame(pfn)

    def munmap(self, process: Process, vma: Vma) -> None:
        """Tear down every mapping of a VMA and release its frames."""
        if vma.mergeable and self.fusion is not None:
            # Engines drop their candidate references into the region
            # (KSM rmap_item-style) before any of its frames are freed.
            self.fusion.on_mergeable_unmapped(process, vma)
        vaddr = vma.start
        page_table = process.address_space.page_table
        while vaddr < vma.end:
            walk = page_table.walk(vaddr)
            if walk is None:
                vaddr += PAGE_SIZE
                continue
            if walk.huge:
                head = self.unmap_huge(process, walk.page_base)
                for index in range(PAGES_PER_HUGE_PAGE):
                    if self.physmem.refcount(head + index) == 0:
                        self.free_frame(head + index)
                vaddr = walk.page_base + HUGE_PAGE_SIZE
                continue
            pfn, refcount, pte = self.unmap_page(process, vaddr)
            self.release_after_unmap(pfn, refcount, pte)
            vaddr += PAGE_SIZE
        process.address_space.remove_vma(vma)

    def invalidate_file_pages(self, process: Process, vma: Vma) -> int:
        """Drop present pages of a file-backed VMA (file was rewritten)."""
        dropped = 0
        page_table = process.address_space.page_table
        for vaddr in vma.pages():
            walk = page_table.walk(vaddr)
            if walk is None or walk.huge:
                continue
            pfn, refcount, pte = self.unmap_page(process, vaddr)
            self.release_after_unmap(pfn, refcount, pte)
            dropped += 1
        return dropped

    # ------------------------------------------------------------------
    # The architectural access path
    # ------------------------------------------------------------------
    def access(
        self,
        process: Process,
        vaddr: int,
        kind: AccessKind,
        new_content: PageContent | None = None,
    ) -> AccessResult:
        """Perform one access, resolving faults and charging time."""
        self.run_due_daemons()
        start = self.clock.now
        self.stats.accesses += 1
        vma = process.address_space.find_vma(vaddr)
        if vma is None:
            raise SegmentationFault(vaddr)
        page_table = process.address_space.page_table
        fault_kinds: list[str] = []

        walk = page_table.walk(vaddr)
        if walk is None:
            fault_kinds.append("demand")
            self._demand_fault(process, vma, vaddr, kind)
            walk = page_table.walk(vaddr)
            if walk is None:
                raise FusionError(f"demand fault left {vaddr:#x} unmapped")

        for _ in range(4):
            if walk.pte.reserved:
                if self.fusion is None:
                    raise ProtectionFault(vaddr, "reserved-bit")
                fault_kinds.append("copy_on_access")
                self.emit("fault:copy_on_access", pid=process.pid, vaddr=vaddr)
                self.stats.coa_faults += 1
                self.stats.count_fault("copy_on_access")
                self.clock.advance(self.costs.fault_trap)
                self.fusion.handle_reserved_fault(process, vaddr, walk, kind)
                walk = page_table.walk(vaddr)
                continue
            if kind is AccessKind.WRITE and not walk.pte.writable:
                self.clock.advance(self.costs.fault_trap)
                if walk.pte.fused and self.fusion is not None:
                    fault_kinds.append("unmerge_cow")
                    self.emit("fault:unmerge_cow", pid=process.pid, vaddr=vaddr)
                    self.stats.cow_faults += 1
                    self.stats.count_fault("unmerge_cow")
                    self.fusion.handle_fused_write(process, vaddr, walk)
                elif walk.pte.cow:
                    fault_kinds.append("cow")
                    self.stats.cow_faults += 1
                    self.stats.count_fault("cow")
                    self._cow_fault(process, vaddr, walk)
                else:
                    self.stats.protection_faults += 1
                    raise ProtectionFault(vaddr, kind.value)
                walk = page_table.walk(vaddr)
                continue
            break
        else:
            raise FusionError(f"fault loop did not converge at {vaddr:#x}")

        faulted = bool(fault_kinds)
        huge = walk.huge
        vpn = (vaddr >> 21) if huge else (vaddr >> 12)
        tlb_hit = (not faulted) and process.tlb.lookup(vpn, huge)
        if not tlb_hit:
            process.tlb.insert(vpn, huge)
        self.clock.advance(self.timer.translation(tlb_hit, walk.levels_walked))

        pfn = walk.frame_for(vaddr)
        paddr = pfn * PAGE_SIZE + (vaddr & (PAGE_SIZE - 1))
        cacheable = not walk.pte.cache_disabled
        llc_hit = cacheable and self.llc.probe(paddr)
        self.clock.advance(self.timer.memory_access(paddr, cacheable))

        walk.pte.set(PteFlags.ACCESSED)
        if kind is AccessKind.WRITE:
            walk.pte.set(PteFlags.DIRTY)
            if new_content is not None:
                self.physmem.write(pfn, new_content)
        content = self.physmem.read(pfn)
        if fault_kinds:
            self.stats.count_fault("+".join(fault_kinds))
        return AccessResult(
            vaddr=vaddr,
            kind=kind,
            content=content,
            latency=self.clock.now - start,
            fault_kinds=tuple(fault_kinds),
            tlb_hit=tlb_hit,
            llc_hit=llc_hit,
        )

    # ------------------------------------------------------------------
    # Fault handlers
    # ------------------------------------------------------------------
    def _demand_fault(self, process: Process, vma: Vma, vaddr: int, kind: AccessKind) -> None:
        self.stats.demand_faults += 1
        self.clock.advance(self.costs.fault_trap)
        self.trace("demand", kind.value)
        self.emit("fault:demand", pid=process.pid, vaddr=vaddr, kind=kind.value)
        if self.fusion is not None and self.fusion.handle_missing_page(
            process, vaddr & ~(PAGE_SIZE - 1)
        ):
            return
        if vma.file_key is not None:
            index = (vaddr - vma.start) // PAGE_SIZE
            content = process.file_store.page_content(vma.file_key, index)
            pfn = self.alloc_frame(FrameType.PAGE_CACHE)
            self.physmem.write(pfn, content)
            self.map_page(process, vaddr, pfn, PteFlags.USER | PteFlags.COW)
            self.clock.advance(self.costs.copy_page)
            return
        if kind is AccessKind.WRITE:
            if self._try_thp_fault(process, vma, vaddr):
                return
            pfn = self.alloc_frame(FrameType.ANON, zero=True)
            self.map_page(
                process, vaddr, pfn, PteFlags.USER | PteFlags.WRITABLE
            )
            self.clock.advance(self.costs.zero_page)
            return
        # Read/fetch of untouched anonymous memory: the shared zero page.
        self.map_page(process, vaddr, ZERO_FRAME, PteFlags.USER | PteFlags.COW)

    def _try_thp_fault(self, process: Process, vma: Vma, vaddr: int) -> bool:
        """Back a write fault with a fresh THP when policy allows."""
        if not (self.thp_fault_enabled and vma.thp_allowed):
            return False
        base = vaddr & ~(HUGE_PAGE_SIZE - 1)
        if base < vma.start or base + HUGE_PAGE_SIZE > vma.end:
            return False
        page_table = process.address_space.page_table
        if any(
            page_table.walk(base + index * PAGE_SIZE) is not None
            for index in range(PAGES_PER_HUGE_PAGE)
        ):
            return False
        try:
            head = self.alloc_frame(FrameType.ANON, order=9, zero=True)
        except OutOfMemoryError:
            return False
        self.map_huge(process, base, head, PteFlags.USER | PteFlags.WRITABLE)
        self.clock.advance(self.costs.zero_page)
        self.stats.thp_fault_allocs += 1
        return True

    def _cow_fault(self, process: Process, vaddr: int, walk: TranslationResult) -> None:
        """Copy-on-write for non-fused shared pages (zero page, file pages)."""
        self.trace("cow", walk.huge)
        if walk.huge:
            self._cow_huge(process, walk)
            return
        pfn = walk.pte.pfn
        if self.physmem.refcount(pfn) == 1:
            walk.pte.set(PteFlags.WRITABLE)
            walk.pte.clear(PteFlags.COW)
            process.tlb.invalidate_page(walk.page_base >> 12)
            self.clock.advance(self.costs.pte_update)
            return
        new_pfn = self.alloc_frame(FrameType.ANON)
        self.physmem.copy(pfn, new_pfn)
        self.clock.advance(self.costs.copy_page)
        old_pfn, refcount, pte = self.unmap_page(process, walk.page_base)
        self.release_after_unmap(old_pfn, refcount, pte)
        self.map_page(
            process, walk.page_base, new_pfn, PteFlags.USER | PteFlags.WRITABLE
        )

    def _cow_huge(self, process: Process, walk: TranslationResult) -> None:
        head = walk.pte.pfn
        if all(
            self.physmem.refcount(head + index) == 1
            for index in range(PAGES_PER_HUGE_PAGE)
        ):
            walk.pte.set(PteFlags.WRITABLE)
            walk.pte.clear(PteFlags.COW)
            process.tlb.invalidate_page(walk.page_base >> 12)
            self.clock.advance(self.costs.pte_update)
            return
        new_head = self.alloc_frame(FrameType.ANON, order=9)
        for index in range(PAGES_PER_HUGE_PAGE):
            self.physmem.copy(head + index, new_head + index)
        self.clock.advance(self.costs.thp_copy)
        self.unmap_huge(process, walk.page_base)
        for index in range(PAGES_PER_HUGE_PAGE):
            if self.physmem.refcount(head + index) == 0:
                self.free_frame(head + index)
        self.map_huge(
            process, walk.page_base, new_head, PteFlags.USER | PteFlags.WRITABLE
        )

    def copy_page_cached(self, src_pfn: int, dst_pfn: int) -> None:
        """Copy a page, leaving its lines in the LLC like a real memcpy.

        The kernel's copy reads the source and writes the destination
        through cacheable kernel mappings, so both frames' leading
        lines end up in the (physically-indexed) LLC — observable state
        that the prefetch-based and fault-handler-coloring attacks
        probe.  The charged time is a constant: the copy engine's
        latency is modelled as fully pipelined so the *fault path*
        stays constant-time (SB) regardless of prior cache state.
        """
        self.llc.access(src_pfn * PAGE_SIZE)
        self.physmem.copy(src_pfn, dst_pfn)
        self.llc.access(dst_pfn * PAGE_SIZE)
        self.clock.advance(self.costs.copy_page)

    def prefetch(self, process: Process, vaddr: int) -> AccessResult:
        """The x86 ``prefetch`` instruction: never faults, may cache.

        Prefetch ignores access permissions — including VUsion's
        reserved trap bit — and silently drops on unmapped addresses.
        Its latency reveals whether the line was already cached (the
        Gruss et al. side channel).  Pages with the Caching-Disabled
        bit cannot be pulled into the LLC, which is exactly why VUsion
        sets CD on fused pages (§7.1).
        """
        self.run_due_daemons()
        start = self.clock.now
        vma = process.address_space.find_vma(vaddr)
        walk = (
            process.address_space.page_table.walk(vaddr) if vma is not None else None
        )
        if walk is None or walk.pte.cache_disabled:
            # Dropped: no translation or uncacheable target.
            self.clock.advance(self.costs.register_op)
            return AccessResult(
                vaddr=vaddr,
                kind=AccessKind.FETCH,
                content=b"",
                latency=self.clock.now - start,
            )
        pfn = walk.frame_for(vaddr)
        paddr = pfn * PAGE_SIZE + (vaddr & (PAGE_SIZE - 1))
        llc_hit = self.llc.probe(paddr)
        self.clock.advance(self.timer.memory_access(paddr, cacheable=True))
        return AccessResult(
            vaddr=vaddr,
            kind=AccessKind.FETCH,
            content=b"",
            latency=self.clock.now - start,
            llc_hit=llc_hit,
        )

    def clflush(self, process: Process, vaddr: int) -> AccessResult:
        """``clflush``: evict the page's lines from the LLC.

        Requires read access like the real instruction, so it takes the
        same faults as a load — flushing a VUsion-fused page first
        copy-on-accesses it, which is exactly why FLUSH+RELOAD dies
        under SB.
        """
        result = self.access(process, vaddr, AccessKind.READ)
        walk = process.address_space.page_table.walk(vaddr)
        self.llc.flush_frame(walk.frame_for(vaddr))
        self.clock.advance(self.costs.llc_hit)
        return result

    # ------------------------------------------------------------------
    # Transparent-huge-page restructuring
    # ------------------------------------------------------------------
    def split_huge_mapping(self, process: Process, vaddr: int) -> list[PageTableEntry]:
        """Break a 2 MiB leaf into 512 4 KiB PTEs over the same frames.

        rmap entries and refcounts are already per-subframe, so only
        the page-table shape changes — after the split each frame can
        be remapped, merged or freed individually.  This is what KSM
        does when it finds a sharing opportunity inside a THP, and the
        structural change the translation side channel detects.
        """
        base = vaddr & ~(HUGE_PAGE_SIZE - 1)

        def factory(index: int, huge_pte: PageTableEntry) -> PageTableEntry:
            flags = huge_pte.flags & ~PteFlags.HUGE
            return PageTableEntry(huge_pte.pfn + index, flags)

        ptes = process.address_space.page_table.split_huge(base, factory)
        process.tlb.invalidate_page(base >> 12)
        self.clock.advance(self.costs.thp_split)
        self.stats.thp_splits += 1
        self.emit("thp:split", pid=process.pid, vaddr=base)
        return ptes

    # ------------------------------------------------------------------
    # Rowhammer
    # ------------------------------------------------------------------
    def hammer(
        self, process: Process, vaddr_a: int, vaddr_b: int, rounds: int = 1
    ) -> list[FlipTemplate]:
        """Hammer the frames behind two of the process's own pages.

        The aggressor pages are *read* first (a normal architectural
        access — under VUsion this may copy-on-access them to new
        random frames, which is precisely why templating fused pages
        fails there), then the rows behind the final translations are
        activated ``rounds`` times.
        """
        self.access(process, vaddr_a, AccessKind.READ)
        self.access(process, vaddr_b, AccessKind.READ)
        page_table = process.address_space.page_table
        walk_a = page_table.walk(vaddr_a)
        walk_b = page_table.walk(vaddr_b)
        if walk_a is None or walk_b is None:
            raise SegmentationFault(vaddr_a if walk_a is None else vaddr_b)
        self.clock.advance(self.costs.hammer_round * rounds)
        return self.rowhammer.hammer(
            walk_a.frame_for(vaddr_a), walk_b.frame_for(vaddr_b)
        )
