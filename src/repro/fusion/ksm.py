"""Linux Kernel Same-page Merging (the paper's insecure baseline).

Faithful to the structure described in §2.1:

* madvise-registered VMAs are scanned round-robin, N pages per T ms;
* a *stable* red-black tree holds fused (read-only) pages and an
  *unstable* tree holds unprotected candidates whose contents may
  drift; the unstable tree is reset after every full scan;
* a checksum pass skips volatile pages (a page must be seen twice with
  identical content before it becomes merge-eligible);
* merging reuses **one of the sharing parties' frames** to back the
  shared copy and frees the duplicate to the buddy allocator — the two
  properties Flip Feng Shui and its reuse variant abuse;
* writing a fused page takes a copy-on-write fault, whose extra
  latency is the classic deduplication side channel (Fig. 5).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.fusion.base import FusionEngine, ScanCursor
from repro.fusion.rbtree import RedBlackTree
from repro.mem.physmem import FrameType
from repro.mmu.pte import PteFlags
from repro.params import DEFAULT_FUSION, FusionConfig

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.kernel import Kernel
    from repro.kernel.process import Process
    from repro.mmu.page_table import TranslationResult
    from repro.kernel.access import AccessKind


class StableNode:
    """One read-only shared page in the stable tree."""

    __slots__ = ("pfn",)

    def __init__(self, pfn: int) -> None:
        self.pfn = pfn

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StableNode(pfn={self.pfn})"


class UnstableRef:
    """A scanned-but-unprotected candidate page in the unstable tree."""

    __slots__ = ("pid", "vaddr", "pfn")

    def __init__(self, pid: int, vaddr: int, pfn: int) -> None:
        self.pid = pid
        self.vaddr = vaddr
        self.pfn = pfn

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"UnstableRef(pid={self.pid}, vaddr={self.vaddr:#x}, pfn={self.pfn})"


class Ksm(FusionEngine):
    """Kernel Same-page Merging."""

    name = "ksm"

    def __init__(
        self,
        config: FusionConfig = DEFAULT_FUSION,
        protect_reads: bool = False,
        use_zero_pages: bool = False,
    ) -> None:
        """``protect_reads=True`` builds the modified KSM of Fig. 4 that
        unmerges on *any* page fault (copy-on-access) rather than only
        on writes — merged PTEs additionally carry the reserved bit.
        ``use_zero_pages`` enables KSM's off-by-default option of
        mapping all-zero candidates to the shared kernel zero page
        instead of a stable node."""
        super().__init__()
        self.config = config
        self.protect_reads = protect_reads
        self.use_zero_pages = use_zero_pages
        self.cursor: ScanCursor | None = None
        self.stable: RedBlackTree[StableNode] | None = None
        self.unstable: RedBlackTree[UnstableRef] | None = None
        self._nodes_by_pfn: dict[int, StableNode] = {}
        self._checksums: dict[tuple[int, int], int] = {}
        self._zero_mapped = 0

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def _register(self, kernel: "Kernel") -> None:
        def charge() -> None:
            kernel.clock.advance(kernel.costs.tree_compare)

        self.cursor = ScanCursor(kernel)
        self.stable = RedBlackTree(
            key_of=lambda node: kernel.physmem.read(node.pfn), on_compare=charge
        )
        self.unstable = RedBlackTree(
            key_of=lambda ref: kernel.physmem.read(ref.pfn), on_compare=charge
        )
        kernel.register_daemon("ksmd", self.config.scan_interval, self.scan_tick)

    # ------------------------------------------------------------------
    # Scanning
    # ------------------------------------------------------------------
    def scan_tick(self) -> None:
        kernel = self.kernel
        self.stats.scans += 1
        for _ in range(self.config.pages_per_scan):
            full_scans_before = self.cursor.full_scans
            batch = self.cursor.next_pages(1)
            if self.cursor.full_scans != full_scans_before:
                # The cursor wrapped: a full pass over all candidates
                # completed and KSM rebuilds the unstable tree from
                # scratch — exactly at the wrap point, so scan order
                # within a round is strictly registration order.
                self.unstable.clear()
                self.stats.full_scans = self.cursor.full_scans
            if not batch:
                break
            process, _vma, vaddr = batch[0]
            kernel.clock.advance(kernel.costs.scan_page)
            self.stats.pages_scanned += 1
            self._scan_one(process, vaddr)

    def _scan_one(self, process: "Process", vaddr: int) -> None:
        """Checksum one page and merge it against the stable, then the
        unstable tree."""
        kernel = self.kernel
        walk = process.address_space.page_table.walk(vaddr)
        if walk is None or walk.pte.fused or walk.pte.reserved:
            return
        pfn = walk.frame_for(vaddr)
        content = kernel.physmem.read(pfn)
        kernel.clock.advance(kernel.costs.checksum_page)
        if self.use_zero_pages and not content:
            self._merge_zero_page(process, vaddr, walk)
            return
        key = (process.pid, vaddr)
        digest = kernel.physmem.digest(pfn)
        if self._checksums.get(key) != digest:
            # Volatile page: remember the checksum, try again next pass.
            self._checksums[key] = digest
            self.stats.volatile_skips += 1
            return

        node = self.stable.search(content)
        if node is not None:
            if node.pfn != pfn:
                self._merge_into(process, vaddr, node)
            return

        match = self.unstable.search(content)
        if match is not None and (match.pid, match.vaddr) != key:
            node = self._promote(match, content)
            if node is not None:
                self._merge_into(process, vaddr, node)
                return
            match = None
        if match is None:
            self.unstable.insert(UnstableRef(process.pid, vaddr, pfn))

    # ------------------------------------------------------------------
    # Merging
    # ------------------------------------------------------------------
    def _fused_flags(self) -> int:
        flags = PteFlags.USER | PteFlags.FUSED
        if self.protect_reads:
            flags |= PteFlags.RESERVED
        return flags

    def _promote(self, match: UnstableRef, content: bytes) -> StableNode | None:
        """Write-protect an unstable match and move it to the stable tree.

        The match's own physical frame becomes the shared stable page —
        KSM's defining (and exploitable) allocation behaviour.
        """
        kernel = self.kernel
        owner = kernel.find_process(match.pid)
        if owner is None or not owner.alive:
            self.unstable.discard(match)
            return None
        walk = owner.address_space.page_table.walk(match.vaddr)
        if (
            walk is None
            or walk.pte.fused
            or walk.pte.reserved
            or walk.frame_for(match.vaddr) != match.pfn
            or not kernel.physmem.same_content(match.pfn, content)
        ):
            # The unstable tree went stale underneath us.
            self.unstable.discard(match)
            return None
        if walk.huge:
            kernel.split_huge_mapping(owner, match.vaddr)
            walk = owner.address_space.page_table.walk(match.vaddr)
        pte = walk.pte
        pte.clear(PteFlags.WRITABLE)
        pte.set(self._fused_flags())
        owner.tlb.invalidate_page(match.vaddr >> 12)
        kernel.clock.advance(kernel.costs.pte_update)
        node = StableNode(match.pfn)
        kernel.physmem.pin_fused(match.pfn)
        kernel.physmem.get_ref(match.pfn)
        self.stable.insert(node)
        self._nodes_by_pfn[match.pfn] = node
        self.unstable.discard(match)
        self.stats.stable_nodes_created += 1
        self.stats.merge_frame_log.append(match.pfn)
        kernel.emit("fusion:promote", pid=match.pid, vaddr=match.vaddr, pfn=match.pfn)
        return node

    def _merge_zero_page(self, process: "Process", vaddr: int, walk) -> None:
        """Map an all-zero candidate onto the kernel's shared zero page."""
        from repro.kernel.kernel import ZERO_FRAME

        kernel = self.kernel
        if walk.frame_for(vaddr) == ZERO_FRAME:
            return
        if walk.huge:
            kernel.split_huge_mapping(process, vaddr)
        old_pfn, refcount, old_pte = kernel.unmap_page(process, vaddr)
        kernel.release_after_unmap(old_pfn, refcount, old_pte)
        kernel.map_page(process, vaddr, ZERO_FRAME, self._fused_flags())
        self._zero_mapped += 1
        self.stats.merges += 1

    def _merge_into(self, process: "Process", vaddr: int, node: StableNode) -> None:
        """Point the scanned page at the stable frame, free its duplicate."""
        kernel = self.kernel
        walk = process.address_space.page_table.walk(vaddr)
        if walk.huge:
            kernel.split_huge_mapping(process, vaddr)
        old_pfn, refcount, old_pte = kernel.unmap_page(process, vaddr)
        kernel.release_after_unmap(old_pfn, refcount, old_pte)
        kernel.map_page(process, vaddr, node.pfn, self._fused_flags())
        self.stats.merges += 1
        self.stats.merge_frame_log.append(node.pfn)
        kernel.emit("fusion:merge", pid=process.pid, vaddr=vaddr, pfn=node.pfn)

    # ------------------------------------------------------------------
    # Unmerging
    # ------------------------------------------------------------------
    def _unmerge(self, process: "Process", vaddr: int, node_pfn: int) -> None:
        """Copy-on-write/-access: give the faulting page a private copy."""
        kernel = self.kernel
        new_pfn = kernel.alloc_frame(FrameType.ANON)
        kernel.copy_page_cached(node_pfn, new_pfn)
        kernel.unmap_page(process, vaddr)
        kernel.map_page(
            process, vaddr, new_pfn, PteFlags.USER | PteFlags.WRITABLE
        )
        self._note_fused_unmapped(node_pfn)
        self._maybe_release_node(node_pfn)
        kernel.emit("fusion:unmerge", pid=process.pid, vaddr=vaddr, pfn=node_pfn)

    def handle_fused_write(
        self, process: "Process", vaddr: int, walk: "TranslationResult"
    ) -> None:
        self.kernel.trace("ksm_cow",)
        self.stats.cow_unmerges += 1
        self._unmerge(process, vaddr, walk.pte.pfn)

    def handle_reserved_fault(
        self,
        process: "Process",
        vaddr: int,
        walk: "TranslationResult",
        kind: "AccessKind",
    ) -> None:
        if not self.protect_reads:
            return super().handle_reserved_fault(process, vaddr, walk, kind)
        self.kernel.trace("ksm_coa",)
        self.stats.coa_unmerges += 1
        self._unmerge(process, vaddr, walk.pte.pfn)

    def _note_fused_unmapped(self, pfn: int) -> None:
        from repro.kernel.kernel import ZERO_FRAME

        if self.use_zero_pages and pfn == ZERO_FRAME and self._zero_mapped > 0:
            self._zero_mapped -= 1

    def on_fused_ref_drop(self, pfn: int) -> None:
        self._note_fused_unmapped(pfn)
        self._maybe_release_node(pfn)

    def on_mergeable_unmapped(self, process: "Process", vma) -> None:
        """Drop the region's rmap state before its frames are freed.

        Unstable refs point at unprotected private frames; once the
        VMA's frames are released a tree comparison would read freed
        memory.  Removal is structural (no key comparisons), so no
        simulated time is charged — matching Linux KSM, where removing
        rmap_items on exit is not part of the scan cost.
        """
        pid = process.pid
        for ref in self.unstable.values():
            if ref.pid == pid and vma.start <= ref.vaddr < vma.end:
                self.unstable.remove(ref)
        stale = [key for key in self._checksums
                 if key[0] == pid and vma.start <= key[1] < vma.end]
        for key in stale:
            del self._checksums[key]

    def unmerge_for_collapse(self, process: "Process", vaddr: int) -> None:
        walk = process.address_space.page_table.walk(vaddr)
        if walk is not None and walk.pte.fused:
            self._unmerge(process, vaddr, walk.pte.pfn)

    def _maybe_release_node(self, pfn: int) -> None:
        """Drop a stable node once only the tree pin references it."""
        node = self._nodes_by_pfn.get(pfn)
        if node is None or self.kernel.physmem.refcount(pfn) != 1:
            return
        self.stable.remove(node)
        del self._nodes_by_pfn[pfn]
        self.kernel.physmem.unpin_fused(pfn)
        self.kernel.physmem.put_ref(pfn)
        self.kernel.free_frame(pfn)
        self.stats.stable_nodes_released += 1

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def shard_exportable_pfns(self) -> list[int]:
        # Stable-tree frames only: merged, write-protected content.
        # Unstable candidates are still writable guest pages — their
        # digests never leave the node.
        return sorted(self._nodes_by_pfn)

    def sharing_pairs(self) -> tuple[int, int]:
        # One scan-kernel reduction over the stable pfns; monitors
        # sample this every tick, so it must not loop in Python.
        pages_shared = len(self._nodes_by_pfn)
        pages_sharing = (
            self.kernel.physmem.scan_kernel.refcount_sum(self._nodes_by_pfn)
            - pages_shared
        )
        if self._zero_mapped:
            pages_shared += 1
            pages_sharing += self._zero_mapped
        return pages_shared, pages_sharing

    def saved_frames(self) -> int:
        pages_shared, pages_sharing = self.sharing_pairs()
        return pages_sharing - pages_shared
