"""Windows Page Fusion (WPF), as reverse engineered in §2.2.

Every 15 minutes WPF hashes all candidate anonymous pages, sorts them
by hash, groups them per owning process (processes ordered by their
memory-management struct pointer, pages by virtual address) and merges:

* pages matching an existing AVL-tree node are remapped to it;
* contents appearing at least twice get a **new** stable frame from a
  ``MiAllocatePagesForMdl``-style linear allocator that claims frames
  from the *end* of physical memory in hash order.

Allocating new frames defeats the classic Flip Feng Shui, but the
linear allocator's near-perfect reuse across passes (freed fusion
frames at the top of memory are re-claimed in the same order next
pass) enables the paper's new reuse-based Flip Feng Shui — Fig. 3.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import OutOfMemoryError
from repro.fusion.avl import AvlTree
from repro.fusion.base import FusionEngine
from repro.mem.content import PageContent, content_digest
from repro.mem.physmem import FrameType
from repro.mmu.pte import PteFlags
from repro.params import DEFAULT_WPF, WpfConfig

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.kernel import Kernel
    from repro.kernel.process import Process
    from repro.mmu.page_table import TranslationResult


class WpfNode:
    """One fused page held in a WPF AVL tree."""

    __slots__ = ("pfn", "key")

    def __init__(self, pfn: int, key: bytes) -> None:
        self.pfn = pfn
        #: Content snapshot at insertion; used for structural removal
        #: even if the frame is later corrupted (e.g. by Rowhammer).
        self.key = key


class LinearHighAllocator:
    """Claims free frames from the top of physical memory, in order.

    Models ``MiAllocatePagesForMdl``: mostly-contiguous allocations
    starting from the end of the physical address space, with holes
    where frames cannot be reclaimed.  Combined with LIFO frees this
    yields the deterministic cross-pass reuse shown in Fig. 3.
    """

    def __init__(self, kernel: "Kernel") -> None:
        self.kernel = kernel

    def alloc_batch(self, count: int) -> list[int]:
        """Allocate ``count`` frames, highest free frames first."""
        if count <= 0:
            return []
        kernel = self.kernel
        targets: list[int] = []
        for pfn in kernel.buddy.iter_free_frames_desc():
            targets.append(pfn)
            if len(targets) == count:
                break
        if len(targets) < count:
            raise OutOfMemoryError(
                f"linear allocator found {len(targets)} of {count} frames"
            )
        frames = []
        for pfn in targets:
            kernel.buddy.alloc_specific(pfn)
            kernel.physmem.set_frame_type(pfn, FrameType.ANON)
            frames.append(pfn)
        kernel.clock.advance(kernel.costs.buddy_alloc * max(1, count // 8))
        kernel.stats.frames_allocated += count
        return frames


class WindowsPageFusion(FusionEngine):
    """The WPF engine."""

    name = "wpf"

    def __init__(
        self, config: WpfConfig = DEFAULT_WPF, num_trees: int = 4
    ) -> None:
        super().__init__()
        self.config = config
        self.num_trees = num_trees
        self._trees: list[AvlTree[WpfNode]] = []
        self._nodes_by_pfn: dict[int, WpfNode] = {}
        self._allocator: LinearHighAllocator | None = None

    def _register(self, kernel: "Kernel") -> None:
        def charge() -> None:
            kernel.clock.advance(kernel.costs.tree_compare)

        self._trees = [AvlTree(on_compare=charge) for _ in range(self.num_trees)]
        self._allocator = LinearHighAllocator(kernel)
        kernel.register_daemon("wpf", self.config.pass_interval, self.full_pass)

    def _tree_for(self, content: PageContent) -> AvlTree[WpfNode]:
        return self._trees[content_digest(content) % self.num_trees]

    # ------------------------------------------------------------------
    # The fusion pass
    # ------------------------------------------------------------------
    def full_pass(self) -> None:
        self.stats.scans += 1
        self.stats.full_scans += 1
        candidates, contents, digests = self._gather_candidates()
        self.stats.pages_scanned += sum(len(v) for v in candidates.values())
        self._create_nodes(candidates, contents, digests)
        self._merge_candidates(candidates, contents, digests)

    def _gather_candidates(
        self,
    ) -> tuple[
        dict[object, list[tuple["Process", int, int]]],
        dict[object, PageContent],
        dict[object, int],
    ]:
        """Hash every candidate page, grouped by content identity.

        WPF computes the hash of every physical page that is a merge
        candidate; sorting-by-hash is applied later when the new stable
        frames are allocated.  The gather runs in two phases: a
        sequential page-table walk collects (and charges) every
        candidate, then one scan-kernel
        :meth:`~repro.mem.scankernel.BatchScanKernel.group_by_content` call
        buckets the batch by content identity — a vectorized pass over
        the cid column on the batch kernel, the classic ``merge_key``
        loop on the scalar reference; either way the partition (and
        its encounter order) is exactly the group-by-content of the
        original one-page-at-a-time implementation.  The returned
        ``digests`` map serves the per-content hash from the frame
        fingerprint cache, one batch lookup per unique content.
        """
        kernel = self.kernel
        physmem = kernel.physmem
        holders: list[tuple["Process", int, int]] = []
        pfns: list[int] = []
        for process in sorted(kernel.processes, key=lambda p: p.pid):
            if not process.alive:
                continue
            for vma in process.address_space.mergeable_vmas():
                for vaddr in vma.pages():
                    walk = process.address_space.page_table.walk(vaddr)
                    if walk is None or walk.huge or walk.pte.fused:
                        continue
                    pfn = walk.frame_for(vaddr)
                    kernel.clock.advance(kernel.costs.checksum_page)
                    holders.append((process, vaddr, pfn))
                    pfns.append(pfn)
        groups = physmem.scan_kernel.group_by_content(pfns)
        candidates = {
            key: [holders[index] for index in indices]
            for key, indices in groups.items()
        }
        contents = {
            key: physmem.read(pfns[indices[0]])
            for key, indices in groups.items()
        }
        digests = dict(
            zip(
                candidates,
                physmem.digests_many(
                    [pfns[indices[0]] for indices in groups.values()]
                ),
            )
        )
        return candidates, contents, digests

    def _create_nodes(
        self,
        candidates: dict[object, list[tuple["Process", int, int]]],
        contents: dict[object, PageContent],
        digests: dict[object, int],
    ) -> None:
        """Allocate new stable frames for duplicated contents, hash order."""
        kernel = self.kernel
        trees = self._trees
        new_keys = [
            key
            for key, holders in candidates.items()
            if len(holders) >= 2
            and trees[digests[key] % self.num_trees].search(contents[key]) is None
        ]
        new_keys.sort(key=digests.__getitem__)
        try:
            frames = self._allocator.alloc_batch(len(new_keys))
        except OutOfMemoryError:
            return
        for key, pfn in zip(new_keys, frames):
            content = contents[key]
            kernel.physmem.write(pfn, content)
            kernel.clock.advance(kernel.costs.copy_page)
            node = WpfNode(pfn, content)
            kernel.physmem.pin_fused(pfn)
            kernel.physmem.get_ref(pfn)
            trees[digests[key] % self.num_trees].insert(content, node)
            self._nodes_by_pfn[pfn] = node
            self.stats.stable_nodes_created += 1
            self.stats.merge_frame_log.append(pfn)

    def _merge_candidates(
        self,
        candidates: dict[object, list[tuple["Process", int, int]]],
        contents: dict[object, PageContent],
        digests: dict[object, int],
    ) -> None:
        """Remap candidates onto stable frames, per process, by vaddr."""
        kernel = self.kernel
        per_process: dict[int, list[tuple[int, object, int]]] = {}
        for key, holders in candidates.items():
            digest = digests[key]
            for process, vaddr, _pfn in holders:
                per_process.setdefault(process.pid, []).append(
                    (vaddr, key, digest)
                )
        for pid in sorted(per_process):
            process = kernel.find_process(pid)
            if process is None or not process.alive:
                continue
            # Each vaddr appears once, so sorting never compares the
            # key/digest fields and the original (vaddr, content)
            # order is preserved on both store backends.
            for vaddr, key, digest in sorted(per_process[pid]):
                node = self._trees[digest % self.num_trees].search(contents[key])
                if node is None:
                    continue
                walk = process.address_space.page_table.walk(vaddr)
                if walk is None or walk.huge or walk.pte.fused:
                    continue
                if walk.frame_for(vaddr) == node.pfn:
                    continue
                old_pfn, refcount, old_pte = kernel.unmap_page(process, vaddr)
                kernel.release_after_unmap(old_pfn, refcount, old_pte)
                kernel.map_page(
                    process, vaddr, node.pfn, PteFlags.USER | PteFlags.FUSED
                )
                self.stats.merges += 1

    # ------------------------------------------------------------------
    # Unmerge
    # ------------------------------------------------------------------
    def _alloc_unmerge_frame(self) -> int:
        """Allocate a copy-on-write target from the *bottom* of memory.

        Windows services ordinary demand allocations away from the
        end-of-memory region ``MiAllocatePagesForMdl`` harvests, which
        is why freed fusion frames survive untouched until the next
        pass (the reuse behaviour of Fig. 3).

        The interprocedural summary proves the returned pfn is a live
        handle (simflow infers the escape), so callers are held to the
        FLOW003-ip consumption discipline without an @escapes_frame
        annotation.
        """
        kernel = self.kernel
        for pfn in kernel.buddy.iter_free_frames_asc():
            kernel.buddy.alloc_specific(pfn)
            kernel.physmem.set_frame_type(pfn, FrameType.ANON)
            kernel.clock.advance(kernel.costs.buddy_alloc)
            kernel.stats.frames_allocated += 1
            return pfn
        raise OutOfMemoryError("no free frame for WPF unmerge")

    def handle_fused_write(
        self, process: "Process", vaddr: int, walk: "TranslationResult"
    ) -> None:
        kernel = self.kernel
        node_pfn = walk.pte.pfn
        new_pfn = self._alloc_unmerge_frame()
        kernel.physmem.copy(node_pfn, new_pfn)
        kernel.clock.advance(kernel.costs.copy_page)
        kernel.unmap_page(process, vaddr)
        kernel.map_page(
            process, vaddr, new_pfn, PteFlags.USER | PteFlags.WRITABLE
        )
        self.stats.cow_unmerges += 1
        self._maybe_release_node(node_pfn)

    def on_fused_ref_drop(self, pfn: int) -> None:
        self._maybe_release_node(pfn)

    def unmerge_for_collapse(self, process: "Process", vaddr: int) -> None:
        walk = process.address_space.page_table.walk(vaddr)
        if walk is not None and walk.pte.fused:
            self.handle_fused_write(process, vaddr, walk)

    def _maybe_release_node(self, pfn: int) -> None:
        node = self._nodes_by_pfn.get(pfn)
        if node is None or self.kernel.physmem.refcount(pfn) != 1:
            return
        self._tree_for(node.key).remove(node.key)
        del self._nodes_by_pfn[pfn]
        self.kernel.physmem.unpin_fused(pfn)
        self.kernel.physmem.put_ref(pfn)
        # The freed stable frame returns to the buddy allocator near the
        # top of memory — where the next pass's linear allocator will
        # find it again.  This is the reuse the new attack rides on.
        self.kernel.free_frame(pfn)
        self.stats.stable_nodes_released += 1

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def shard_exportable_pfns(self) -> list[int]:
        # Combined frames only (the AVL trees' node pages): already
        # shared read-only, so advertising their digests leaks nothing
        # an attacker on another node could not infer from a merge.
        return sorted(self._nodes_by_pfn)

    def sharing_pairs(self) -> tuple[int, int]:
        pages_shared = len(self._nodes_by_pfn)
        pages_sharing = (
            self.kernel.physmem.scan_kernel.refcount_sum(self._nodes_by_pfn)
            - pages_shared
        )
        return pages_shared, pages_sharing

    def saved_frames(self) -> int:
        pages_shared, pages_sharing = self.sharing_pairs()
        return pages_sharing - pages_shared
