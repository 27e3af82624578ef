"""VUsion: secure page fusion (the paper's contribution, §6-§8).

The engine enforces the two design principles:

**Same Behaviour (SB).**  Every idle page considered for fusion loses
*all* access — the PTE gets the reserved trap bit (any read, write or
fetch faults) and the cache-disable bit (no prefetching into the LLC).
A page whose content matches an existing stable node is *merged* onto
that node's frame; a page with no match is *fake merged*: it is moved
to a fresh random frame and becomes a 1-mapper stable node (so VUsion
needs no unstable tree — design decision (i)).  The next access to
either kind takes an identical copy-on-access fault: allocate a random
frame, copy, remap privately, enqueue exactly one deferred-free
request (a real free or a dummy — decision (ii)).  Merged and
fake-merged pages are therefore indistinguishable.

**Randomized Allocation (RA).**  Every frame VUsion hands out —
stable-node backing, fake-merge backing, copy-on-access targets and
the per-scan re-backing of decision (iii) — comes from a
:class:`~repro.core.random_pool.RandomFramePool` with ~15 bits of
entropy, so physical memory reuse cannot be massaged.

Working-set estimation (§7.2) keeps the extra faults off hot pages:
only pages idle for a full scan period are candidates.  Huge pages are
broken up *before* candidacy (§8.1), so a THP split reveals only
idleness, never a merge.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.deferred_free import DeferredFreeQueue
from repro.core.random_pool import RandomFramePool
from repro.core.working_set import WorkingSetEstimator
from repro.fusion.base import FusionEngine, ScanCursor
from repro.fusion.rbtree import RedBlackTree
from repro.mem.content import PageContent
from repro.mem.physmem import FrameType
from repro.mmu.pte import PteFlags
from repro.params import (
    DEFAULT_FUSION,
    DEFAULT_VUSION,
    FusionConfig,
    VusionConfig,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.kernel import Kernel
    from repro.kernel.process import Process
    from repro.mmu.page_table import TranslationResult
    from repro.kernel.access import AccessKind

#: PTE state of every (fake-)merged page: present but trapped on any
#: access via the reserved bit, and uncacheable against prefetch.
FUSED_FLAGS = (
    PteFlags.USER | PteFlags.FUSED | PteFlags.RESERVED | PteFlags.CACHE_DISABLED
)

#: Fused flags without the CD bit (the cache_disable_enabled ablation).
FUSED_FLAGS_NO_CD = PteFlags.USER | PteFlags.FUSED | PteFlags.RESERVED


class VusionNode:
    """A stable-tree node; fake-merged pages are 1-mapper nodes."""

    __slots__ = ("pfn", "last_move_round")

    def __init__(self, pfn: int, round_created: int) -> None:
        self.pfn = pfn
        #: Scan round in which the backing frame was last re-randomized
        #: (design decision (iii)).
        self.last_move_round = round_created

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VusionNode(pfn={self.pfn})"


class Vusion(FusionEngine):
    """The secure page-fusion engine."""

    name = "vusion"

    def __init__(
        self,
        config: VusionConfig = DEFAULT_VUSION,
        fusion_config: FusionConfig = DEFAULT_FUSION,
    ) -> None:
        super().__init__()
        self.config = config
        self.fusion_config = fusion_config
        self.cursor: ScanCursor | None = None
        self.stable: RedBlackTree[VusionNode] | None = None
        self.pool: RandomFramePool | None = None
        self.deferred: DeferredFreeQueue | None = None
        self.wse: WorkingSetEstimator | None = None
        self._nodes_by_pfn: dict[int, VusionNode] = {}
        self.rerandomizations = 0
        self._fused_flags = (
            FUSED_FLAGS if config.cache_disable_enabled else FUSED_FLAGS_NO_CD
        )

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
        self.pool = RandomFramePool(
            kernel, self.config.random_pool_frames, seed=kernel.spec.seed + 1
        )
        self.deferred = DeferredFreeQueue(
            kernel, self.pool, self.config.deferred_free_interval
        )
        min_idle = self.config.min_idle_ns
        if min_idle is None:
            min_idle = 5 * self.fusion_config.scan_interval
        self.wse = WorkingSetEstimator(
            kernel.idle_tracker,
            enabled=self.config.working_set_enabled,
            min_idle_ns=min_idle,
        )
        kernel.register_daemon(
            "vusion", self.fusion_config.scan_interval, self.scan_tick
        )

    # ------------------------------------------------------------------
    # Scanning
    # ------------------------------------------------------------------
    def scan_tick(self) -> None:
        kernel = self.kernel
        self.stats.scans += 1
        for process, vma, vaddr in self.cursor.next_pages(
            self.fusion_config.pages_per_scan
        ):
            kernel.clock.advance(kernel.costs.scan_page)
            self.stats.pages_scanned += 1
            self._scan_one(process, vaddr)
        self.stats.full_scans = self.cursor.full_scans

    def _scan_one(self, process: "Process", vaddr: int) -> None:
        kernel = self.kernel
        walk = process.address_space.page_table.walk(vaddr)
        if walk is None:
            return
        pte = walk.pte
        if pte.fused:
            # Already (fake-)merged; re-randomize its backing once per
            # scan round (decision (iii)).
            if self.config.rerandomize_each_scan:
                self._rerandomize(pte.pfn)
            return
        if walk.huge:
            if vaddr != walk.page_base:
                # A huge page has one PTE (and one accessed bit) for
                # all 512 subpages; handle it once per round, at its
                # base address.
                return
            if self.config.thp_enabled and self.config.thp_active_threshold <= 1:
                # High-performance mode (§8.1, n = 1, à la Ingens):
                # only an *idle* THP is broken up — the split leaks
                # only idleness.  With n > 1 (capacity mode, à la KSM)
                # every candidate THP is broken and the secure
                # khugepaged's K >= n policy decides which ranges earn
                # their huge page back.
                key = (process.pid, walk.page_base)
                if not self.wse.is_candidate(key, pte, kernel.clock.now):
                    self.stats.working_set_skips += 1
                    return
            # Maximum-fusion mode (à la KSM, the paper's plain VUsion):
            # every THP considered for fusion is broken up; its 4 KiB
            # subpages then go through the normal per-page idle gate.
            kernel.split_huge_mapping(process, vaddr)
            self.stats.thp_splits += 1
            walk = process.address_space.page_table.walk(vaddr)
            pte = walk.pte
        key = (process.pid, walk.page_base)
        if not self.wse.is_candidate(key, pte, kernel.clock.now):
            self.stats.working_set_skips += 1
            return
        pfn = walk.frame_for(vaddr)
        content = kernel.physmem.read(pfn)
        kernel.clock.advance(kernel.costs.checksum_page)
        node = self.stable.search(content)
        if node is not None and node.pfn != pfn:
            self._merge(process, vaddr, node)
        else:
            self._fake_merge(process, vaddr, content)

    # ------------------------------------------------------------------
    # Merge and fake merge (symmetric by construction)
    # ------------------------------------------------------------------
    def _release_scanned_frame(self, pfn: int, refcount: int) -> None:
        """Queue the duplicate's frame for deferred freeing.

        Exactly one queue operation happens whether or not the frame
        is actually freeable, keeping the code paths symmetric.  With
        decision (ii) ablated, freeable frames are freed inline — the
        asymmetry the deferred queue exists to remove.
        """
        if not self.config.deferred_free_enabled:
            if refcount == 0:
                self.pool.free(pfn)
                self.kernel.clock.advance(self.kernel.costs.buddy_free)
            return
        if refcount == 0:
            self.deferred.queue_free(pfn)
        else:
            self.deferred.queue_dummy()

    def _merge(self, process: "Process", vaddr: int, node: VusionNode) -> None:
        kernel = self.kernel
        old_pfn, refcount = kernel.remap_page(
            process, vaddr, node.pfn, self._fused_flags
        )
        self._release_scanned_frame(old_pfn, refcount)
        self.stats.merges += 1
        self.stats.merge_frame_log.append(node.pfn)
        kernel.emit("fusion:merge", pid=process.pid, vaddr=vaddr, pfn=node.pfn)

    def _fake_merge(self, process: "Process", vaddr: int, content: PageContent) -> None:
        kernel = self.kernel
        new_pfn = self.pool.alloc(FrameType.ANON)
        # ``content`` was just read from the scanned frame, so on the
        # columnar store this write is a pure intern hit: the new frame
        # retains the same content id and no bytes are copied.  The
        # simulated copy_page charge below is unaffected.
        kernel.physmem.write(new_pfn, content)
        kernel.clock.advance(kernel.costs.copy_page)
        old_pfn, refcount = kernel.remap_page(
            process, vaddr, new_pfn, self._fused_flags
        )
        self._release_scanned_frame(old_pfn, refcount)
        node = VusionNode(new_pfn, self.cursor.full_scans)
        kernel.physmem.pin_fused(new_pfn)
        kernel.physmem.get_ref(new_pfn)
        self.stable.insert(node)
        self._nodes_by_pfn[new_pfn] = node
        self.stats.fake_merges += 1
        self.stats.stable_nodes_created += 1
        self.stats.merge_frame_log.append(new_pfn)
        kernel.emit("fusion:fake_merge", pid=process.pid, vaddr=vaddr, pfn=new_pfn)

    def _rerandomize(self, node_pfn: int) -> None:
        """Move a stable node to a fresh random frame, once per round."""
        if not self.config.rerandomize_each_scan:
            return
        node = self._nodes_by_pfn.get(node_pfn)
        if node is None or node.last_move_round >= self.cursor.full_scans:
            return
        kernel = self.kernel
        new_pfn = self.pool.alloc(FrameType.ANON)
        kernel.copy_page_cached(node_pfn, new_pfn)
        kernel.physmem.pin_fused(new_pfn)
        kernel.physmem.get_ref(new_pfn)
        for pid, vaddr in sorted(kernel.physmem.rmap(node_pfn)):
            owner = kernel.find_process(pid)
            if owner is None:
                continue
            kernel.remap_page(owner, vaddr, new_pfn, self._fused_flags)
        kernel.physmem.unpin_fused(node_pfn)
        kernel.physmem.put_ref(node_pfn)
        if kernel.physmem.refcount(node_pfn) != 0:
            raise RuntimeError(f"re-randomized node pfn {node_pfn} still referenced")
        self.deferred.queue_free(node_pfn)
        node.pfn = new_pfn
        node.last_move_round = self.cursor.full_scans
        del self._nodes_by_pfn[node_pfn]
        self._nodes_by_pfn[new_pfn] = node
        self.rerandomizations += 1
        self.stats.merge_frame_log.append(new_pfn)
        kernel.emit("fusion:rerandomize", old_pfn=node_pfn, pfn=new_pfn)

    # ------------------------------------------------------------------
    # Copy-on-access (the only unmerge path; SB-symmetric)
    # ------------------------------------------------------------------
    def handle_reserved_fault(
        self,
        process: "Process",
        vaddr: int,
        walk: "TranslationResult",
        kind: "AccessKind",
    ) -> None:
        self._copy_on_access(process, vaddr, walk.pte.pfn)

    def _copy_on_access(self, process: "Process", vaddr: int, node_pfn: int) -> None:
        """Give the faulting page a private copy on a fresh random frame.

        The instruction sequence — pool alloc, page copy, remap, one
        queue operation — is identical whether the page was merged or
        fake merged, so the fault latency carries no merge information.
        """
        kernel = self.kernel
        kernel.trace("vusion_coa")
        new_pfn = self.pool.alloc(FrameType.ANON)
        kernel.copy_page_cached(node_pfn, new_pfn)
        kernel.remap_page(
            process, vaddr, new_pfn, PteFlags.USER | PteFlags.WRITABLE
        )
        self._queue_node_check(node_pfn)
        self.stats.coa_unmerges += 1
        kernel.emit("fusion:coa", pid=process.pid, vaddr=vaddr)

    def _queue_node_check(self, node_pfn: int) -> None:
        """Enqueue exactly one request: reclaim check or dummy.

        With decision (ii) ablated the reclaim happens inline in the
        fault path, so unmerging a fake-merged page (whose node dies)
        is measurably slower than unmerging a merged one.
        """
        node = self._nodes_by_pfn.get(node_pfn)
        if not self.config.deferred_free_enabled:
            if node is not None and self.kernel.physmem.refcount(node.pfn) == 1:
                self.kernel.clock.advance(self.kernel.costs.buddy_free)
                self._reclaim_if_dead(node)
            return
        if node is None:
            self.deferred.queue_dummy()
            return
        self.deferred.queue_reclaim(lambda: self._reclaim_if_dead(node))

    def _reclaim_if_dead(self, node: VusionNode) -> None:
        """Drain-time check: release nodes with no mappers left."""
        kernel = self.kernel
        pfn = node.pfn
        if self._nodes_by_pfn.get(pfn) is not node:
            return
        if kernel.physmem.refcount(pfn) != 1:
            return
        self.stable.remove(node)
        del self._nodes_by_pfn[pfn]
        kernel.physmem.unpin_fused(pfn)
        kernel.physmem.put_ref(pfn)
        self.pool.free(pfn)
        self.stats.stable_nodes_released += 1

    # ------------------------------------------------------------------
    # Kernel hooks
    # ------------------------------------------------------------------
    def on_fused_ref_drop(self, pfn: int) -> None:
        self._queue_node_check(pfn)

    def unmerge_for_collapse(self, process: "Process", vaddr: int) -> None:
        walk = process.address_space.page_table.walk(vaddr)
        if walk is not None and walk.pte.fused:
            self._copy_on_access(process, vaddr, walk.pte.pfn)

    def pending_frees(self) -> frozenset[int]:
        if self.deferred is None:
            return frozenset()
        return self.deferred.pending_frees()

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def shard_exportable_pfns(self) -> list[int]:
        # Only fused (S xor F disciplined) node frames.  Accessible
        # guest pages are never advertised: a cross-shard digest of a
        # page the guest can still time writes against would hand a
        # remote attacker exactly the disclosure oracle VUsion exists
        # to close.  Fused nodes include fake merges, so the export
        # itself is indistinguishable from real sharing — the same
        # share-xor-fetch argument as on the local node.
        return sorted(self._nodes_by_pfn)

    def sharing_pairs(self) -> tuple[int, int]:
        # One scan-kernel reduction over the stable pfns; monitors
        # sample this every tick, so it must not loop in Python.
        pages_shared = len(self._nodes_by_pfn)
        pages_sharing = (
            self.kernel.physmem.scan_kernel.refcount_sum(self._nodes_by_pfn)
            - pages_shared
        )
        return pages_shared, pages_sharing

    def saved_frames(self) -> int:
        pages_shared, pages_sharing = self.sharing_pairs()
        return pages_sharing - pages_shared
