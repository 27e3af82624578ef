"""Common machinery for page-fusion engines.

A fusion engine attaches to a kernel, registers one or more periodic
daemons, and receives fault hooks for the pages it manages (pages whose
PTEs carry the ``FUSED`` software bit and, for VUsion, the ``RESERVED``
hardware trap bit).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import FusionError
from repro.mmu.address_space import Vma
from repro.params import PAGE_SIZE

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.kernel import Kernel
    from repro.kernel.process import Process
    from repro.mmu.page_table import TranslationResult
    from repro.kernel.access import AccessKind


@dataclass
class FusionStats:
    """Counters every engine maintains.

    ``merge_frame_log`` records the physical frame chosen to back each
    (fake-)merge — the series whose distribution the paper's RA
    experiment KS-tests against uniform.
    """

    scans: int = 0
    pages_scanned: int = 0
    full_scans: int = 0
    merges: int = 0
    fake_merges: int = 0
    cow_unmerges: int = 0
    coa_unmerges: int = 0
    stable_nodes_created: int = 0
    stable_nodes_released: int = 0
    volatile_skips: int = 0
    working_set_skips: int = 0
    thp_splits: int = 0
    merge_frame_log: list[int] = field(default_factory=list)


class ScanCursor:
    """Round-robin cursor over all mergeable pages of all processes.

    Mirrors KSM's scan loop: VMAs registered via madvise are visited
    in order, ``N`` pages at a time; when the list is exhausted the
    cursor rebuilds it (picking up new VMAs/processes) and a *full
    scan* completes — the point at which KSM resets its unstable tree.
    """

    def __init__(self, kernel: "Kernel") -> None:
        self._kernel = kernel
        self._items: list[tuple["Process", Vma]] = []
        self._vma_index = 0
        self._page_index = 0
        self._started = False
        self.full_scans = 0

    def _rebuild(self) -> None:
        if self._started and self._items:
            self.full_scans += 1
        self._started = True
        self._items = [
            (process, vma)
            for process in self._kernel.processes
            if process.alive
            for vma in process.address_space.mergeable_vmas()
        ]
        self._vma_index = 0
        self._page_index = 0

    def next_pages(self, count: int) -> list[tuple["Process", Vma, int]]:
        """Return up to ``count`` ``(process, vma, vaddr)`` scan targets."""
        result: list[tuple["Process", Vma, int]] = []
        rebuilds = 0
        while len(result) < count:
            if self._vma_index >= len(self._items):
                self._rebuild()
                rebuilds += 1
                if not self._items or rebuilds > 1:
                    break
            process, vma = self._items[self._vma_index]
            if (
                not process.alive
                or vma not in process.address_space.vmas
            ):
                self._vma_index += 1
                self._page_index = 0
                continue
            vaddr = vma.start + self._page_index * PAGE_SIZE
            if vaddr >= vma.end:
                self._vma_index += 1
                self._page_index = 0
                continue
            result.append((process, vma, vaddr))
            self._page_index += 1
        return result


class FusionEngine(ABC):
    """Base class for all page-fusion systems."""

    name = "fusion"

    def __init__(self) -> None:
        self.kernel: "Kernel | None" = None
        self.stats = FusionStats()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def attach(self, kernel: "Kernel") -> None:
        self.kernel = kernel
        self._register(kernel)

    @abstractmethod
    def _register(self, kernel: "Kernel") -> None:
        """Register daemons and allocate engine state."""

    # ------------------------------------------------------------------
    # Fault hooks (defaults; engines override what they use)
    # ------------------------------------------------------------------
    def handle_reserved_fault(
        self,
        process: "Process",
        vaddr: int,
        walk: "TranslationResult",
        kind: "AccessKind",
    ) -> None:
        raise FusionError(f"{self.name} does not use reserved-bit traps")

    def handle_fused_write(
        self, process: "Process", vaddr: int, walk: "TranslationResult"
    ) -> None:
        raise FusionError(f"{self.name} has no fused pages")

    def on_fused_ref_drop(self, pfn: int) -> None:
        """A mapping of a fused frame went away (munmap/exit)."""

    def on_mergeable_unmapped(self, process: "Process", vma: Vma) -> None:
        """A mergeable VMA is being torn down (munmap/process exit).

        Engines that keep references into candidate pages across scan
        ticks (KSM's unstable tree) must drop the region's entries
        here, before the frames are freed — Linux KSM does the same by
        removing the range's rmap_items from ``ksm_exit``/``unmap``.
        """

    def handle_missing_page(self, process: "Process", vaddr: int) -> bool:
        """Hook on the demand-fault path for engines that evict pages
        (e.g. Memory Combining's swap-in).  Return True if handled."""
        return False

    def release_frame(self, pfn: int) -> bool:
        """Claim the free of ``pfn``; return True if the engine took it."""
        return False

    def unmerge_for_collapse(self, process: "Process", vaddr: int) -> None:
        """Make a (fake-)merged page private so khugepaged may collapse."""
        raise FusionError(f"{self.name} cannot unmerge for collapse")

    def unmerge_range(self, process: "Process", vma: Vma) -> int:
        """Unmerge every fused page of a VMA (``MADV_UNMERGEABLE``).

        Linux's KSM walks the region and breaks all its merges when a
        process opts back out; the default implementation reuses each
        engine's khugepaged-unmerge hook.  Returns the page count.
        """
        unmerged = 0
        page_table = process.address_space.page_table
        for vaddr in vma.pages():
            walk = page_table.walk(vaddr)
            if walk is not None and not walk.huge and walk.pte.fused:
                self.unmerge_for_collapse(process, vaddr)
                unmerged += 1
        return unmerged

    # ------------------------------------------------------------------
    # Sanitizer integration
    # ------------------------------------------------------------------
    def pending_frees(self) -> frozenset[int]:
        """Frames the engine has queued for freeing but not yet freed.

        FrameSan's end-of-run audit exempts these from its leak check:
        a frame sitting in VUsion's deferred-free queue is in flight,
        not leaked — it is unreferenced *by design* until the next
        daemon drain.
        """
        return frozenset()

    def check_accounting(self) -> list[str]:
        """Cross-check this engine's merge-charge ledger via FrameSan.

        Returns problem descriptions (empty when clean or when the
        kernel runs unsanitized).  Engines with bespoke charge models
        may extend this with their own invariants.
        """
        if self.kernel is None or self.kernel.sanitizer is None:
            return []
        return self.kernel.sanitizer.check_fusion_accounting(self)

    # ------------------------------------------------------------------
    # Shard exchange (see repro.mem.shard)
    # ------------------------------------------------------------------
    def shard_exportable_pfns(self) -> list[int]:
        """Frames whose digests this engine may advertise cross-shard.

        The security boundary of the exchange protocol: only content
        the engine has already made *shared and write-protected* on its
        own node may be disclosed to the fabric.  Engines override this
        with their merged-frame sets; the default (and the ``none``
        engine) advertises nothing.
        """
        return []

    def shard_export(self) -> list[tuple[int, int, int]]:
        """``(digest, canonical pfn, holders)`` rows for one exchange
        round, digest-sorted, computed in one batch-kernel sweep."""
        if self.kernel is None:
            return []
        return self.kernel.physmem.digest_table(self.shard_exportable_pfns())

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def incremental_stats(self) -> dict[str, int]:
        """Always empty: no engine keeps scan-replay counters.  Kept
        only because the perfbench harness reads it on every run."""
        return {}

    @abstractmethod
    def saved_frames(self) -> int:
        """Frames currently saved by fusion (sharers minus copies kept)."""

    def sharing_pairs(self) -> tuple[int, int]:
        """Return ``(pages_shared, pages_sharing)`` as in /sys/kernel/mm/ksm."""
        return (0, 0)
