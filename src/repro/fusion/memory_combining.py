"""Windows "Memory Combining": fuse only swapped-out pages (§10.1).

After Dedup Est Machina, Microsoft disabled active page fusion; the
current Windows design instead deduplicates pages *inside a compressed
in-memory swap cache*: a page must first be evicted from the working
set into the store, duplicates are combined there, and any access
swaps the page back in as a private copy.

The paper's point about this design is capacity, not security: because
only swapped pages are eligible, it "misses substantial fusion
opportunities compared to active page fusion."  This engine implements
the design so the comparison can be measured (see
``tests/test_memory_combining.py``), and because swapped pages are
unmapped entirely, the merge/unmerge side channels degenerate into
ordinary swap faults for every stored page — same-behaviour by
construction, at a heavy performance price.

Mechanics here:

* a scan daemon evicts pages idle for ``swap_after_ns`` into the
  store: the PTE is removed and the frame freed;
* the store keeps one compressed copy per distinct content and a map
  of evicted ``(pid, vaddr)`` slots to contents — duplicate contents
  share one entry (that is the combining);
* any access to an evicted page takes a swap-in fault: a fresh frame
  is allocated, the content decompressed into it, and the page mapped
  privately again.
"""

from __future__ import annotations

import zlib
from typing import TYPE_CHECKING

from repro.fusion.base import FusionEngine, ScanCursor
from repro.kernel.idle import IdlePageTracker
from repro.mem.content import PageContent, ZERO_PAGE, content_digest
from repro.mem.physmem import FrameType
from repro.mmu.pte import PteFlags
from repro.params import DEFAULT_FUSION, FusionConfig, MS

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.kernel import Kernel
    from repro.kernel.process import Process


class CompressedStore:
    """Content-addressed compressed page store.

    One zlib-compressed blob per distinct content; reference counts
    track how many evicted page slots point at each blob.  Keys are the
    payloads handed out by ``physmem.read`` — on the columnar store
    those are interned, so the dict probes below resolve equal contents
    through ``bytes`` hash caching and the identity fast path rather
    than byte-by-byte comparison.
    """

    def __init__(self) -> None:
        self._blobs: dict[PageContent, bytes] = {}
        self._refs: dict[PageContent, int] = {}
        self.compressed_bytes = 0

    def __len__(self) -> int:
        return len(self._blobs)

    def insert(self, content: PageContent) -> bool:
        """Store a page; returns True if it combined with an existing one."""
        if content in self._blobs:
            self._refs[content] += 1
            return True
        blob = zlib.compress(content, level=1)
        self._blobs[content] = blob
        self._refs[content] = 1
        self.compressed_bytes += len(blob)
        return False

    def fetch(self, content: PageContent) -> PageContent:
        """Decompress-and-release one reference to ``content``."""
        blob = self._blobs[content]
        restored = zlib.decompress(blob)
        self._refs[content] -= 1
        if self._refs[content] == 0:
            del self._blobs[content]
            del self._refs[content]
            self.compressed_bytes -= len(blob)
        return restored

    def references(self, content: PageContent) -> int:
        return self._refs.get(content, 0)

    def contents(self) -> list[PageContent]:
        """All combined payloads currently stored (export/diagnostics)."""
        return list(self._blobs)


class MemoryCombining(FusionEngine):
    """Swap-cache-only deduplication (no active fusion)."""

    name = "memory-combining"

    def __init__(
        self,
        config: FusionConfig = DEFAULT_FUSION,
        swap_after_ns: int = 500 * MS,
    ) -> None:
        super().__init__()
        self.config = config
        self.swap_after_ns = swap_after_ns
        self.cursor: ScanCursor | None = None
        self.store = CompressedStore()
        #: (pid, vaddr) -> stored content, for every evicted page.
        self._evicted: dict[tuple[int, int], PageContent] = {}
        self.swap_ins = 0
        self.swap_outs = 0
        self.combined = 0
        self._tracker = IdlePageTracker()
        self._last_active: dict[tuple[int, int], int] = {}

    def _register(self, kernel: "Kernel") -> None:
        self.cursor = ScanCursor(kernel)
        kernel.register_daemon(
            "memory-combining", self.config.scan_interval, self.scan_tick
        )

    # ------------------------------------------------------------------
    # Eviction scan
    # ------------------------------------------------------------------
    def scan_tick(self) -> None:
        kernel = self.kernel
        self.stats.scans += 1
        for process, _vma, vaddr in self.cursor.next_pages(
            self.config.pages_per_scan
        ):
            kernel.clock.advance(kernel.costs.scan_page)
            self.stats.pages_scanned += 1
            self._consider(process, vaddr)
        self.stats.full_scans = self.cursor.full_scans

    def _consider(self, process: "Process", vaddr: int) -> None:
        kernel = self.kernel
        walk = process.address_space.page_table.walk(vaddr)
        if walk is None or walk.huge or walk.pte.fused or walk.pte.cow:
            return
        key = (process.pid, vaddr)
        now = kernel.clock.now
        if self._tracker.check_and_clear(walk.pte) or key not in self._last_active:
            self._last_active[key] = now
            return
        if now - self._last_active[key] < self.swap_after_ns:
            return
        self._swap_out(process, vaddr, walk.pte.pfn)

    def _swap_out(self, process: "Process", vaddr: int, pfn: int) -> None:
        kernel = self.kernel
        physmem = kernel.physmem
        if physmem.scan_kernel.is_zero_frame(pfn):
            # The canonical zero payload (reads identically from both
            # stores), without touching payload storage on the batch
            # kernel — zero pages are the bulk of an idle eviction
            # sweep.
            content = ZERO_PAGE
        else:
            content = physmem.read(pfn)
        combined = self.store.insert(content)
        self._evicted[(process.pid, vaddr)] = content
        old_pfn, refcount, old_pte = kernel.unmap_page(process, vaddr)
        kernel.release_after_unmap(old_pfn, refcount, old_pte)
        kernel.clock.advance(kernel.costs.copy_page)  # compression work
        self.swap_outs += 1
        if combined:
            self.combined += 1
            self.stats.merges += 1
        self._last_active.pop((process.pid, vaddr), None)

    # ------------------------------------------------------------------
    # Swap-in (rides the demand-fault path: the PTE is simply gone)
    # ------------------------------------------------------------------
    def handle_missing_page(self, process: "Process", vaddr: int) -> bool:
        return self.swap_in(process, vaddr)

    def swap_in(self, process: "Process", vaddr: int) -> bool:
        """Restore an evicted page; returns False if not evicted."""
        key = (process.pid, vaddr)
        content = self._evicted.pop(key, None)
        if content is None:
            return False
        kernel = self.kernel
        restored = self.store.fetch(content)
        pfn = kernel.alloc_frame(FrameType.ANON)
        kernel.physmem.write(pfn, restored)
        kernel.clock.advance(kernel.costs.copy_page * 2)  # decompress + copy
        kernel.map_page(
            process, vaddr, pfn, PteFlags.USER | PteFlags.WRITABLE
        )
        self.swap_ins += 1
        return True

    def unmerge_range(self, process: "Process", vma) -> int:
        """``MADV_UNMERGEABLE``: swap every evicted page back in."""
        restored = 0
        for vaddr in vma.pages():
            if self.swap_in(process, vaddr):
                restored += 1
        return restored

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def saved_frames(self) -> int:
        """Frames saved vs. keeping every evicted page resident.

        Every evicted slot gave its frame back; the store itself is
        modelled as compressed kernel memory, so the *combining* part
        of the savings is evicted slots minus distinct blobs.
        """
        return len(self._evicted) - len(self.store)

    def sharing_pairs(self) -> tuple[int, int]:
        return len(self.store), len(self._evicted)

    def shard_export(self) -> list[tuple[int, int, int]]:
        """Advertise the compressed store, not resident frames.

        Combined blobs live in kernel memory without a pfn; each row
        uses its digest-sorted slot ordinal as the canonical "pfn", so
        cross-shard ties still resolve deterministically by
        ``(shard, slot)``.
        """
        rows = sorted(
            (content_digest(content), self.store.references(content))
            for content in self.store.contents()
        )
        return [(digest, slot, holders)
                for slot, (digest, holders) in enumerate(rows)]

    def evicted_pages(self) -> int:
        return len(self._evicted)
