"""Per-process virtual address space: VMAs over a page table.

Mirrors the Linux structures the paper works with: contiguous virtual
memory areas with shared properties, an ``madvise(MADV_MERGEABLE)``
flag that opts a VMA into page fusion, and a bump allocator for new
mappings (2 MiB aligned so transparent huge pages are possible).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.errors import MappingError, SegmentationFault
from repro.mmu.page_table import PageTable
from repro.params import HUGE_PAGE_SIZE, PAGE_SIZE

#: Base of the mmap area in each address space.
MMAP_BASE = 0x1000_0000


@dataclass
class Vma:
    """A contiguous virtual memory area.

    ``file_key`` marks a file-backed region (its pages come from the
    shared page cache); anonymous VMAs have ``file_key=None``.
    ``mergeable`` is set by ``madvise(MADV_MERGEABLE)`` and makes the
    VMA a candidate for KSM/VUsion scanning.
    """

    start: int
    end: int
    name: str = "anon"
    mergeable: bool = False
    file_key: str | None = None
    thp_allowed: bool = True
    extra: dict = field(default_factory=dict)

    @property
    def num_pages(self) -> int:
        return (self.end - self.start) // PAGE_SIZE

    def contains(self, vaddr: int) -> bool:
        return self.start <= vaddr < self.end

    def pages(self) -> Iterator[int]:
        """Yield the base virtual address of every page in the VMA."""
        return iter(range(self.start, self.end, PAGE_SIZE))


class AddressSpace:
    """Virtual address space of one process or VM."""

    def __init__(self) -> None:
        self.page_table = PageTable()
        self._vmas: list[Vma] = []
        self._mmap_cursor = MMAP_BASE

    # ------------------------------------------------------------------
    # VMA management
    # ------------------------------------------------------------------
    def mmap(
        self,
        num_pages: int,
        name: str = "anon",
        mergeable: bool = False,
        file_key: str | None = None,
        thp_allowed: bool = True,
    ) -> Vma:
        """Reserve ``num_pages`` of virtual address space.

        The region is 2 MiB aligned and pages are *not* populated; the
        first touch demand-faults them in, exactly as under Linux.
        """
        if num_pages <= 0:
            raise MappingError("mmap of zero pages")
        start = self._mmap_cursor
        end = start + num_pages * PAGE_SIZE
        # Keep regions 2 MiB aligned and separated so THP ranges never
        # straddle two VMAs.
        self._mmap_cursor = -(-end // HUGE_PAGE_SIZE) * HUGE_PAGE_SIZE + HUGE_PAGE_SIZE
        vma = Vma(
            start=start,
            end=end,
            name=name,
            mergeable=mergeable,
            file_key=file_key,
            thp_allowed=thp_allowed,
        )
        self._vmas.append(vma)
        return vma

    def remove_vma(self, vma: Vma) -> None:
        """Forget a VMA (the kernel unmaps its pages first)."""
        self._vmas.remove(vma)

    def vma_at(self, vaddr: int) -> Vma:
        """Return the VMA containing ``vaddr`` or raise a segfault."""
        for vma in self._vmas:
            if vma.contains(vaddr):
                return vma
        raise SegmentationFault(vaddr)

    def find_vma(self, vaddr: int) -> Vma | None:
        for vma in self._vmas:
            if vma.contains(vaddr):
                return vma
        return None

    def madvise_mergeable(self, vma: Vma, mergeable: bool = True) -> None:
        """Toggle ``MADV_MERGEABLE`` on a VMA (the KSM opt-in)."""
        vma.mergeable = mergeable

    @property
    def vmas(self) -> tuple[Vma, ...]:
        return tuple(self._vmas)

    def mergeable_vmas(self) -> list[Vma]:
        return [vma for vma in self._vmas if vma.mergeable]

    def iter_pages(self) -> Iterator[tuple[int, Vma]]:
        """Yield ``(page_vaddr, vma)`` for every page of every VMA."""
        for vma in self._vmas:
            for vaddr in vma.pages():
                yield vaddr, vma
